// e2e_bench — measures one end-to-end benchmark workload of the CTMS simulator in-process.
//
//   e2e_bench --workload=paper_b --seed=1 --seconds=10 --mode=timed
//   e2e_bench --workload=fabric_campus --seed=1 --seconds=10 --mode=traced --trace-out=t.json
//
// A workload is a ctms_sim flag list applied through the tool's own public surface
// (ApplyScenarioAxis -> ValidateScenarioConfig -> *ConfigFrom -> constructor, Run()), so the
// benchmark depends on nothing the CLI does not. Runs execute one after another on one thread
// (a closed loop with one client) until --seconds of host time have passed; each run prints
// one JSON line with the host nanoseconds spent constructing and running, the simulated
// seconds covered, the report's built/delivered/lost counts, and a fingerprint of the report's
// simulated statistics. The final line holds the peak resident memory (VmHWM) after the first
// run.
// run.py turns these lines into metrics and checks them.
//
//   --mode=timed   every run untraced and followed by one timed pass of a fixed reference
//                  loop (see ReferenceLoopNs) and three set-up-only samples; the end-to-end
//                  numbers.
//   --mode=traced  alternates untraced runs with traced ones. A traced run records a host-time
//                  span around every public call (construct, Start, each one-simulated-second
//                  RunUntil slice, Run, Report, Summary, MetricsJson), snapshots the layer
//                  counters at each span's end, and reports the counters summed over every
//                  registry prefix. Spans stay in memory and are written as Chrome trace-event
//                  JSON to --trace-out at exit. fabric_campus also runs at min(4, cores) shard
//                  threads (the "pool" pass), which must reproduce the one-thread fingerprint.
//
// Exit status: 0 when every requested run was attempted (failed runs are reported in their
// lines, not by the exit code); 2 on a bad argument or workload flag list.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/ctms.h"
#include "src/core/report_stats.h"
#include "src/telemetry/json_export.h"
#include "src/telemetry/span_tracer.h"

namespace {

using namespace ctms;
using HostClock = std::chrono::steady_clock;
using Flags = std::vector<std::string>;

struct Workload {
  const char* name;
  Flags flags;  // ctms_sim flags; --seed is appended per invocation
};

// Why each workload is here is in README.md. Durations are pinned so one Run() costs tens
// to hundreds of host milliseconds: enough runs fit in a measurement window to take medians.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper_b", {"--experiment=ctms", "--scenario=B", "--duration=60"}},
      {"mediamix_overload",
       {"--experiment=mediamix", "--mix=voice:8,vbr:4,bulk:2", "--quality-controller",
        "--duration=10"}},
      {"fabric_campus",
       {"--experiment=fabric", "--rings=16", "--stations-per-ring=64",
        "--fabric-topology=ring-of-rings", "--jobs=1", "--duration=5"}},
      {"purge_recovery",
       {"--experiment=faultsweep", "--recovery=none,resend,fec,hybrid", "--jobs=1",
        "--duration=5"}},
  };
  return kWorkloads;
}

// ctms_sim's flag path: `--name=value` through ApplyScenarioAxis, bare `--name` through
// ApplyScenarioPresenceFlag, then ValidateScenarioConfig. Returns an error or "".
std::string ParseScenario(const Flags& flags, ScenarioConfig* cli) {
  for (const std::string& flag : flags) {
    const std::string body = flag.substr(2);
    const size_t eq = body.find('=');
    std::string error;
    if (eq == std::string::npos) {
      if (!ApplyScenarioPresenceFlag(cli, body)) {
        return "unknown flag " + flag;
      }
    } else if (!ApplyScenarioAxis(cli, body.substr(0, eq), body.substr(eq + 1), &error)) {
      return error;
    }
  }
  return ValidateScenarioConfig(*cli);
}

// --- layer counters ----------------------------------------------------------------------

// A counter belongs to a bucket when its name, less any "shard<i>." or "cell<i>." merge
// prefix, starts with `head` and ends with `tail`; the instance part in between (tx, rx_bulk0,
// bridge3, ...) is summed over, so every bucket covers every registry prefix.
struct Bucket {
  const char* key;
  std::string_view head;
  std::string_view tail;
};

constexpr Bucket kBuckets[] = {
    {"events", "sim.", "events_executed"},
    {"scheduled", "sim.", "events_scheduled"},
    {"cancelled", "sim.", "events_cancelled"},
    {"wheel_pops", "sim.event_wheel.", "pops"},
    {"heap_pops", "sim.event_heap.", "pops"},
    {"cpu_steps", "cpu.", ".steps_executed"},
    {"interrupts", "cpu.", ".interrupts"},
    {"preemptions", "cpu.", ".preemptions"},
    {"dma_bytes", "dma.", ".bytes"},
    {"mbuf_allocs", "kern.", ".mbuf.allocs"},
    {"mbuf_failures", "kern.", ".mbuf.failures"},
    {"ifq_enqueues", "kern.", ".enqueues"},
    {"ifq_drops", "kern.", ".drops"},
    {"source_irqs", "driver.vca.", ".interrupts"},
    {"source_mbuf_drops", "driver.vca.", ".mbuf_drops"},
    {"source_queue_drops", "driver.vca.", ".queue_drops"},
    {"underruns", "driver.vca.", ".underruns"},
    {"frames", "ring.", "frames_carried"},
    {"mac_frames", "ring.", "mac_frames"},
    {"purge_lost_frames", "ring.", "frames_lost_to_purge"},
    {"retransmits", "driver.tr.", ".retransmits"},  // every CTMSP resend the driver queues
    {"nacks", "recovery.", ".nack_sent"},
    {"resends", "recovery.", ".resends"},
    {"repaired", "recovery.", ".repaired"},
};
constexpr size_t kBucketCount = std::size(kBuckets);
using Counts = std::array<uint64_t, kBucketCount>;

std::string_view WithoutMergePrefix(std::string_view name) {
  for (const std::string_view prefix : {"shard", "cell"}) {
    if (!name.starts_with(prefix)) {
      continue;
    }
    size_t i = prefix.size();
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
      ++i;
    }
    if (i > prefix.size() && i < name.size() && name[i] == '.') {
      return name.substr(i + 1);
    }
  }
  return name;
}

Counts SumCounters(const MetricsRegistry& registry) {
  Counts counts{};
  for (const auto& [full_name, counter] : registry.counters()) {
    const std::string_view name = WithoutMergePrefix(full_name);
    for (size_t i = 0; i < kBucketCount; ++i) {
      const Bucket& bucket = kBuckets[i];
      if (name.size() >= bucket.head.size() + bucket.tail.size() &&
          name.starts_with(bucket.head) && name.ends_with(bucket.tail)) {
        counts[i] += counter.value();
      }
    }
  }
  return counts;
}

size_t MetricCount(const MetricsRegistry& registry) {
  return registry.counters().size() + registry.gauges().size() + registry.summaries().size();
}

// --- fingerprint of a report's simulated statistics ----------------------------------------

// Canonical "key=value;" text of everything a report says about simulated behaviour, hashed
// (FNV-1a, 64 bit). Same seed => same fingerprint, at any thread count and traced or not.
class Fingerprint {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "=%.17g;", value);
    text_ += key;
    text_ += buf;
  }
  void AddStats(const StatList& stats) {
    for (const auto& [key, value] : stats) {
      Add(key, value);
    }
  }
  // Simulated-time percentiles (p50, p90, p98) of a latency histogram.
  void AddPercentiles(const std::string& key, const Histogram& histogram) {
    Add(key + ".n", static_cast<double>(histogram.count()));
    if (histogram.empty()) {
      return;
    }
    const std::vector<SimDuration> p = histogram.Percentiles({0.50, 0.90, 0.98});
    Add(key + ".p50", static_cast<double>(p[0]));
    Add(key + ".p90", static_cast<double>(p[1]));
    Add(key + ".p98", static_cast<double>(p[2]));
  }
  std::string Hex() const {
    uint64_t hash = 14695981039346656037ull;
    for (const char c : text_) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
    return buf;
  }

 private:
  std::string text_;
};

void AddCtmsReport(Fingerprint* fp, const ExperimentReport& report, uint64_t events) {
  fp->AddStats(SummaryStats(report));
  fp->Add("irq_count", static_cast<double>(report.irq_count));
  fp->Add("source_mbuf_drops", static_cast<double>(report.source_mbuf_drops));
  fp->Add("source_queue_drops", static_cast<double>(report.source_queue_drops));
  fp->Add("late_recovered", static_cast<double>(report.late_recovered));
  fp->Add("repaired", static_cast<double>(report.repaired));
  fp->Add("nacks_sent", static_cast<double>(report.nacks_sent));
  fp->Add("resends", static_cast<double>(report.resends));
  fp->Add("frames_lost_to_purge", static_cast<double>(report.frames_lost_to_purge));
  fp->Add("tx_cpu_copies", static_cast<double>(report.tx_cpu_copies));
  fp->Add("rx_cpu_copies", static_cast<double>(report.rx_cpu_copies));
  fp->AddPercentiles("sink_latency", report.sink_latency);
  fp->AddPercentiles("measured.handler_to_pre_tx", report.measured.handler_to_pre_tx);
  fp->AddPercentiles("measured.pre_tx_to_rx", report.measured.pre_tx_to_rx);
  fp->AddPercentiles("truth.pre_tx_to_rx", report.ground_truth.pre_tx_to_rx);
  fp->Add("sim.events_executed", static_cast<double>(events));
}

void AddSweepRows(Fingerprint* fp, const std::vector<FaultSweepRow>& rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    const FaultSweepRow& row = rows[i];
    const std::string p = "row" + std::to_string(i) + ".";
    fp->Add(p + "level", row.level);
    fp->Add(p + "policy", static_cast<double>(row.policy));
    fp->Add(p + "recovery", static_cast<double>(row.recovery));
    fp->Add(p + "purges", static_cast<double>(row.purges_injected));
    fp->Add(p + "built", static_cast<double>(row.packets_built));
    fp->Add(p + "delivered", static_cast<double>(row.packets_delivered));
    fp->Add(p + "lost", static_cast<double>(row.packets_lost));
    fp->Add(p + "retransmissions", static_cast<double>(row.retransmissions));
    fp->Add(p + "late_recovered", static_cast<double>(row.late_recovered));
    fp->Add(p + "underruns", static_cast<double>(row.sink_underruns));
    fp->Add(p + "repaired", static_cast<double>(row.repaired));
    fp->Add(p + "nacks", static_cast<double>(row.nacks_sent));
    fp->Add(p + "resends", static_cast<double>(row.resends));
    fp->Add(p + "parity_bytes", static_cast<double>(row.parity_overhead_bytes));
    fp->Add(p + "mean_latency_us", row.mean_latency_us);
    fp->Add(p + "p98_latency_us", row.p98_latency_us);
  }
}

// --- timing and spans ----------------------------------------------------------------------

int64_t Ns(HostClock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

// Times calls into the simulator. With a tracer (traced runs) each call is also recorded as
// a host-time span on `track`, carrying the layer counters of `snapshot` at the span's end.
class Recorder {
 public:
  Recorder(SpanTracer* tracer, TrackId track, HostClock::time_point origin)
      : tracer_(tracer), track_(track), origin_(origin) {}

  bool traced() const { return tracer_ != nullptr; }

  int64_t Time(const char* name, const std::function<void()>& call,
               const MetricsRegistry* snapshot = nullptr) {
    const HostClock::time_point start = HostClock::now();
    call();
    const int64_t ns = Ns(HostClock::now() - start);
    if (tracer_ != nullptr) {
      std::vector<TraceArg> args;
      if (snapshot != nullptr) {
        const Counts counts = SumCounters(*snapshot);
        for (size_t i = 0; i < kBucketCount; ++i) {
          args.push_back({kBuckets[i].key, static_cast<int64_t>(counts[i])});
        }
      }
      tracer_->AddComplete(track_, name, Ns(start - origin_), ns, std::move(args));
    }
    return ns;
  }

 private:
  SpanTracer* tracer_;
  TrackId track_;
  HostClock::time_point origin_;
};

// --- reference loop ----------------------------------------------------------------------

// A fixed, simulator-shaped workload timed right after every timed run: a binary-heap event
// queue of std::function closures that hold shared payloads and update a string-keyed map.
// On a shared machine the host's speed for such code drifts by up to 2x within minutes; this
// loop drifts with the simulator (measured on a shared 4-vCPU Xeon VM: per-run ratios spread
// 2-5% where raw run times spread 26-31%), so run.py scales each run by it. It lives here,
// not in src/, so a change to the simulator never changes it.
int64_t ReferenceLoopNs() {
  struct Event {
    uint64_t time;
    uint64_t seq;
    std::function<void()> action;
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  static const std::array<std::string, 8> kJobs = {"vca-irq", "tr-tx",     "tr-rx", "ipintr",
                                                   "hardclock", "softclock", "mac",   "dma"};
  const HostClock::time_point start = HostClock::now();
  std::vector<Event> queue;
  std::map<std::string, uint64_t> busy;
  uint64_t now = 0;
  uint64_t seq = 0;
  uint64_t rng = 12345;
  const auto schedule = [&](uint64_t kind) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    auto payload = std::make_shared<std::vector<uint64_t>>(kind % 7 + 1, kind);
    queue.push_back(Event{now + (rng >> 40) % 1000 + 1, seq++, [&busy, kind, payload] {
                            busy[kJobs[kind % kJobs.size()]] += payload->size();
                          }});
    std::push_heap(queue.begin(), queue.end(), later);
  };
  for (uint64_t kind = 0; kind < 256; ++kind) {
    schedule(kind);
  }
  for (uint64_t n = 0; n < 60000; ++n) {
    std::pop_heap(queue.begin(), queue.end(), later);
    Event event = std::move(queue.back());
    queue.pop_back();
    now = event.time;
    event.action();
    schedule(n);
  }
  const int64_t ns = Ns(HostClock::now() - start);
  if (busy.size() != kJobs.size()) {  // keeps the loop's work observable
    std::abort();
  }
  return ns;
}

// --- one run ---------------------------------------------------------------------------

struct Sample {
  int64_t setup_ns = 0;  // flags to config, constructor, and Start() for ctms
  int64_t run_ns = 0;    // Run(), or its traced equivalent (RunUntil slices + Report)
  double sim_s = 0.0;    // simulated seconds covered (summed over faultsweep cells)
  uint64_t built = 0;
  uint64_t delivered = 0;
  uint64_t lost = 0;
  std::string fingerprint;
  // Traced runs only.
  Counts counts{};
  std::vector<double> slice_ms;  // host ms per one-simulated-second RunUntil slice
  int64_t summary_ns = 0;        // report Summary()
  int64_t export_ns = 0;         // MetricsJson of the run's registry
  size_t metric_count = 0;
  uint64_t sync_rounds = 0;
  int64_t shards = 0;
};

// Flags to experiment config, the way ctms_sim gets there (ParseScenario, then the
// experiment's *ConfigFrom converter), timed as set-up. A flag list that fails throws.
template <typename Config>
Config Configure(const Flags& flags, Config (*convert)(const ScenarioConfig&), Recorder& rec,
                 Sample* sample) {
  Config config;
  sample->setup_ns += rec.Time("configure", [&] {
    ScenarioConfig cli;
    const std::string error = ParseScenario(flags, &cli);
    if (!error.empty()) {
      throw std::invalid_argument(error);
    }
    config = convert(cli);
  });
  return config;
}

// The experiment's constructor, timed as set-up.
template <typename Experiment, typename Config>
std::unique_ptr<Experiment> Construct(const Config& config, Recorder& rec, Sample* sample) {
  std::unique_ptr<Experiment> experiment;
  sample->setup_ns +=
      rec.Time("construct", [&] { experiment = std::make_unique<Experiment>(config); });
  return experiment;
}

// Runs a constructed, started CtmsExperiment to its end: one Run() when untraced; when
// traced, one RunUntil per simulated second and then Report(), as Run() itself would.
ExperimentReport DriveCtms(CtmsExperiment& experiment, SimDuration duration, Recorder& rec,
                           Sample* sample) {
  ExperimentReport report;
  if (!rec.traced()) {
    sample->run_ns += rec.Time("Run", [&] { report = experiment.Run(); });
    return report;
  }
  const MetricsRegistry& metrics = experiment.sim().telemetry().metrics;
  for (SimTime until = std::min(Seconds(1), duration);;
       until = std::min(until + Seconds(1), duration)) {
    const int64_t ns =
        rec.Time("RunUntil", [&] { experiment.sim().RunUntil(until); }, &metrics);
    sample->run_ns += ns;
    sample->slice_ms.push_back(static_cast<double>(ns) / 1e6);
    if (until >= duration) {
      break;
    }
  }
  sample->run_ns += rec.Time("Report", [&] { report = experiment.Report(); }, &metrics);
  return report;
}

template <typename Report>
void TimeSummary(const Report& report, Recorder& rec, Sample* sample) {
  std::string text;
  sample->summary_ns = rec.Time("Summary", [&] { text = report.Summary(); });
}

// Times MetricsJson over the run's final registry, which also supplies the run's counters.
void TimeExport(const MetricsRegistry& registry, Recorder& rec, Sample* sample) {
  std::string json;
  sample->export_ns =
      rec.Time("MetricsJson", [&] { json = MetricsJson(registry); }, &registry);
  sample->metric_count = MetricCount(registry);
  sample->counts = SumCounters(registry);
}

Sample RunPaperB(const Flags& flags, Recorder& rec, bool setup_only) {
  Sample sample;
  const CtmsConfig config = Configure(flags, &CtmsConfigFrom, rec, &sample);
  const auto experiment = Construct<CtmsExperiment>(config, rec, &sample);
  sample.setup_ns += rec.Time("Start", [&] { experiment->Start(); });
  if (setup_only) {
    return sample;
  }
  const ExperimentReport report = DriveCtms(*experiment, config.duration, rec, &sample);
  sample.sim_s = ToSecondsF(config.duration);
  sample.built = report.packets_built;
  sample.delivered = report.packets_delivered;
  sample.lost = report.packets_lost;
  Fingerprint fp;
  AddCtmsReport(&fp, report, experiment->sim().events_executed());
  sample.fingerprint = fp.Hex();
  if (rec.traced()) {
    TimeSummary(report, rec, &sample);
    TimeExport(experiment->sim().telemetry().metrics, rec, &sample);
  }
  return sample;
}

Sample RunMediaMix(const Flags& flags, Recorder& rec, bool setup_only) {
  Sample sample;
  const MediaMixConfig config = Configure(flags, &MediaMixConfigFrom, rec, &sample);
  const auto experiment = Construct<MediaMixExperiment>(config, rec, &sample);
  if (setup_only) {
    return sample;
  }
  MediaMixReport report;
  const MetricsRegistry& metrics = experiment->sim().telemetry().metrics;
  sample.run_ns = rec.Time("Run", [&] { report = experiment->Run(); },
                           rec.traced() ? &metrics : nullptr);
  sample.sim_s = ToSecondsF(config.duration);
  for (const MediaMixClassQoE& qoe : report.classes) {
    sample.built += qoe.built;
    sample.delivered += qoe.delivered;
    sample.lost += qoe.lost;
  }
  Fingerprint fp;
  fp.AddStats(SummaryStats(report));
  fp.Add("sim.events_executed", static_cast<double>(experiment->sim().events_executed()));
  sample.fingerprint = fp.Hex();
  if (rec.traced()) {
    sample.slice_ms.push_back(static_cast<double>(sample.run_ns) / 1e6 / sample.sim_s);
    TimeSummary(report, rec, &sample);
    TimeExport(metrics, rec, &sample);
  }
  return sample;
}

Sample RunFabric(const Flags& flags, Recorder& rec, bool setup_only) {
  Sample sample;
  const FabricConfig config = Configure(flags, &FabricConfigFrom, rec, &sample);
  const auto experiment = Construct<FabricExperiment>(config, rec, &sample);
  if (setup_only) {
    return sample;
  }
  FabricReport report;
  sample.run_ns = rec.Time("Run", [&] { report = experiment->Run(); });
  sample.sim_s = ToSecondsF(config.duration);
  sample.built = report.packets_built;
  sample.delivered = report.packets_delivered;
  sample.lost = report.packets_lost;
  Fingerprint fp;
  fp.AddStats(SummaryStats(report));
  sample.fingerprint = fp.Hex();
  if (rec.traced()) {
    sample.slice_ms.push_back(static_cast<double>(sample.run_ns) / 1e6 / sample.sim_s);
    TimeSummary(report, rec, &sample);
    MetricsRegistry merged;
    rec.Time("MergeMetricsInto", [&] { experiment->MergeMetricsInto(&merged); });
    TimeExport(merged, rec, &sample);
    sample.sync_rounds = report.sync_rounds;
    sample.shards = config.rings;
  }
  return sample;
}

// The traced purge_recovery run. FaultSweepExperiment runs its cells internally and exposes
// no registry, so the traced run replays the same cells as CtmsExperiments built from the
// public config (FaultSweepExperiment::PlanForLevel included) and rebuilds each row the way
// the sweep does. The rows feed the same fingerprint as the untraced sweep, so a replay that
// drifts from the sweep shows as a failed run.
Sample ReplaySweep(const Flags& flags, Recorder& rec) {
  Sample sample;
  const FaultSweepConfig config = Configure(flags, &FaultSweepConfigFrom, rec, &sample);
  const auto sweep = Construct<FaultSweepExperiment>(config, rec, &sample);
  FaultSweepReport report;
  report.config = config;
  MetricsRegistry merged;
  for (int level = 0; level < config.levels; ++level) {
    for (DegradationMode policy : config.policies) {
      for (RecoveryMode recovery : config.recoveries) {
        CtmsConfig cell = config.base;
        cell.name = "faultsweep-L" + std::to_string(level) + "-" + DegradationModeName(policy) +
                    (recovery == RecoveryMode::kNone
                         ? ""
                         : std::string("-") + RecoveryModeName(recovery));
        cell.faults = sweep->PlanForLevel(level);
        cell.degradation = policy;
        cell.recovery = recovery;
        cell.retransmit_on_purge = false;
        const auto experiment = Construct<CtmsExperiment>(cell, rec, &sample);
        sample.setup_ns += rec.Time("Start", [&] { experiment->Start(); });
        const ExperimentReport cell_report = DriveCtms(*experiment, cell.duration, rec, &sample);
        sample.sim_s += ToSecondsF(cell.duration);

        FaultSweepRow row;
        row.level = level;
        row.policy = policy;
        row.recovery = recovery;
        if (const FaultInjector* injector = experiment->topology().fault_injector()) {
          row.purges_injected = injector->report().purges_injected;
        }
        row.packets_built = cell_report.packets_built;
        row.packets_delivered = cell_report.packets_delivered;
        row.packets_lost = cell_report.packets_lost;
        row.retransmissions = cell_report.retransmissions;
        if (const DegradationPolicy* degradation = experiment->degradation_policy()) {
          row.retransmissions += degradation->retransmits();
        }
        row.late_recovered = cell_report.late_recovered;
        row.sink_underruns = cell_report.sink_underruns;
        row.repaired = cell_report.repaired;
        row.nacks_sent = cell_report.nacks_sent;
        row.resends = cell_report.resends;
        row.parity_overhead_bytes = cell_report.parity_overhead_bytes;
        row.mean_latency_us = cell_report.sink_latency.Summary().mean / 1000.0;
        row.p98_latency_us = ToSecondsF(cell_report.sink_latency.Percentile(0.98)) * 1e6;
        report.rows.push_back(row);

        merged.MergeFrom(experiment->sim().telemetry().metrics,
                         "cell" + std::to_string(report.rows.size() - 1) + ".");
      }
    }
  }
  for (const FaultSweepRow& row : report.rows) {
    sample.built += row.packets_built;
    sample.delivered += row.packets_delivered;
    sample.lost += row.packets_lost;
  }
  Fingerprint fp;
  AddSweepRows(&fp, report.rows);
  sample.fingerprint = fp.Hex();
  TimeSummary(report, rec, &sample);
  TimeExport(merged, rec, &sample);
  return sample;
}

Sample RunSweep(const Flags& flags, Recorder& rec, bool setup_only) {
  if (rec.traced() && !setup_only) {
    return ReplaySweep(flags, rec);
  }
  Sample sample;
  const FaultSweepConfig config = Configure(flags, &FaultSweepConfigFrom, rec, &sample);
  const auto experiment = Construct<FaultSweepExperiment>(config, rec, &sample);
  if (setup_only) {
    return sample;
  }
  FaultSweepReport report;
  sample.run_ns = rec.Time("Run", [&] { report = experiment->Run(); });
  for (const FaultSweepRow& row : report.rows) {
    sample.sim_s += ToSecondsF(config.base.duration);
    sample.built += row.packets_built;
    sample.delivered += row.packets_delivered;
    sample.lost += row.packets_lost;
  }
  Fingerprint fp;
  AddSweepRows(&fp, report.rows);
  sample.fingerprint = fp.Hex();
  return sample;
}

// One run of the workload; with `setup_only`, only its set-up: flags to config, the
// constructor, and for ctms Start().
Sample RunOnce(const std::string& experiment, const Flags& flags, Recorder& rec,
               bool setup_only) {
  if (experiment == "mediamix") {
    return RunMediaMix(flags, rec, setup_only);
  }
  if (experiment == "fabric") {
    return RunFabric(flags, rec, setup_only);
  }
  if (experiment == "faultsweep") {
    return RunSweep(flags, rec, setup_only);
  }
  return RunPaperB(flags, rec, setup_only);
}

// --- output --------------------------------------------------------------------------------

void PrintSample(const char* pass, const Sample& s, bool traced) {
  std::printf("{\"pass\":\"%s\",\"setup_ns\":%" PRId64 ",\"run_ns\":%" PRId64
              ",\"sim_s\":%.17g,\"built\":%" PRIu64 ",\"delivered\":%" PRIu64
              ",\"lost\":%" PRIu64 ",\"fingerprint\":\"%s\"",
              pass, s.setup_ns, s.run_ns, s.sim_s, s.built,
              s.delivered, s.lost, s.fingerprint.c_str());
  if (traced) {
    std::printf(",\"counts\":{");
    for (size_t i = 0; i < kBucketCount; ++i) {
      std::printf("%s\"%s\":%" PRIu64, i == 0 ? "" : ",", kBuckets[i].key, s.counts[i]);
    }
    std::printf("},\"slice_ms\":[");
    for (size_t i = 0; i < s.slice_ms.size(); ++i) {
      std::printf("%s%.17g", i == 0 ? "" : ",", s.slice_ms[i]);
    }
    std::printf("],\"summary_ns\":%" PRId64 ",\"export_ns\":%" PRId64
                ",\"metric_count\":%zu,\"sync_rounds\":%" PRIu64 ",\"shards\":%" PRId64,
                s.summary_ns, s.export_ns, s.metric_count, s.sync_rounds, s.shards);
  }
  std::printf("}\n");
  std::fflush(stdout);
}

void PrintError(const char* pass, const std::string& what) {
  std::printf("{\"pass\":\"%s\",\"error\":\"%s\"}\n", pass, JsonEscape(what).c_str());
  std::fflush(stdout);
}

// Peak resident set of this process in KiB (VmHWM); each invocation runs one workload in a
// fresh process, so no other workload's footprint is included.
int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoll(line.substr(6));
    }
  }
  return -1;
}

// Construction-only samples taken after each timed run, for the set-up metric.
constexpr int kSetupsPerRun = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string mode = "timed";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return false;
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (name == "workload") {
        args->workload = value;
      } else if (name == "seed") {
        args->seed = std::stoull(value);
      } else if (name == "seconds") {
        args->seconds = std::stod(value);
      } else if (name == "mode" && (value == "timed" || value == "traced")) {
        args->mode = value;
      } else if (name == "trace-out") {
        args->trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

// One run with exceptions caught: a throwing run is reported as failed and the loop goes on.
// Passes: "warmup" (checked, not timed), "setup" (construction only), "untraced", "traced",
// and "pool" (fabric at several shard threads).
void Attempt(const char* pass, const std::string& experiment, const Flags& flags,
             Recorder& rec) {
  const bool setup_only = std::string_view(pass) == "setup";
  try {
    const Sample sample = RunOnce(experiment, flags, rec, setup_only);
    if (setup_only) {
      std::printf("{\"pass\":\"setup\",\"setup_ns\":%" PRId64 "}\n", sample.setup_ns);
    } else {
      PrintSample(pass, sample, rec.traced());
    }
  } catch (const std::exception& e) {
    PrintError(pass, e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=NAME --seed=N --seconds=S "
                 "[--mode=timed|traced] [--trace-out=FILE]\n");
    return 2;
  }
  const auto& workloads = Workloads();
  const auto it = std::find_if(workloads.begin(), workloads.end(),
                               [&](const Workload& w) { return args.workload == w.name; });
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Flags flags = it->flags;
  flags.push_back("--seed=" + std::to_string(args.seed));
  ScenarioConfig cli;
  const std::string error = ParseScenario(flags, &cli);
  if (!error.empty()) {
    std::fprintf(stderr, "bad workload flags for %s: %s\n", it->name, error.c_str());
    return 2;
  }

  const HostClock::time_point origin = HostClock::now();
  const HostClock::time_point deadline =
      origin + std::chrono::duration_cast<HostClock::duration>(
                   std::chrono::duration<double>(args.seconds));
  Recorder untraced(nullptr, 0, origin);
  // The first run warms caches and the allocator; it is checked but not timed. The peak
  // resident set is read right after it: one run's footprint in a fresh process, before
  // hundreds of construct/destroy cycles fragment the heap.
  const std::string& experiment = cli.experiment;
  Attempt("warmup", experiment, flags, untraced);
  const int64_t peak_rss_kb = PeakRssKb();

  // Host speed drifts over seconds (neighbouring load), so every kind of sample is spread
  // over the whole window rather than taken in one burst, and each timed run is followed by
  // the reference loop, which run.py divides it by.
  if (args.mode == "timed") {
    for (int runs = 0; runs < 3 || HostClock::now() < deadline; ++runs) {
      Attempt("untraced", experiment, flags, untraced);
      std::printf("{\"reference_ns\":%" PRId64 "}\n", ReferenceLoopNs());
      for (int i = 0; i < kSetupsPerRun; ++i) {
        Attempt("setup", experiment, flags, untraced);
      }
    }
  } else {
    SpanTracer tracer;
    tracer.set_enabled(true);
    Recorder traced(&tracer, tracer.RegisterTrack(std::string(it->name) + " traced"), origin);
    Flags pool = flags;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    pool.push_back("--jobs=" + std::to_string(std::min(4u, cores)));
    // Adjacent untraced/traced (and, for the fabric, pool) runs form one group, so run.py
    // can compare them pairwise under the same host conditions.
    for (int groups = 0; groups < 3 || HostClock::now() < deadline; ++groups) {
      Attempt("untraced", experiment, flags, untraced);
      Attempt("traced", experiment, flags, traced);
      if (experiment == "fabric") {
        Attempt("pool", experiment, pool, untraced);
      }
    }
    if (!args.trace_out.empty() && !WriteChromeTraceJson(tracer, args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }
  std::printf("{\"peak_rss_kb\":%" PRId64 "}\n", peak_rss_kb);
  return 0;
}
