#include "src/core/scenario_run.h"

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>

#include "src/core/report_stats.h"
#include "src/measure/export.h"
#include "src/telemetry/journey.h"

namespace ctms {

namespace {

void AttachFaultReport(RunSummaryInfo* info, RingTopology& topology) {
  if (const FaultInjector* injector = topology.fault_injector()) {
    info->fault = injector->report().Stats();
  }
}

void Judge(ScenarioRun* run, std::string label, StatList stats, bool healthy) {
  run->info.scenario = std::move(label);
  run->info.stats = std::move(stats);
  run->healthy = healthy;
}

// A sweep is healthy when every (policy, recovery) curve degrades monotonically and, when
// the unrecovered family ran, retransmission beats silent drop.
bool SweepHealthy(const FaultSweepReport& report) {
  const auto& recoveries = report.config.recoveries;
  bool healthy = std::find(recoveries.begin(), recoveries.end(), RecoveryMode::kNone) ==
                     recoveries.end() ||
                 report.RetransmitBeatsDrop();
  for (DegradationMode policy : report.config.policies) {
    for (RecoveryMode recovery : recoveries) {
      healthy = healthy && report.MonotoneNonIncreasing(policy, recovery);
    }
  }
  return healthy;
}

template <typename Experiment>
Experiment& Traced(const ScenarioConfig& config, Experiment& experiment) {
  experiment.sim().telemetry().tracer.set_enabled(!config.trace_json.empty());
  return experiment;
}

// Announces a written file on `out`, or reports the failure on stderr and marks the run.
void Announce(bool written, const std::string& path, std::ostream& out, ScenarioRun* run) {
  if (written) {
    out << "wrote " << path << "\n";
  } else {
    std::cerr << "cannot write " << path << "\n";
    run->outputs_ok = false;
  }
}

// The output every experiment shares after its own: the journey breakdown and post-mortem,
// the counter dump, the Chrome trace and the run-summary JSON of `registry`. `sim` is null
// for the experiments that span many simulations (fabric, faultsweep).
void EmitTelemetry(const ScenarioConfig& config, Simulation* sim,
                   const MetricsRegistry& registry, bool console, std::ostream& out,
                   ScenarioRun* run) {
  if (sim != nullptr && sim->telemetry().journeys.enabled()) {
    JourneyRecorder& journeys = sim->telemetry().journeys;
    out << "\n" << journeys.StageBreakdown();
    if (journeys.anomaly_fired()) {
      // An anomaly arms the post-mortem: spans onto the trace (before it is written below)
      // and, on a console run, a JSON dump even when no --journey-json path was given.
      journeys.DumpToTracer();
    }
    const std::string path = !config.journey_json.empty() ? config.journey_json
                             : console && journeys.anomaly_fired() ? "flight_recorder.json"
                                                                   : "";
    if (!path.empty()) {
      Announce(WriteJourneyJson(journeys, path), path, out, run);
    }
  }
  if (config.print_metrics) {
    out << "telemetry counters:\n";
    for (const auto& [name, counter] : registry.counters()) {
      out << "  " << name << std::string(48 - std::min<size_t>(name.size(), 48), ' ') << " "
          << counter.value() << "\n";
    }
  }
  if (sim != nullptr && !config.trace_json.empty()) {
    Announce(WriteChromeTraceJson(sim->telemetry().tracer, config.trace_json),
             config.trace_json, out, run);
  }
  if (!config.metrics_json.empty()) {
    Announce(WriteRunSummaryJson(registry, run->info, config.metrics_json),
             config.metrics_json, out, run);
  }
}

}  // namespace

std::string LoadScenarioFiles(ScenarioConfig* config) {
  if (!config->faults_path.empty()) {
    std::string error;
    auto plan = FaultPlan::LoadFile(config->faults_path, &error);
    if (!plan.has_value()) {
      return "bad fault plan " + config->faults_path + ": " + error;
    }
    config->faults = std::move(*plan);
  }
  config->trace.clear();
  if (!config->trace_path.empty()) {
    int error_line = 0;
    auto entries = TraceReplayTraffic::LoadCsv(config->trace_path, &error_line);
    if (!entries.has_value()) {
      return "bad trace file " + config->trace_path + " (line " +
             std::to_string(error_line) + ")";
    }
    config->trace = std::move(*entries);
  }
  return "";
}

ScenarioRun RunScenario(const ScenarioConfig& config, std::ostream* console) {
  std::ostream discard(nullptr);
  std::ostream& out = console != nullptr ? *console : discard;
  ScenarioRun run;
  run.info.duration_s = static_cast<double>(config.duration_s);
  run.info.seed = config.seed;
  run.metrics = std::make_unique<MetricsRegistry>();

  // The tail of every single-simulation experiment.
  auto finish = [&](auto& experiment, const auto& report, std::string label, bool healthy) {
    Judge(&run, std::move(label), SummaryStats(report), healthy);
    AttachFaultReport(&run.info, experiment.topology());
    const MetricsRegistry& live = experiment.sim().telemetry().metrics;
    run.metrics->MergeFrom(live);
    EmitTelemetry(config, &experiment.sim(), live, console != nullptr, out, &run);
  };

  // A run is labelled with its experiment name, refined where a flag picks a variant (the
  // baseline transport, router forwarding, mediamix controller) and, for ctms, the preset's
  // own name.
  const std::string& name = config.experiment;
  if (name == "baseline") {
    BaselineExperiment experiment(BaselineConfigFrom(config));
    const BaselineReport report = Traced(config, experiment).Run();
    out << report.Summary();
    if (!config.csv_prefix.empty()) {
      WriteSamplesCsv(report.end_to_end_latency, config.csv_prefix + "_latency.csv");
      out << "wrote " << config.csv_prefix << "_latency.csv\n";
    }
    finish(experiment, report, config.tcp ? "baseline-tcp" : "baseline-udp",
           report.Sustained());
  } else if (name == "multistream") {
    MultiStreamExperiment experiment(MultiStreamConfigFrom(config));
    const MultiStreamReport report = Traced(config, experiment).Run();
    out << report.Summary();
    finish(experiment, report, name, report.AllSustained());
  } else if (name == "server") {
    ServerExperiment experiment(ServerConfigFrom(config));
    const ServerReport report = Traced(config, experiment).Run();
    out << report.Summary();
    finish(experiment, report, name, report.AllSustained());
  } else if (name == "router") {
    RouterExperiment experiment(RouterConfigFrom(config));
    const RouterReport report = Traced(config, experiment).Run();
    out << report.Summary();
    finish(experiment, report, config.zero_copy ? "router-zero-copy" : "router-mbuf",
           report.KeepsUp());
  } else if (name == "mediamix") {
    MediaMixExperiment experiment(MediaMixConfigFrom(config));
    const MediaMixReport report = Traced(config, experiment).Run();
    out << report.Summary();
    finish(experiment, report,
           config.quality_controller ? "mediamix-controller" : "mediamix-fifo",
           report.Healthy());
  } else if (name == "faultsweep") {
    FaultSweepExperiment experiment(FaultSweepConfigFrom(config));
    const FaultSweepReport report = experiment.Run();
    out << report.Summary();
    Judge(&run, name, SummaryStats(report), SweepHealthy(report));
    EmitTelemetry(config, nullptr, *run.metrics, console != nullptr, out, &run);
  } else if (name == "fabric") {
    FabricExperiment experiment(FabricConfigFrom(config));
    const FabricReport report = experiment.Run();
    out << report.Summary();
    Judge(&run, name, SummaryStats(report), report.Healthy());
    AttachFaultReport(&run.info,
                      experiment.shard(static_cast<size_t>(report.config.fault_shard)));
    experiment.MergeMetricsInto(run.metrics.get());
    EmitTelemetry(config, nullptr, *run.metrics, console != nullptr, out, &run);
  } else {
    const CtmsConfig ctms = CtmsConfigFrom(config);
    CtmsExperiment experiment(ctms);
    Traced(config, experiment);
    std::unique_ptr<TraceReplayTraffic> trace;
    if (!config.trace_path.empty()) {
      trace = std::make_unique<TraceReplayTraffic>(&experiment.ring(), config.trace);
      SimDuration span = 0;
      for (const TraceEntry& entry : config.trace) {
        span = std::max(span, entry.offset);
      }
      trace->Start(/*loop=*/true, span + Milliseconds(50));
    }
    const ExperimentReport report = experiment.Run();
    out << report.Summary();
    if (trace != nullptr) {
      out << "replayed " << trace->frames_sent() << " background frames from "
          << config.trace_path << "\n";
    }
    const PaperHistograms& source =
        config.ground_truth_output ? report.ground_truth : report.measured;
    if (config.histogram != 0) {
      const Histogram& histogram = source.Numbered(config.histogram);
      out << "\n" << histogram.SummaryLine() << "\n"
          << histogram.RenderAscii(Microseconds(config.bin_us));
    }
    if (!config.csv_prefix.empty()) {
      out << "wrote " << WritePaperHistogramsCsv(source, config.csv_prefix)
          << " CSV files with prefix " << config.csv_prefix << "\n";
    }
    finish(experiment, report, ctms.name,
           report.packets_lost == 0 && report.sink_underruns == 0);
  }
  return run;
}

}  // namespace ctms
