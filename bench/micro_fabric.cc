// Scaling microbenchmark of the sharded fabric's conservative-lookahead rounds.
//
// Two sweeps over a ring-of-rings fabric:
//
//   shards  — simulated ms per host second as the fabric grows (1, 2, 4, 8 shards at
//             --jobs=1). With a flat per-ring cost it falls as 1/shards; a steeper fall
//             means the sync rounds eat the time.
//   threads — simulated ms per host second for the fixed 8-shard fabric at jobs = 1, 2,
//             4, 8, plus the parallel speedup over the single-threaded run. Because the
//             determinism contract makes every jobs value execute the identical event
//             sequence, the ratio is a pure measurement of the shard pool: barrier
//             overhead vs. the per-window work it parallelizes.
//
// Throughput is simulated time, not events, per host second: how much work one event does
// is the CPU model's choice (one event covers a whole run of steps), so an events/sec
// figure would fall whenever the model needs fewer events for the same simulation.
//
// The sync-round count is also emitted — rounds ~= duration / link latency, the knob
// that trades lookahead for barrier frequency. Speedup depends on the host: on fewer
// cores than jobs the ratio dips below 1 (oversubscription), which is expected and not
// gated; the hard failure here is event-sequence divergence across thread counts.
//
// Emits the human table plus one JSON line per headline number; --json=PATH additionally
// writes the JSON lines to PATH (CI saves it as BENCH_fabric.json). --smoke shortens the
// simulated duration so the run stays sub-second on a shared runner.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/fabric/fabric.h"

namespace ctms {
namespace {

struct Sample {
  int64_t jobs;
  double sim_ms_per_sec;
  uint64_t events;
  uint64_t rounds;
};

Sample RunOnce(int64_t rings, int64_t jobs, SimDuration duration) {
  FabricConfig config;
  config.topology = FabricTopology::kRingOfRings;
  config.rings = rings;
  config.stations_per_ring = 16;
  config.duration = duration;
  config.jobs = jobs;
  FabricExperiment experiment(config);
  const auto start = std::chrono::steady_clock::now();
  const FabricReport report = experiment.Run();
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  if (!report.Healthy()) {
    std::fputs("bench fabric run was not healthy\n", stderr);
  }
  const double sim_ms = static_cast<double>(duration) / static_cast<double>(kMillisecond);
  return Sample{jobs, sim_ms / seconds, report.events_executed, report.sync_rounds};
}

}  // namespace
}  // namespace ctms

int main(int argc, char** argv) {
  using namespace ctms;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  const SimDuration duration = smoke ? Seconds(2) : Seconds(20);

  std::string json;
  PrintHeader("micro_fabric — ring-of-rings, sim ms/sec vs shard count (--jobs=1)");
  std::printf("  %-8s %16s %12s %10s\n", "shards", "sim ms/sec", "events", "rounds");
  for (const int64_t rings : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8}}) {
    const Sample sample = RunOnce(rings, 1, duration);
    std::printf("  %-8lld %16.1f %12llu %10llu\n", static_cast<long long>(rings),
                sample.sim_ms_per_sec, static_cast<unsigned long long>(sample.events),
                static_cast<unsigned long long>(sample.rounds));
    char line[128];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"fabric\",\"metric\":\"shards%lld_sim_ms_per_sec\","
                  "\"value\":%.1f}\n",
                  static_cast<long long>(rings), sample.sim_ms_per_sec);
    json += line;
  }

  PrintHeader("micro_fabric — 8-shard ring-of-rings, sim ms/sec vs shard-pool threads");
  const Sample baseline = RunOnce(8, 1, duration);
  std::printf("  %-8s %16s %10s %10s\n", "jobs", "sim ms/sec", "speedup", "rounds");
  for (const int64_t jobs : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8}}) {
    const Sample sample = jobs == 1 ? baseline : RunOnce(8, jobs, duration);
    if (sample.events != baseline.events || sample.rounds != baseline.rounds) {
      // Same seed + same config must execute the identical event sequence at every
      // thread count; a divergence here is a determinism bug, not a bench artifact.
      std::fprintf(stderr, "jobs=%lld diverged: %llu events / %llu rounds vs baseline\n",
                   static_cast<long long>(jobs),
                   static_cast<unsigned long long>(sample.events),
                   static_cast<unsigned long long>(sample.rounds));
      return 1;
    }
    const double speedup = sample.sim_ms_per_sec / baseline.sim_ms_per_sec;
    std::printf("  %-8lld %16.1f %9.2fx %10llu\n", static_cast<long long>(jobs),
                sample.sim_ms_per_sec, speedup,
                static_cast<unsigned long long>(sample.rounds));
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"fabric\",\"metric\":\"jobs%lld_sim_ms_per_sec\","
                  "\"value\":%.1f}\n"
                  "{\"bench\":\"fabric\",\"metric\":\"jobs%lld_speedup\",\"value\":%.3f}\n",
                  static_cast<long long>(jobs), sample.sim_ms_per_sec,
                  static_cast<long long>(jobs), speedup);
    json += line;
  }
  char line[128];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"fabric\",\"metric\":\"sync_rounds\",\"value\":%llu}\n",
                static_cast<unsigned long long>(baseline.rounds));
  json += line;
  std::fputs(json.c_str(), stdout);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
