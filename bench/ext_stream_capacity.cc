// Extension: how many 150 KB/s-class CTMSP streams does a 4 Mbit Token Ring carry?
//
// The paper streams one connection; each 2000-byte/12 ms stream occupies ~34% of the wire,
// so the capacity question has a sharp answer this bench measures: two streams coexist,
// a third saturates the ring and all three degrade together (priority is shared, so the
// failure is fair).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/ctms.h"

int main() {
  using namespace ctms;
  PrintHeader("Extension: CTMSP stream capacity of one 4 Mbit ring (30 s per row)");

  std::printf("  %-9s %-10s %-12s %-14s %-14s %-16s\n", "streams", "ring busy", "verdict",
              "worst lost", "worst underruns", "worst max latency");
  std::printf("  %-9s %-10s %-12s %-14s %-14s %-16s\n", "-------", "---------", "-------",
              "----------", "---------------", "-----------------");
  for (int n = 1; n <= 4; ++n) {
    MultiStreamConfig config;
    config.streams = n;
    config.duration = Seconds(30);
    MultiStreamExperiment experiment(config);
    const MultiStreamReport report = experiment.Run();
    uint64_t worst_lost = 0;
    uint64_t worst_underruns = 0;
    SimDuration worst_latency = 0;
    for (const StreamStats& stream : report.streams) {
      worst_lost = std::max(worst_lost, stream.lost + stream.queue_drops);
      worst_underruns = std::max(worst_underruns, stream.underruns);
      worst_latency = std::max(worst_latency, stream.max_latency);
    }
    std::printf("  %-9d %-10s %-12s %-14llu %-15llu %-16s\n", n,
                Pct(report.ring_utilization).c_str(),
                report.AllSustained() ? "SUSTAINED" : "DEGRADED",
                static_cast<unsigned long long>(worst_lost),
                static_cast<unsigned long long>(worst_underruns),
                FormatDuration(worst_latency).c_str());
  }
  std::printf("\nTwo CD-quality-class streams fit; the third pushes the wire to ~100%% and\n"
              "latency grows without bound. The 1991 answer to 'how many video calls per\n"
              "Token Ring' was: two.\n");
  return 0;
}
