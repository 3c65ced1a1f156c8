// Figure 5-4: Test Case B, histogram 7 — transmitter-to-receiver times on the public ring
// under normal load, multiprocessing hosts. The paper's run lasted 117 minutes and caught
// two station insertions.
//
// Paper: minimum 10750 us; 76% within 160 us of the 10900 us peak; 21.5% in 11060-15000 us;
// 2.49% in 15000-40050 us; two exceptional points at 120-130 ms (the insertions).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/ctms.h"

int main() {
  using namespace ctms;
  PrintHeader("Figure 5-4: Test Case B, transmitter-to-receiver times (histogram 7), 117 min");

  CtmsConfig config = TestCaseB();
  config.duration = Minutes(117);
  config.jitter_buffer_packets = 12;  // the section-6 budget: 24 KB, glitch-free
  CtmsExperiment experiment(config);
  experiment.Start();
  // The paper's run caught two insertions in 117 minutes (~1/hour); schedule exactly two so
  // the signature "two exceptional data points" reproduces deterministically.
  experiment.sim().After(Minutes(31), [&]() { experiment.ring().TriggerStationInsertion(); });
  experiment.sim().After(Minutes(86), [&]() { experiment.ring().TriggerStationInsertion(); });
  experiment.sim().RunFor(config.duration);
  const ExperimentReport report = experiment.Report();

  const Histogram& hist7 = report.ground_truth.pre_tx_to_rx;
  std::printf("%s\n\n", hist7.SummaryLine().c_str());
  std::printf("%s\n", hist7.RenderAscii(Microseconds(500)).c_str());

  const DurationStats stats = hist7.Summary();
  const double peak = hist7.FractionWithin(Microseconds(10900), Microseconds(160));
  const double mid = hist7.FractionBetween(Microseconds(11060), Microseconds(15000));
  const double high = hist7.FractionBetween(Microseconds(15000), Microseconds(40050));
  size_t exceptional = 0;
  for (const SimDuration sample : hist7.samples()) {
    if (sample > Milliseconds(100)) {
      ++exceptional;
    }
  }

  PrintRowHeader();
  PrintRow("minimum latency", "10750 us", FormatDuration(stats.min));
  PrintRow("mass within +/-160 us of 10900 us", "76%", Pct(peak));
  PrintRow("mass in 11060-15000 us", "21.5%", Pct(mid));
  PrintRow("mass in 15000-40050 us", "2.49%", Pct(high));
  PrintRow("exceptional points (120-130 ms)", "2",
           Fmt("%.0f", static_cast<double>(exceptional)), "(the two insertions)");
  PrintRow("station insertions during run", "2",
           Fmt("%.0f", static_cast<double>(report.ring_insertions)));
  PrintRow("ring purges (bursts of ~10 per insertion)", "~20",
           Fmt("%.0f", static_cast<double>(report.ring_purges)));
  PrintRow("packets lost (uncorrectable purge losses)", "a few",
           Fmt("%.0f", static_cast<double>(report.packets_lost)));
  PrintRow("sink underruns over 117 min", "0 (no glitches)",
           Fmt("%.0f", static_cast<double>(report.sink_underruns)));

  std::printf("\n");
  PrintJsonLine("fig5_4", "latency_min_us", static_cast<double>(stats.min) / 1000.0);
  PrintJsonLine("fig5_4", "peak_mass", peak);
  PrintJsonLine("fig5_4", "exceptional_points", static_cast<double>(exceptional));
  PrintJsonLine("fig5_4", "ring_insertions", static_cast<double>(report.ring_insertions));
  PrintJsonLine("fig5_4", "ring_purges", static_cast<double>(report.ring_purges));
  PrintJsonLine("fig5_4", "sink_underruns", static_cast<double>(report.sink_underruns));
  return 0;
}
