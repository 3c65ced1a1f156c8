// Figure 5-3: Test Case A, histogram 7 — transmitter (pre-transmit point) to receiver
// (CTMSP classification) times on a private, unloaded ring.
//
// Paper: minimum latency 10740 us for a 2000-byte packet; 98% of points within 160 us of the
// 10894 us mean; remaining 2% spread right of the mean out to 14600 us.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/ctms.h"

int main() {
  using namespace ctms;
  PrintHeader("Figure 5-3: Test Case A, transmitter-to-receiver times (histogram 7)");

  CtmsConfig config = TestCaseA();
  config.duration = Minutes(10);
  CtmsExperiment experiment(config);
  const ExperimentReport report = experiment.Run();

  const Histogram& hist7 = report.ground_truth.pre_tx_to_rx;
  std::printf("%s\n\n", hist7.SummaryLine().c_str());
  std::printf("%s\n", hist7.RenderAscii(Microseconds(100)).c_str());

  const DurationStats stats = hist7.Summary();
  PrintRowHeader();
  PrintRow("minimum latency (2000-byte packet)", "10740 us",
           FormatDuration(stats.min));
  PrintRow("mean", "10894 us", FormatDuration(static_cast<SimDuration>(stats.mean)));
  PrintRow("mass within +/-160 us of mean", "98%",
           Pct(hist7.FractionWithin(static_cast<SimDuration>(stats.mean), Microseconds(160))));
  PrintRow("right tail extends to", "14600 us", FormatDuration(stats.max));
  PrintRow("packets lost", "0", Fmt("%.0f", static_cast<double>(report.packets_lost)));
  PrintRow("out of order", "0", Fmt("%.0f", static_cast<double>(report.out_of_order)));

  std::printf("\n");
  PrintJsonLine("fig5_3", "latency_min_us", static_cast<double>(stats.min) / 1000.0);
  PrintJsonLine("fig5_3", "latency_mean_us", stats.mean / 1000.0);
  PrintJsonLine("fig5_3", "latency_max_us", static_cast<double>(stats.max) / 1000.0);
  PrintJsonLine("fig5_3", "mass_within_160us_of_mean",
                hist7.FractionWithin(static_cast<SimDuration>(stats.mean), Microseconds(160)));
  PrintJsonLine("fig5_3", "packets_lost", static_cast<double>(report.packets_lost));

  std::printf("\nLatency floor decomposition (calibrated constants):\n");
  std::printf("  transmit command 25 + tx DMA 3200 + token 20.5 + wire 4042 + rx DMA 3200\n");
  std::printf("  + rx dispatch 40 + handler entry 155 + CTMSP classify 57 = 10740 us\n");
  std::printf("\nSpread sources: adapter firmware jitter, hardclock/softclock collisions, and\n");
  std::printf("protected kernel code segments (the paper's explanation verbatim).\n");
  return 0;
}
