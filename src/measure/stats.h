// Summary statistics over duration samples.

#ifndef SRC_MEASURE_STATS_H_
#define SRC_MEASURE_STATS_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace ctms {

struct DurationStats {
  size_t count = 0;
  SimDuration min = 0;
  SimDuration max = 0;
  double mean = 0.0;    // nanoseconds
  double stddev = 0.0;  // nanoseconds (population)
};

// Computes summary statistics of `samples` (nanosecond durations).
DurationStats Summarize(const std::vector<SimDuration>& samples);

// p in [0, 1]; linear interpolation between order statistics. Requires non-empty samples.
// Sorts an internal copy on every call — when computing several percentiles of one sample
// set, use Percentiles(), which copies and sorts once.
SimDuration Percentile(const std::vector<SimDuration>& samples, double p);

// Percentile over samples already sorted ascending; no copy, no sort.
SimDuration SortedPercentile(const std::vector<SimDuration>& sorted, double p);

// Computes every percentile in `ps` from a single copy+sort of `samples`. Results align
// with `ps` index-for-index. Requires non-empty samples.
std::vector<SimDuration> Percentiles(const std::vector<SimDuration>& samples,
                                     const std::vector<double>& ps);

// Fraction of samples within +/- halfwidth of center (inclusive).
double FractionWithin(const std::vector<SimDuration>& samples, SimDuration center,
                      SimDuration halfwidth);

// Fraction of samples in [lo, hi] inclusive.
double FractionBetween(const std::vector<SimDuration>& samples, SimDuration lo, SimDuration hi);

}  // namespace ctms

#endif  // SRC_MEASURE_STATS_H_
