#include "src/measure/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ctms {

DurationStats Summarize(const std::vector<SimDuration>& samples) {
  DurationStats stats;
  stats.count = samples.size();
  if (samples.empty()) {
    return stats;
  }
  stats.min = samples.front();
  stats.max = samples.front();
  double sum = 0.0;
  for (const SimDuration s : samples) {
    stats.min = std::min(stats.min, s);
    stats.max = std::max(stats.max, s);
    sum += static_cast<double>(s);
  }
  stats.mean = sum / static_cast<double>(samples.size());
  double sq = 0.0;
  for (const SimDuration s : samples) {
    const double d = static_cast<double>(s) - stats.mean;
    sq += d * d;
  }
  stats.stddev = std::sqrt(sq / static_cast<double>(samples.size()));
  return stats;
}

SimDuration SortedPercentile(const std::vector<SimDuration>& sorted, double p) {
  assert(!sorted.empty());
  assert(p >= 0.0 && p <= 1.0);
  if (sorted.size() == 1) {
    return sorted.front();
  }
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<SimDuration>(std::llround(static_cast<double>(sorted[lo]) +
                                               frac * static_cast<double>(sorted[hi] - sorted[lo])));
}

SimDuration Percentile(const std::vector<SimDuration>& samples, double p) {
  std::vector<SimDuration> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  return SortedPercentile(sorted, p);
}

std::vector<SimDuration> Percentiles(const std::vector<SimDuration>& samples,
                                     const std::vector<double>& ps) {
  std::vector<SimDuration> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  std::vector<SimDuration> out;
  out.reserve(ps.size());
  for (const double p : ps) {
    out.push_back(SortedPercentile(sorted, p));
  }
  return out;
}

double FractionWithin(const std::vector<SimDuration>& samples, SimDuration center,
                      SimDuration halfwidth) {
  return FractionBetween(samples, center - halfwidth, center + halfwidth);
}

double FractionBetween(const std::vector<SimDuration>& samples, SimDuration lo, SimDuration hi) {
  if (samples.empty()) {
    return 0.0;
  }
  size_t hits = 0;
  for (const SimDuration s : samples) {
    if (s >= lo && s <= hi) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(samples.size());
}

}  // namespace ctms
