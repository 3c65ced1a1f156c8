// Sample collections rendered as the paper's histograms.
//
// Raw duration samples are kept; binning happens at render time so one collection can be
// summarized, percentiled, and rendered at several bin widths (the paper's figures use
// different scales for each test case).

#ifndef SRC_MEASURE_HISTOGRAM_H_
#define SRC_MEASURE_HISTOGRAM_H_

#include <string>
#include <vector>

#include "src/measure/stats.h"
#include "src/sim/time.h"

namespace ctms {

class Histogram {
 public:
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Add(SimDuration sample) { samples_.push_back(sample); }
  void AddAll(const std::vector<SimDuration>& samples);

  const std::string& name() const { return name_; }
  const std::vector<SimDuration>& samples() const { return samples_; }
  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  DurationStats Summary() const { return Summarize(samples_); }
  SimDuration Percentile(double p) const;
  // Several percentiles from one sort of the samples; results align with `ps`.
  std::vector<SimDuration> Percentiles(const std::vector<double>& ps) const {
    return ctms::Percentiles(samples_, ps);
  }
  double FractionWithin(SimDuration center, SimDuration halfwidth) const {
    return ctms::FractionWithin(samples_, center, halfwidth);
  }
  double FractionBetween(SimDuration lo, SimDuration hi) const {
    return ctms::FractionBetween(samples_, lo, hi);
  }

  // One-line summary: name, n, min/mean/max, p50/p98.
  std::string SummaryLine() const;

  // ASCII bar rendering with `bin_width` bins over the sample range (clamped to at most
  // `max_bins` rows by widening bins if needed). `bar_width` is the widest bar in chars.
  std::string RenderAscii(SimDuration bin_width, int bar_width = 60, int max_bins = 48) const;

 private:
  std::string name_;
  std::vector<SimDuration> samples_;
};

}  // namespace ctms

#endif  // SRC_MEASURE_HISTOGRAM_H_
