#include "src/measure/histogram.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace ctms {

void Histogram::AddAll(const std::vector<SimDuration>& samples) {
  samples_.insert(samples_.end(), samples.begin(), samples.end());
}

SimDuration Histogram::Percentile(double p) const { return ctms::Percentile(samples_, p); }

std::string Histogram::SummaryLine() const {
  if (samples_.empty()) {
    return name_ + ": (no samples)";
  }
  const DurationStats s = Summary();
  const std::vector<SimDuration> p = Percentiles({0.50, 0.98});
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: n=%zu min=%s mean=%s max=%s p50=%s p98=%s stddev=%s", name_.c_str(),
                s.count, FormatDuration(s.min).c_str(),
                FormatDuration(static_cast<SimDuration>(s.mean)).c_str(),
                FormatDuration(s.max).c_str(), FormatDuration(p[0]).c_str(),
                FormatDuration(p[1]).c_str(),
                FormatDuration(static_cast<SimDuration>(s.stddev)).c_str());
  return buf;
}

std::string Histogram::RenderAscii(SimDuration bin_width, int bar_width, int max_bins) const {
  std::ostringstream os;
  os << name_ << " (n=" << samples_.size() << ")\n";
  if (samples_.empty() || bin_width <= 0) {
    return os.str();
  }
  const auto [min_it, max_it] = std::minmax_element(samples_.begin(), samples_.end());
  const SimDuration lo = *min_it;
  const SimDuration hi = *max_it;
  SimDuration width = bin_width;
  auto bins_for = [&](SimDuration w) { return (hi - lo) / w + 1; };
  while (bins_for(width) > max_bins) {
    width *= 2;
  }
  const auto nbins = static_cast<size_t>(bins_for(width));
  std::vector<uint64_t> counts(nbins, 0);
  for (const SimDuration s : samples_) {
    ++counts[static_cast<size_t>((s - lo) / width)];
  }
  const uint64_t peak = *std::max_element(counts.begin(), counts.end());
  for (size_t i = 0; i < nbins; ++i) {
    const SimDuration bin_lo = lo + static_cast<SimDuration>(i) * width;
    const int bar =
        peak == 0 ? 0 : static_cast<int>(counts[i] * static_cast<uint64_t>(bar_width) / peak);
    char label[64];
    std::snprintf(label, sizeof(label), "%9" PRId64 " us |", ToMicroseconds(bin_lo));
    os << label;
    for (int b = 0; b < bar; ++b) {
      os << '#';
    }
    if (counts[i] > 0 && bar == 0) {
      os << '.';  // make nonzero-but-small bins visible (the paper's tail points matter)
    }
    os << " " << counts[i] << "\n";
  }
  return os.str();
}

}  // namespace ctms
