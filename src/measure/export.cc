#include "src/measure/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <vector>

namespace ctms {

bool WriteSamplesCsv(const Histogram& histogram, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "sample_us\n");
  for (const SimDuration sample : histogram.samples()) {
    std::fprintf(file, "%" PRId64 "\n", ToMicroseconds(sample));
  }
  std::fclose(file);
  return true;
}

bool WriteBinnedCsv(const Histogram& histogram, SimDuration bin_width, const std::string& path) {
  if (bin_width <= 0) {
    return false;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "bin_lo_us,count\n");
  if (!histogram.empty()) {
    std::map<int64_t, uint64_t> bins;
    for (const SimDuration sample : histogram.samples()) {
      ++bins[sample / bin_width];
    }
    for (const auto& [bin, count] : bins) {
      std::fprintf(file, "%" PRId64 ",%" PRIu64 "\n", ToMicroseconds(bin * bin_width), count);
    }
  }
  std::fclose(file);
  return true;
}

bool WriteEventsCsv(const std::vector<ProbeEvent>& events, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "point,seq,time_us\n");
  for (const ProbeEvent& event : events) {
    std::fprintf(file, "%s,%u,%" PRId64 "\n", ProbePointName(event.point), event.seq,
                 ToMicroseconds(event.time));
  }
  std::fclose(file);
  return true;
}

int WritePaperHistogramsCsv(const PaperHistograms& histograms, const std::string& prefix) {
  int written = 0;
  for (int number = 1; number <= 7; ++number) {
    const std::string path = prefix + "_hist" + std::to_string(number) + ".csv";
    if (WriteSamplesCsv(histograms.Numbered(number), path)) {
      ++written;
    }
  }
  return written;
}

}  // namespace ctms
