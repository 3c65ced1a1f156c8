// Before/after microbenchmark of the report-time probe analysis.
//
// Times src/measure against the std::map reference it replaced (tests/probe_reference.h)
// on one Test Case B-sized probe stream (5000 packets, ~20k records, rare loss, duplicates
// and reordering), recorded by a PC/AT rig:
//
//   decode     — PcAtTimestamper::DecodeRecords over the rig's raw records (markers
//                included): rollover recovery and 7-bit sequence widening.
//   histograms — BuildPaperHistograms over the ground-truth stream: four inter-occurrence
//                histograms and three matched-difference joins by sequence number.
//   report     — decode, then the histograms of the decoded stream: what
//                CtmsExperiment::Report() does for the PC/AT method.
//
// Each row reports the current code's ns per probe record and its speedup over the
// reference; legacy and current runs alternate and each keeps its median. The hard failure
// is correctness: the bench exits nonzero if the two analyses disagree on the stream.
// Emits one JSON line per headline number; --json=PATH additionally writes them to PATH
// (CI saves it as BENCH_report.json). --smoke takes fewer, shorter repetitions so the run
// stays sub-second on a shared runner.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/measure/interval_analyzer.h"
#include "src/measure/recorders.h"
#include "tests/probe_reference.h"

namespace ctms {
namespace {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// ns per call of `work`, repeated until one measurement spans `min_seconds`.
template <typename Work>
double NsPerCall(Work&& work, double min_seconds) {
  return MeasureAtLeast(
      [&](uint64_t iterations) {
        const auto start = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i < iterations; ++i) {
          DoNotOptimize(work());
        }
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      },
      1, min_seconds);
}

size_t SampleCount(const PaperHistograms& h) {
  size_t total = 0;
  for (int n = 1; n <= 7; ++n) {
    total += h.Numbered(n).count();
  }
  return total;
}

bool SameHistograms(const PaperHistograms& a, const PaperHistograms& b) {
  for (int n = 1; n <= 7; ++n) {
    if (a.Numbered(n).samples() != b.Numbered(n).samples()) {
      return false;
    }
  }
  return true;
}

struct Row {
  const char* name;
  double legacy_ns;
  double current_ns;
};

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
  const int repetitions = smoke ? 3 : 7;
  const double min_seconds = smoke ? 0.02 : 0.05;

  const std::vector<ProbeEvent> truth = SyntheticProbeStream(1, TestCaseBShape());
  const RecordedPcAt rig(truth, 1);
  const std::vector<PcAtTimestamper::RawRecord>& raw = rig.pcat.raw_records();
  const PcAtTimestamper::Config config;

  const std::vector<ProbeEvent> decoded = PcAtTimestamper::DecodeRecords(raw, config);
  if (decoded != legacy::Decode(raw, config) ||
      !SameHistograms(BuildPaperHistograms(truth), legacy::BuildPaperHistograms(truth)) ||
      !SameHistograms(BuildPaperHistograms(decoded), legacy::BuildPaperHistograms(decoded))) {
    std::fputs("micro_report: the flat analysis disagrees with the legacy one\n", stderr);
    return 1;
  }

  auto decode_now = [&] { return PcAtTimestamper::DecodeRecords(raw, config).size(); };
  auto decode_old = [&] { return legacy::Decode(raw, config).size(); };
  auto build_now = [&] { return SampleCount(BuildPaperHistograms(truth)); };
  auto build_old = [&] { return SampleCount(legacy::BuildPaperHistograms(truth)); };
  auto report_now = [&] {
    return SampleCount(BuildPaperHistograms(PcAtTimestamper::DecodeRecords(raw, config)));
  };
  auto report_old = [&] {
    return SampleCount(legacy::BuildPaperHistograms(legacy::Decode(raw, config)));
  };

  std::vector<double> samples[6];
  for (int r = 0; r < repetitions; ++r) {
    samples[0].push_back(NsPerCall(decode_old, min_seconds));
    samples[1].push_back(NsPerCall(decode_now, min_seconds));
    samples[2].push_back(NsPerCall(build_old, min_seconds));
    samples[3].push_back(NsPerCall(build_now, min_seconds));
    samples[4].push_back(NsPerCall(report_old, min_seconds));
    samples[5].push_back(NsPerCall(report_now, min_seconds));
  }
  const Row rows[] = {
      {"decode", Median(samples[0]), Median(samples[1])},
      {"histograms", Median(samples[2]), Median(samples[3])},
      {"report", Median(samples[4]), Median(samples[5])},
  };

  const auto events = static_cast<double>(truth.size());
  PrintHeader("micro_report — flat sort-merge probe analysis vs legacy std::map joins");
  std::printf("  %zu probe records, %zu raw PC/AT records; ns per probe record\n",
              truth.size(), raw.size());
  std::printf("  %-12s %12s %12s %8s\n", "phase", "legacy", "current", "speedup");
  std::string json;
  for (const Row& row : rows) {
    const double legacy_per_event = row.legacy_ns / events;
    const double current_per_event = row.current_ns / events;
    const double speedup = row.legacy_ns / row.current_ns;
    std::printf("  %-12s %12.1f %12.1f %7.2fx\n", row.name, legacy_per_event,
                current_per_event, speedup);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"report\",\"metric\":\"%s_ns_per_event\",\"value\":%.1f}\n"
                  "{\"bench\":\"report\",\"metric\":\"%s_speedup\",\"value\":%.3f}\n",
                  row.name, current_per_event, row.name, speedup);
    json += line;
  }
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
