// Test-only reference for the report-time probe analysis, and the synthetic probe streams
// it is checked on.
//
// ctms::legacy is the analysis as it ran before the flat sort-merge rewrite, with std::map
// joins by sequence number, kept verbatim apart from names (Decode is lifted out of
// PcAtTimestamper into a free function over its raw records). measure_test.cc requires
// src/measure to match it element for element, and bench/micro_report.cc times src/measure
// against it.

#ifndef TESTS_PROBE_REFERENCE_H_
#define TESTS_PROBE_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "src/measure/interval_analyzer.h"
#include "src/measure/probe.h"
#include "src/measure/recorders.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace ctms {
namespace legacy {

inline std::vector<SimDuration> InterOccurrence(const std::vector<ProbeEvent>& events,
                                                ProbePoint point) {
  std::vector<SimDuration> out;
  bool have_prev = false;
  SimTime prev = 0;
  for (const ProbeEvent& event : events) {
    if (event.point != point) {
      continue;
    }
    if (have_prev) {
      out.push_back(event.time - prev);
    }
    prev = event.time;
    have_prev = true;
  }
  return out;
}

inline std::vector<SimDuration> MatchedDifference(const std::vector<ProbeEvent>& events,
                                                  ProbePoint from, ProbePoint to) {
  // seq -> first observed time at each endpoint. First observation wins, so a retransmitted
  // duplicate does not overwrite the original (matching the paper's dedup handling).
  std::map<uint32_t, SimTime> from_times;
  std::map<uint32_t, SimTime> to_times;
  for (const ProbeEvent& event : events) {
    if (event.point == from) {
      from_times.emplace(event.seq, event.time);
    } else if (event.point == to) {
      to_times.emplace(event.seq, event.time);
    }
  }
  std::vector<SimDuration> out;
  out.reserve(from_times.size());
  for (const auto& [seq, t_from] : from_times) {
    auto it = to_times.find(seq);
    if (it != to_times.end()) {
      out.push_back(it->second - t_from);
    }
  }
  return out;
}

inline PaperHistograms BuildPaperHistograms(const std::vector<ProbeEvent>& events) {
  PaperHistograms h;
  h.inter_irq.AddAll(legacy::InterOccurrence(events, ProbePoint::kVcaIrq));
  h.inter_handler.AddAll(legacy::InterOccurrence(events, ProbePoint::kVcaHandlerEntry));
  h.inter_pre_tx.AddAll(legacy::InterOccurrence(events, ProbePoint::kPreTransmit));
  h.inter_rx.AddAll(legacy::InterOccurrence(events, ProbePoint::kRxClassified));
  h.irq_to_handler.AddAll(
      legacy::MatchedDifference(events, ProbePoint::kVcaIrq, ProbePoint::kVcaHandlerEntry));
  h.handler_to_pre_tx.AddAll(
      legacy::MatchedDifference(events, ProbePoint::kVcaHandlerEntry, ProbePoint::kPreTransmit));
  h.pre_tx_to_rx.AddAll(
      legacy::MatchedDifference(events, ProbePoint::kPreTransmit, ProbePoint::kRxClassified));
  return h;
}

// PcAtTimestamper::Decode over `raw_` and `config_`.
inline std::vector<ProbeEvent> Decode(const std::vector<PcAtTimestamper::RawRecord>& raw,
                                      const PcAtTimestamper::Config& config) {
  std::vector<ProbeEvent> out;
  const int64_t modulus = int64_t{1} << config.counter_bits;
  int64_t epoch = 0;
  bool have_prev = false;
  uint16_t prev_counter = 0;
  // Per-channel last widened sequence number.
  std::map<ProbePoint, uint32_t> last_seq;
  for (const PcAtTimestamper::RawRecord& rec : raw) {
    if (have_prev && rec.counter < prev_counter) {
      ++epoch;  // the counter rolled over; markers guarantee we never miss one
    }
    prev_counter = rec.counter;
    have_prev = true;
    if (rec.is_marker) {
      continue;
    }
    const SimTime when = (epoch * modulus + rec.counter) * config.clock_tick;
    uint32_t seq = rec.data7;
    auto it = last_seq.find(rec.channel);
    if (it != last_seq.end()) {
      const uint32_t seq_mask = (1u << config.seq_bits) - 1u;
      const uint32_t delta = (rec.data7 - (it->second & seq_mask)) & seq_mask;
      seq = it->second + delta;
    }
    last_seq[rec.channel] = seq;
    out.push_back(ProbeEvent{rec.channel, seq, when});
  }
  return out;
}

}  // namespace legacy

// --- synthetic probe streams ---------------------------------------------------------------

struct ProbeStreamShape {
  int packets = 5000;  // 5000 x 12 ms: one 60 s Test Case B run, ~20k records
  double loss = 0.0;       // chance a packet leaves no record at a point
  double duplicate = 0.0;  // chance a point records a packet twice (a retransmission)
  double reorder = 0.0;    // chance a record lands up to 20 ms early or late
  uint32_t seq_mask = 0xFFFFFFFFu;  // 0x7F: the PC/AT rig's undecoded 7-bit numbers
};

// The shape of one Test Case B run: rare loss, duplicates and reordering.
inline ProbeStreamShape TestCaseBShape() {
  ProbeStreamShape shape;
  shape.loss = 0.002;
  shape.duplicate = 0.002;
  shape.reorder = 0.002;
  return shape;
}

// Packet i interrupts at i x 12 ms and reaches the handler, pre-transmit and rx points over
// the next ~14 ms, so consecutive packets' records interleave. Returned in time order (the
// order instruments see them), ties in generation order.
inline std::vector<ProbeEvent> SyntheticProbeStream(uint64_t seed, const ProbeStreamShape& shape) {
  Rng rng(seed);
  std::vector<ProbeEvent> events;
  const ProbePoint points[] = {ProbePoint::kVcaIrq, ProbePoint::kVcaHandlerEntry,
                               ProbePoint::kPreTransmit, ProbePoint::kRxClassified};
  for (int i = 0; i < shape.packets; ++i) {
    const uint32_t seq = static_cast<uint32_t>(i + 1) & shape.seq_mask;
    SimTime t = i * Milliseconds(12);
    const SimDuration stage_delay[] = {
        0, rng.UniformDuration(Microseconds(20), Microseconds(440)),
        rng.UniformDuration(Microseconds(2400), Microseconds(3000)),
        rng.UniformDuration(Microseconds(10500), Microseconds(11500))};
    for (size_t p = 0; p < 4; ++p) {
      t += stage_delay[p];
      if (rng.Chance(shape.loss)) {
        continue;
      }
      SimTime when = t;
      if (rng.Chance(shape.reorder)) {
        when += rng.UniformDuration(-Milliseconds(20), Milliseconds(20));
        when = std::max<SimTime>(0, when);
      }
      events.push_back(ProbeEvent{points[p], seq, when});
      if (rng.Chance(shape.duplicate)) {
        const SimDuration later = rng.UniformDuration(Milliseconds(1), Milliseconds(30));
        events.push_back(ProbeEvent{points[p], seq, when + later});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ProbeEvent& a, const ProbeEvent& b) { return a.time < b.time; });
  return events;
}

// A PC/AT rig (default config, 50 Hz markers on) that has recorded `events`.
struct RecordedPcAt {
  RecordedPcAt(const std::vector<ProbeEvent>& events, uint64_t seed)
      : sim(seed), pcat(&bus, &sim, Rng(seed)) {
    for (const ProbeEvent& event : events) {
      sim.RunUntil(event.time);
      bus.Emit(event.point, event.seq, event.time);
    }
  }

  ProbeBus bus;
  Simulation sim;
  PcAtTimestamper pcat;
};

}  // namespace ctms

#endif  // TESTS_PROBE_REFERENCE_H_
