#include "src/measure/interval_analyzer.h"

#include <algorithm>
#include <array>

namespace ctms {
namespace {

// One probe record reduced to what matching needs.
struct SeqTime {
  uint32_t seq;
  SimTime time;
};

// Time between consecutive records, in arrival order.
std::vector<SimDuration> Gaps(const std::vector<SeqTime>& records) {
  std::vector<SimDuration> out;
  if (records.size() > 1) {
    out.reserve(records.size() - 1);
  }
  for (size_t i = 1; i < records.size(); ++i) {
    out.push_back(records[i].time - records[i - 1].time);
  }
  return out;
}

// Orders `records` by seq and keeps only each seq's first observation, so a retransmitted
// duplicate never overwrites the original. The sort is stable (equal seqs keep arrival
// order, so the first one seen survives) and skipped when the records already ascend.
void KeepFirstBySeq(std::vector<SeqTime>* records) {
  const auto seq_less = [](const SeqTime& a, const SeqTime& b) { return a.seq < b.seq; };
  if (!std::is_sorted(records->begin(), records->end(), seq_less)) {
    std::stable_sort(records->begin(), records->end(), seq_less);
  }
  records->erase(std::unique(records->begin(), records->end(),
                             [](const SeqTime& a, const SeqTime& b) { return a.seq == b.seq; }),
                 records->end());
}

// Merge join of two KeepFirstBySeq outputs: to.time - from.time for every seq in both, in
// ascending seq order.
std::vector<SimDuration> JoinBySeq(const std::vector<SeqTime>& from,
                                   const std::vector<SeqTime>& to) {
  std::vector<SimDuration> out;
  out.reserve(std::min(from.size(), to.size()));
  auto it = to.begin();
  for (const SeqTime& f : from) {
    while (it != to.end() && it->seq < f.seq) {
      ++it;
    }
    if (it == to.end()) {
      break;
    }
    if (it->seq == f.seq) {
      out.push_back(it->time - f.time);
    }
  }
  return out;
}

// The records of each probe point, in arrival order, split in one pass.
std::array<std::vector<SeqTime>, kProbePointCount> SplitByPoint(
    const std::vector<ProbeEvent>& events) {
  std::array<size_t, kProbePointCount> counts{};
  for (const ProbeEvent& event : events) {
    ++counts[ProbeIndex(event.point)];
  }
  std::array<std::vector<SeqTime>, kProbePointCount> by_point;
  for (size_t i = 0; i < kProbePointCount; ++i) {
    by_point[i].reserve(counts[i]);
  }
  for (const ProbeEvent& event : events) {
    by_point[ProbeIndex(event.point)].push_back(SeqTime{event.seq, event.time});
  }
  return by_point;
}

}  // namespace

std::vector<SimDuration> InterOccurrence(const std::vector<ProbeEvent>& events,
                                         ProbePoint point) {
  return Gaps(SplitByPoint(events)[ProbeIndex(point)]);
}

std::vector<SimDuration> MatchedDifference(const std::vector<ProbeEvent>& events,
                                           ProbePoint from, ProbePoint to) {
  std::vector<SeqTime> from_records;
  std::vector<SeqTime> to_records;
  for (const ProbeEvent& event : events) {
    if (event.point == from) {
      from_records.push_back(SeqTime{event.seq, event.time});
    } else if (event.point == to) {
      to_records.push_back(SeqTime{event.seq, event.time});
    }
  }
  KeepFirstBySeq(&from_records);
  KeepFirstBySeq(&to_records);
  return JoinBySeq(from_records, to_records);
}

const Histogram& PaperHistograms::Numbered(int number) const {
  const Histogram* all[] = {&inter_irq,      &inter_handler,     &inter_pre_tx, &inter_rx,
                            &irq_to_handler, &handler_to_pre_tx, &pre_tx_to_rx};
  return *all[number - 1];
}

PaperHistograms BuildPaperHistograms(const std::vector<ProbeEvent>& events) {
  std::array<std::vector<SeqTime>, kProbePointCount> by_point = SplitByPoint(events);
  auto& irq = by_point[ProbeIndex(ProbePoint::kVcaIrq)];
  auto& handler = by_point[ProbeIndex(ProbePoint::kVcaHandlerEntry)];
  auto& pre_tx = by_point[ProbeIndex(ProbePoint::kPreTransmit)];
  auto& rx = by_point[ProbeIndex(ProbePoint::kRxClassified)];

  PaperHistograms h;
  h.inter_irq.AddAll(Gaps(irq));
  h.inter_handler.AddAll(Gaps(handler));
  h.inter_pre_tx.AddAll(Gaps(pre_tx));
  h.inter_rx.AddAll(Gaps(rx));
  for (std::vector<SeqTime>& records : by_point) {
    KeepFirstBySeq(&records);
  }
  h.irq_to_handler.AddAll(JoinBySeq(irq, handler));
  h.handler_to_pre_tx.AddAll(JoinBySeq(handler, pre_tx));
  h.pre_tx_to_rx.AddAll(JoinBySeq(pre_tx, rx));
  return h;
}

}  // namespace ctms
