#include "src/measure/interval_analyzer.h"

#include <map>

namespace ctms {

std::vector<SimDuration> InterOccurrence(const std::vector<ProbeEvent>& events,
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

std::vector<SimDuration> MatchedDifference(const std::vector<ProbeEvent>& events,
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

const Histogram& PaperHistograms::Numbered(int number) const {
  const Histogram* all[] = {&inter_irq,      &inter_handler,     &inter_pre_tx, &inter_rx,
                            &irq_to_handler, &handler_to_pre_tx, &pre_tx_to_rx};
  return *all[number - 1];
}

PaperHistograms BuildPaperHistograms(const std::vector<ProbeEvent>& events) {
  PaperHistograms h;
  h.inter_irq.AddAll(InterOccurrence(events, ProbePoint::kVcaIrq));
  h.inter_handler.AddAll(InterOccurrence(events, ProbePoint::kVcaHandlerEntry));
  h.inter_pre_tx.AddAll(InterOccurrence(events, ProbePoint::kPreTransmit));
  h.inter_rx.AddAll(InterOccurrence(events, ProbePoint::kRxClassified));
  h.irq_to_handler.AddAll(
      MatchedDifference(events, ProbePoint::kVcaIrq, ProbePoint::kVcaHandlerEntry));
  h.handler_to_pre_tx.AddAll(
      MatchedDifference(events, ProbePoint::kVcaHandlerEntry, ProbePoint::kPreTransmit));
  h.pre_tx_to_rx.AddAll(
      MatchedDifference(events, ProbePoint::kPreTransmit, ProbePoint::kRxClassified));
  return h;
}

}  // namespace ctms
