// Turns recorded probe events into the paper's seven histograms (section 5.3):
//
//   1-4: inter-occurrence times of each probe point,
//   5-7: matched differences between points (1,2), (2,3) and (3,4) for the same packet.
//
// Matching is by sequence number, the way the PC/AT analysis programs matched the 7-bit
// packet numbers; events without a partner (lost packets) simply contribute no sample.
// Each point's records are stably sorted by seq (skipped when they already ascend), cut to
// the first observation of each seq, and merge-joined, so a report costs time linear in
// its probe events and allocates only flat vectors.

#ifndef SRC_MEASURE_INTERVAL_ANALYZER_H_
#define SRC_MEASURE_INTERVAL_ANALYZER_H_

#include <vector>

#include "src/measure/histogram.h"
#include "src/measure/probe.h"

namespace ctms {

// Time between consecutive occurrences of `point`.
std::vector<SimDuration> InterOccurrence(const std::vector<ProbeEvent>& events, ProbePoint point);

// For each sequence number observed at both `from` and `to`, the difference
// time(to) - time(from), in ascending seq order. The first observation of a seq at either
// point wins: a retransmitted duplicate never replaces the original. Negative differences
// are kept (a measurement tool can produce them; the paper used exactly that to find driver
// bugs).
std::vector<SimDuration> MatchedDifference(const std::vector<ProbeEvent>& events,
                                           ProbePoint from, ProbePoint to);

// The full set of paper histograms from one event stream, named "histogram 1".."histogram 7".
struct PaperHistograms {
  Histogram inter_irq{"1: inter-occurrence of VCA IRQ"};
  Histogram inter_handler{"2: inter-occurrence of VCA handler entry"};
  Histogram inter_pre_tx{"3: inter-occurrence of pre-transmit point"};
  Histogram inter_rx{"4: inter-occurrence of rx CTMSP classification"};
  Histogram irq_to_handler{"5: VCA IRQ -> handler entry"};
  Histogram handler_to_pre_tx{"6: handler entry -> pre-transmit"};
  Histogram pre_tx_to_rx{"7: pre-transmit -> rx classified (tx to rx)"};

  // The histogram the paper numbers `number` (1..7).
  const Histogram& Numbered(int number) const;
};

// Splits `events` by probe point in one pass, then builds all seven histograms from the
// per-point records.
PaperHistograms BuildPaperHistograms(const std::vector<ProbeEvent>& events);

}  // namespace ctms

#endif  // SRC_MEASURE_INTERVAL_ANALYZER_H_
