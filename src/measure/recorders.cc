#include "src/measure/recorders.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

namespace ctms {

const char* ProbePointName(ProbePoint point) {
  switch (point) {
    case ProbePoint::kVcaIrq:
      return "vca-irq";
    case ProbePoint::kVcaHandlerEntry:
      return "vca-handler-entry";
    case ProbePoint::kPreTransmit:
      return "pre-transmit";
    case ProbePoint::kRxClassified:
      return "rx-classified";
  }
  return "?";
}

// --- GroundTruthRecorder -----------------------------------------------------------------

GroundTruthRecorder::GroundTruthRecorder(ProbeBus* bus) {
  bus->Subscribe([this](const ProbeEvent& event) { events_.push_back(event); });
}

// --- RtPcPseudoDevice ----------------------------------------------------------------------

RtPcPseudoDevice::RtPcPseudoDevice(ProbeBus* bus, Rng rng, Config config)
    : config_(config), rng_(std::move(rng)) {
  bus->Subscribe([this](const ProbeEvent& event) { OnProbe(event); });
}

void RtPcPseudoDevice::OnProbe(const ProbeEvent& event) {
  if (event.point == ProbePoint::kVcaIrq) {
    return;  // a software tool cannot see the interrupt request line
  }
  if (events_.size() >= config_.buffer_capacity) {
    ++overflow_dropped_;
    return;
  }
  SimTime stamp = event.time;
  if (!config_.interrupts_disabled && rng_.Chance(config_.corruption_probability)) {
    // Another interrupt ran between reading the clock and storing the record.
    stamp += rng_.UniformDuration(0, config_.corruption_max);
  }
  // The RT/PC clock only advances every 122 us.
  stamp = stamp / config_.clock_granularity * config_.clock_granularity;
  events_.push_back(ProbeEvent{event.point, event.seq, stamp});
}

// --- PcAtTimestamper -------------------------------------------------------------------------

PcAtTimestamper::PcAtTimestamper(ProbeBus* bus, Simulation* sim, Rng rng, Config config)
    : config_(config), rng_(std::move(rng)), sim_(sim) {
  bus->Subscribe([this](const ProbeEvent& event) { OnProbe(event); });
  if (sim_ != nullptr) {
    marker_cancel_ = SchedulePeriodic(sim_, sim_->Now(), config_.marker_period, [this]() {
      RecordAt(sim_->Now(), /*is_marker=*/true, ProbePoint::kVcaIrq, 0);
    });
  }
}

PcAtTimestamper::~PcAtTimestamper() {
  if (marker_cancel_) {
    marker_cancel_();
  }
}

uint16_t PcAtTimestamper::CounterAt(SimTime when) const {
  const int64_t ticks = when / config_.clock_tick;
  const int64_t mask = (int64_t{1} << config_.counter_bits) - 1;
  return static_cast<uint16_t>(ticks & mask);
}

void PcAtTimestamper::OnProbe(const ProbeEvent& event) {
  // The strobe is latched immediately; the loop notices it up to poll_latency_max later,
  // plus a handshake delay when the loop was busy shipping data to the second PC/AT.
  SimDuration delay = rng_.UniformDuration(0, config_.poll_latency_max);
  if (rng_.Chance(config_.handshake_busy_probability)) {
    delay += rng_.UniformDuration(0, config_.handshake_delay_max);
  }
  const uint8_t mask = static_cast<uint8_t>((1u << config_.seq_bits) - 1u);
  RecordAt(event.time + delay, /*is_marker=*/false, event.point,
           static_cast<uint8_t>(event.seq) & mask);
}

void PcAtTimestamper::RecordAt(SimTime when, bool is_marker, ProbePoint channel, uint8_t data7) {
  RawRecord rec;
  rec.counter = CounterAt(when);
  rec.is_marker = is_marker;
  rec.channel = channel;
  rec.data7 = data7;
  // Records land on the second machine's disk in observation order. Poll jitter can invert
  // two close events, so insert sorted from the tail (almost always a straight append).
  auto it = obs_times_.end();
  while (it != obs_times_.begin() && *(it - 1) > when) {
    --it;
  }
  const auto index = static_cast<size_t>(it - obs_times_.begin());
  obs_times_.insert(it, when);
  raw_.insert(raw_.begin() + static_cast<ptrdiff_t>(index), rec);
}

std::vector<ProbeEvent> PcAtTimestamper::DecodeRecords(const std::vector<RawRecord>& raw,
                                                       const Config& config) {
  std::vector<ProbeEvent> out;
  out.reserve(raw.size());
  const int64_t modulus = int64_t{1} << config.counter_bits;
  const uint32_t seq_mask = (1u << config.seq_bits) - 1u;
  int64_t epoch = 0;
  bool have_prev = false;
  uint16_t prev_counter = 0;
  // Per-channel last widened sequence number, indexed by ProbeIndex.
  std::array<std::optional<uint32_t>, kProbePointCount> last_seq;
  for (const RawRecord& rec : raw) {
    if (have_prev && rec.counter < prev_counter) {
      ++epoch;  // the counter rolled over; markers guarantee we never miss one
    }
    prev_counter = rec.counter;
    have_prev = true;
    if (rec.is_marker) {
      continue;
    }
    const SimTime when = (epoch * modulus + rec.counter) * config.clock_tick;
    std::optional<uint32_t>& last = last_seq[ProbeIndex(rec.channel)];
    uint32_t seq = rec.data7;
    if (last.has_value()) {
      const uint32_t delta = (rec.data7 - (*last & seq_mask)) & seq_mask;
      seq = *last + delta;
    }
    last = seq;
    out.push_back(ProbeEvent{rec.channel, seq, when});
  }
  return out;
}

// --- LogicAnalyzer ---------------------------------------------------------------------------

LogicAnalyzer::LogicAnalyzer(ProbeBus* bus, Config config) : config_(std::move(config)) {
  bus->Subscribe([this](const ProbeEvent& event) { OnProbe(event); });
}

void LogicAnalyzer::OnProbe(const ProbeEvent& event) {
  if (config_.channels.find(event.point) == config_.channels.end()) {
    return;
  }
  if (trace_.size() >= config_.depth) {
    return;  // trace memory exhausted
  }
  trace_.push_back(event);  // exact: the analyzer triggers on the edge itself
}

}  // namespace ctms
