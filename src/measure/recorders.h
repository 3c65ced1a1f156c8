// The measurement instruments of section 5.2, each with the error model the paper derives
// for it.
//
//   - GroundTruthRecorder: perfect observation (the simulator's privilege; the paper had no
//     such tool, which is why section 5.2 exists).
//   - RtPcPseudoDevice: the in-kernel pseudo-device driver of 5.2.1 — 122 us clock
//     granularity, plus either delaying other measurement points (interrupts disabled) or
//     suffering timestamp error when an interrupt lands mid-recording (interrupts enabled).
//   - PcAtTimestamper: the external PC/AT rig of 5.2.3 — a polling interrupt-handler loop
//     with a 2 us, 16-bit clock, a 50 Hz marker channel for rollover recovery, up to 60 us
//     of poll-loop latency, and only the low 7 bits of the packet number on the wire.
//     Decoding reconstructs absolute times and full sequence numbers exactly as the paper's
//     offline analysis programs did.
//   - LogicAnalyzer: the 5.2.2 instrument — exact edge times, but few channels and a finite
//     trace depth, and unable to build full histograms in 1991 (ours can, but the channel
//     and depth limits are kept so the comparison bench can show why the PC/AT rig won).

#ifndef SRC_MEASURE_RECORDERS_H_
#define SRC_MEASURE_RECORDERS_H_

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "src/measure/probe.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace ctms {

// ---------------------------------------------------------------------------------------
class GroundTruthRecorder {
 public:
  explicit GroundTruthRecorder(ProbeBus* bus);
  const std::vector<ProbeEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

 private:
  std::vector<ProbeEvent> events_;
};

// ---------------------------------------------------------------------------------------
class RtPcPseudoDevice {
 public:
  struct Config {
    SimDuration clock_granularity = Microseconds(122);
    // True: the recording procedure runs with interrupts disabled — timestamps are clean
    // but other measurement points can be delayed (the intrusion is charged by the caller
    // via ProbeBus::set_inline_cost). False: interrupts stay enabled and a concurrent
    // interrupt can corrupt the timestamp.
    bool interrupts_disabled = true;
    double corruption_probability = 0.05;       // only when interrupts enabled
    SimDuration corruption_max = Microseconds(400);
    size_t buffer_capacity = 1 << 16;            // kernel buffer read out via ioctl
  };

  RtPcPseudoDevice(ProbeBus* bus, Rng rng, Config config);
  RtPcPseudoDevice(ProbeBus* bus, Rng rng) : RtPcPseudoDevice(bus, std::move(rng), Config{}) {}

  // The software can only see points 2-4; the IRQ line (point 1) is invisible to it.
  const std::vector<ProbeEvent>& events() const { return events_; }
  size_t overflow_dropped() const { return overflow_dropped_; }

 private:
  void OnProbe(const ProbeEvent& event);

  Config config_;
  Rng rng_;
  std::vector<ProbeEvent> events_;
  size_t overflow_dropped_ = 0;
};

// ---------------------------------------------------------------------------------------
class PcAtTimestamper {
 public:
  struct Config {
    SimDuration clock_tick = Microseconds(2);
    int counter_bits = 16;
    SimDuration marker_period = Milliseconds(20);  // the 50 Hz rollover marker
    SimDuration poll_latency_max = Microseconds(60);
    // Extra delay when the loop is mid-handshake shipping queued data to the second PC/AT.
    double handshake_busy_probability = 0.3;
    SimDuration handshake_delay_max = Microseconds(60);
    int seq_bits = 7;  // "the last 7 bits of the packet number" on the parallel port
  };

  // Raw record as stored on the second PC/AT's disk.
  struct RawRecord {
    uint16_t counter = 0;   // 16-bit 2-us clock at poll time
    bool is_marker = false; // the 50 Hz channel (channel eight)
    ProbePoint channel = ProbePoint::kVcaIrq;
    uint8_t data7 = 0;      // low bits of the packet number
  };

  // `sim` is needed to schedule the 50 Hz marker; pass nullptr to disable markers (tests).
  PcAtTimestamper(ProbeBus* bus, Simulation* sim, Rng rng, Config config);
  PcAtTimestamper(ProbeBus* bus, Simulation* sim, Rng rng)
      : PcAtTimestamper(bus, sim, std::move(rng), Config{}) {}
  ~PcAtTimestamper();

  const std::vector<RawRecord>& raw_records() const { return raw_; }

  // Offline analysis: reconstructs absolute event times (rollover recovery via markers and
  // record ordering) and widens 7-bit packet numbers to full sequence numbers.
  std::vector<ProbeEvent> Decode() const { return DecodeRecords(raw_, config_); }
  // The same analysis over any rig's records, e.g. ones read back from its disk.
  static std::vector<ProbeEvent> DecodeRecords(const std::vector<RawRecord>& raw,
                                               const Config& config);

 private:
  void OnProbe(const ProbeEvent& event);
  void RecordAt(SimTime when, bool is_marker, ProbePoint channel, uint8_t data7);
  uint16_t CounterAt(SimTime when) const;

  Config config_;
  Rng rng_;
  Simulation* sim_;
  std::function<void()> marker_cancel_;
  std::vector<RawRecord> raw_;
  // Observation instants parallel to raw_, used only to keep disk order equal to
  // observation order (poll jitter can invert two close events); never used by Decode.
  std::vector<SimTime> obs_times_;
};

// ---------------------------------------------------------------------------------------
class LogicAnalyzer {
 public:
  struct Config {
    std::set<ProbePoint> channels;  // at most a couple in practice
    size_t depth = 4096;            // trace memory
  };

  LogicAnalyzer(ProbeBus* bus, Config config);

  const std::vector<ProbeEvent>& trace() const { return trace_; }
  bool full() const { return trace_.size() >= config_.depth; }

 private:
  void OnProbe(const ProbeEvent& event);

  Config config_;
  std::vector<ProbeEvent> trace_;
};

}  // namespace ctms

#endif  // SRC_MEASURE_RECORDERS_H_
