// The 4 Mbit/s Token Ring medium.
//
// One frame occupies the ring at a time. Stations request transmission with an access
// priority; the medium grants the token in (priority, request order) — the 802.5
// priority/reservation mechanism reduced to its observable effect. Each grant charges token
// acquisition (base + per-station latency) plus wire time at the configured bit rate.
//
// The Active Monitor behaviour the paper depends on is modelled directly: a Ring Purge
// destroys any frame on the wire and briefly blocks the ring; a station insertion triggers a
// burst of back-to-back purges and a full token-claiming reset of 105-125 ms (the paper's
// two "exceptional data points" at 120-130 ms, section 5.3). Purge MAC frames are visible to
// monitors (TAP) and to adapters that opt into MAC-frame reception — which the paper's real
// adapter could not do, and neither does ours by default.

#ifndef SRC_RING_TOKEN_RING_H_
#define SRC_RING_TOKEN_RING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/ring/frame.h"
#include "src/sim/fifo.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace ctms {

class TokenRingAdapter;

// Outcome of a transmission attempt, reported to the sending adapter (and from there to the
// driver). One extensible enum instead of parallel bools so every fault mode the injection
// layer can produce has exactly one spelling; the transmitter reads it at interrupt level
// from the frame-status bits (same-ring acknowledgment), which is what CTMSP exploits
// instead of acks.
enum class TxStatus {
  kDelivered,       // destination copied the frame (or broadcast completed)
  kPurgeHit,        // a Ring Purge destroyed the frame on the wire
  kCorrupted,       // frame-check failure on the wire (fault injection); not delivered
  kAdapterStalled,  // the sending adapter was stalled (fault injection); never hit the wire
};

const char* TxStatusName(TxStatus status);

// True when the frame reached its destination.
inline bool Delivered(TxStatus status) { return status == TxStatus::kDelivered; }

// Defined at namespace scope (not nested) so the constructor's `Config config = {}` default
// argument is legal: a nested struct's default member initializers are only parsed once the
// enclosing class is complete, which would reject brace-init in a default argument.
struct TokenRingConfig {
  int64_t bits_per_second = 4'000'000;
  // Fixed cost of acquiring the token once the ring is free.
  SimDuration token_acquisition_base = Microseconds(20);
  // Added per attached station (each station's one-bit repeat latency and the like).
  SimDuration per_station_latency = Nanoseconds(250);
  // Ring blocked after a single purge before the token circulates again.
  SimDuration purge_recovery = Milliseconds(1);
  // Full reset after a station insertion (token claiming, neighbor notification).
  SimDuration insertion_reset_min = Milliseconds(100);
  SimDuration insertion_reset_max = Milliseconds(120);
  // Back-to-back purges observed during one insertion ("on the order of 10").
  int insertion_purges_min = 8;
  int insertion_purges_max = 12;
};

class TokenRing {
 public:
  using Config = TokenRingConfig;

  // The one constructor: a default-constructed Config is the paper's 4 Mbit ITC ring.
  explicit TokenRing(Simulation* sim, Config config = {});

  Simulation* sim() { return sim_; }
  const Config& config() const { return config_; }

  // --- membership -----------------------------------------------------------------------
  // Registers an adapter and returns its ring address (assigned sequentially from 1).
  RingAddress Attach(TokenRingAdapter* adapter);
  void Detach(RingAddress address);
  // Adds stations that occupy ring positions (latency) but never transmit; used to model
  // the 70-machine campus ring without simulating 70 hosts.
  void AddPassiveStations(int count) { passive_stations_ += count; }
  // Allocates an address for a traffic generator that transmits via RequestTransmit but has
  // no adapter to receive with (workload "ghost" stations).
  RingAddress AllocateGhostAddress() {
    ++passive_stations_;
    return next_address_++;
  }
  size_t station_count() const { return adapters_.size() + static_cast<size_t>(passive_stations_); }

  // --- transmission ---------------------------------------------------------------------
  // Queues `frame` for transmission. `on_complete` fires when the frame leaves the wire
  // (delivered or destroyed). Called by adapters only.
  void RequestTransmit(Frame frame, std::function<void(TxStatus)> on_complete);

  // --- ring events ----------------------------------------------------------------------
  void TriggerRingPurge();
  void TriggerStationInsertion();
  bool blocked() const { return sim_->Now() < blocked_until_; }

  // --- fault-injection hook -------------------------------------------------------------
  // Consulted once per LLC frame at end-of-wire, before delivery. Returning anything other
  // than kDelivered destroys the frame (a frame-check failure: the destination never copies
  // it, the sender's frame-status bits show it). Installed only by the fault injector; an
  // absent filter costs nothing, so no-fault runs are bit-identical to builds without it.
  using TxFaultFilter = std::function<TxStatus(const Frame&)>;
  void SetTxFaultFilter(TxFaultFilter filter) { tx_fault_filter_ = std::move(filter); }

  // --- observation ----------------------------------------------------------------------
  // Monitors see every frame that completes its trip around the ring, MAC frames included
  // (this is what the TAP tool attaches to).
  using FrameMonitor = std::function<void(const Frame&, SimTime end_of_wire)>;
  void AddFrameMonitor(FrameMonitor monitor) { monitors_.push_back(std::move(monitor)); }
  using PurgeMonitor = std::function<void(SimTime)>;
  void AddPurgeMonitor(PurgeMonitor monitor) { purge_monitors_.push_back(std::move(monitor)); }

  // --- timing helpers -------------------------------------------------------------------
  SimDuration WireTime(int64_t bytes) const;
  SimDuration TokenAcquisitionTime() const;

  // --- statistics -----------------------------------------------------------------------
  uint64_t frames_carried() const { return frames_carried_; }
  int64_t bytes_carried() const { return bytes_carried_; }
  uint64_t frames_lost_to_purge() const { return frames_lost_to_purge_; }
  uint64_t frames_corrupted() const { return frames_corrupted_; }
  uint64_t purge_count() const { return purge_count_; }
  uint64_t insertion_count() const { return insertion_count_; }
  // 802.5 priority machinery at work: transmit requests that were queued ahead of at least
  // one already-waiting lower-priority frame, and reservation stamps written into the frame
  // occupying the wire by a higher-priority waiter.
  uint64_t priority_preemptions() const { return priority_preemptions_; }
  uint64_t reservations() const { return reservations_; }
  // Fraction of simulated time so far that the wire was occupied.
  double Utilization() const;
  size_t pending_transmit_count() const { return pending_.size(); }

 private:
  struct PendingTx {
    Frame frame;
    std::function<void(TxStatus)> on_complete;
    uint64_t order = 0;  // for FIFO within a priority
  };

  // Starts the next transmission if the ring is free and something is queued.
  void ServeNext();
  void BeginTransmission(PendingTx tx);
  void FinishTransmission(TxStatus status);
  void DeliverFrame(const Frame& frame);
  void BroadcastMacFrame(MacFrameType type);
  void BlockUntil(SimTime when);

  Simulation* sim_;
  Config config_;

  std::map<RingAddress, TokenRingAdapter*> adapters_;
  RingAddress next_address_ = 1;
  int passive_stations_ = 0;

  Fifo<PendingTx> pending_;  // sorted: priority desc, then order asc
  uint64_t next_order_ = 0;
  uint64_t next_frame_id_ = 1;
  std::optional<PendingTx> in_flight_;
  EventId in_flight_event_ = kInvalidEventId;
  SimTime blocked_until_ = 0;
  bool serve_scheduled_ = false;

  std::vector<FrameMonitor> monitors_;
  std::vector<PurgeMonitor> purge_monitors_;
  TxFaultFilter tx_fault_filter_;

  uint64_t frames_carried_ = 0;
  int64_t bytes_carried_ = 0;
  uint64_t frames_lost_to_purge_ = 0;
  uint64_t frames_corrupted_ = 0;
  uint64_t purge_count_ = 0;
  uint64_t insertion_count_ = 0;
  uint64_t priority_preemptions_ = 0;
  uint64_t reservations_ = 0;
  SimDuration wire_busy_time_ = 0;

  // Cached telemetry slots (ring.*) and the ring's tracer track (token + frame spans,
  // purge/insertion instants).
  Counter* tx_requests_counter_;
  Counter* frames_carried_counter_;
  Counter* bytes_carried_counter_;
  Counter* frames_lost_counter_;
  Counter* frames_corrupted_counter_;
  Counter* purges_counter_;
  Counter* insertions_counter_;
  Counter* mac_frames_counter_;
  TrackId track_ = kInvalidTrackId;
  SimTime in_flight_wire_start_ = 0;  // end of token acquisition for the in-flight frame
};

}  // namespace ctms

#endif  // SRC_RING_TOKEN_RING_H_
