// Bounded kernel packet queues (struct ifqueue in 4.3BSD).
//
// Every queue between layers is length-limited (IFQ_MAXLEN = 50 in 4.3BSD); an enqueue to a
// full queue drops the packet silently. Under CPU saturation this is exactly where the stock
// path loses continuous-media packets.

#ifndef SRC_KERN_IFQUEUE_H_
#define SRC_KERN_IFQUEUE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/kern/packet.h"
#include "src/sim/fifo.h"
#include "src/telemetry/journey.h"
#include "src/telemetry/metrics.h"

namespace ctms {

class Simulation;

inline constexpr int kIfqMaxlenDefault = 50;

class IfQueue {
 public:
  explicit IfQueue(std::string name, int maxlen = kIfqMaxlenDefault)
      : name_(std::move(name)), maxlen_(maxlen) {}

  // Returns false (and counts a drop) if the queue is full.
  bool Enqueue(const Packet& packet);
  std::optional<Packet> Dequeue();
  // Enqueue at the head — used by drivers that must retry the packet they just dequeued.
  // A retry cannot grow a bounded queue: if the queue is already at maxlen (fresh arrivals
  // filled the slot the retry vacated), the packet is dropped with the same accounting as a
  // full Enqueue and Requeue returns false. See PROTOCOL.md §2.4.1.
  bool Requeue(const Packet& packet);

  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }
  int maxlen() const { return maxlen_; }
  uint64_t drops() const { return drops_; }
  uint64_t enqueued_total() const { return enqueued_total_; }
  uint64_t requeues() const { return requeues_; }
  size_t peak_depth() const { return peak_depth_; }
  const std::string& name() const { return name_; }

  // IfQueue has no Simulation*; the owning driver wires registry slots in after
  // construction (kern.<machine>.ifq.<queue>.{enqueues,drops,requeues}). Any may be null.
  // The depth gauge tracks live occupancy; its high-watermark is exported as `.depth.peak`.
  void BindTelemetry(Counter* enqueues, Counter* drops, Counter* requeues = nullptr,
                     Gauge* depth = nullptr) {
    enqueues_counter_ = enqueues;
    drops_counter_ = drops;
    requeues_counter_ = requeues;
    depth_gauge_ = depth;
  }

  // Wires the packet-lifecycle recorder (and the clock it stamps from) so enqueue/dequeue
  // boundaries and overflow drops land in each packet's journey. Both may be null.
  void BindJourneys(JourneyRecorder* journeys, const Simulation* sim) {
    journeys_ = journeys;
    sim_ = sim;
  }

 private:
  void UpdateDepthGauge();

  std::string name_;
  int maxlen_;
  Fifo<Packet> queue_;
  uint64_t drops_ = 0;
  uint64_t enqueued_total_ = 0;
  uint64_t requeues_ = 0;
  size_t peak_depth_ = 0;
  Counter* enqueues_counter_ = nullptr;
  Counter* drops_counter_ = nullptr;
  Counter* requeues_counter_ = nullptr;
  Gauge* depth_gauge_ = nullptr;
  JourneyRecorder* journeys_ = nullptr;
  const Simulation* sim_ = nullptr;
};

}  // namespace ctms

#endif  // SRC_KERN_IFQUEUE_H_
