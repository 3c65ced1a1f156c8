#include "src/kern/ifqueue.h"

#include "src/sim/simulation.h"

namespace ctms {

void IfQueue::UpdateDepthGauge() {
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
  }
}

bool IfQueue::Enqueue(const Packet& packet) {
  if (static_cast<int>(queue_.size()) >= maxlen_) {
    ++drops_;
    if (drops_counter_ != nullptr) {
      drops_counter_->Increment();
    }
    if (journeys_ != nullptr && sim_ != nullptr) {
      journeys_->Abort(packet.journey, JourneyAnomaly::kDrop, sim_->Now());
    }
    return false;
  }
  queue_.push_back(packet);
  ++enqueued_total_;
  if (enqueues_counter_ != nullptr) {
    enqueues_counter_->Increment();
  }
  if (journeys_ != nullptr && sim_ != nullptr) {
    journeys_->Stamp(packet.journey, JourneyStage::kIfqEnqueue, sim_->Now());
  }
  if (queue_.size() > peak_depth_) {
    peak_depth_ = queue_.size();
  }
  UpdateDepthGauge();
  return true;
}

std::optional<Packet> IfQueue::Dequeue() {
  if (queue_.empty()) {
    return std::nullopt;
  }
  Packet packet = queue_.take_front();
  if (journeys_ != nullptr && sim_ != nullptr) {
    journeys_->Stamp(packet.journey, JourneyStage::kIfqDequeue, sim_->Now());
  }
  UpdateDepthGauge();
  return packet;
}

bool IfQueue::Requeue(const Packet& packet) {
  if (static_cast<int>(queue_.size()) >= maxlen_) {
    ++drops_;
    if (drops_counter_ != nullptr) {
      drops_counter_->Increment();
    }
    if (journeys_ != nullptr && sim_ != nullptr) {
      journeys_->Abort(packet.journey, JourneyAnomaly::kDrop, sim_->Now());
    }
    return false;
  }
  queue_.push_front(packet);
  ++requeues_;
  if (requeues_counter_ != nullptr) {
    requeues_counter_->Increment();
  }
  if (queue_.size() > peak_depth_) {
    peak_depth_ = queue_.size();
  }
  UpdateDepthGauge();
  return true;
}

}  // namespace ctms
