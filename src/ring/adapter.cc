#include "src/ring/adapter.h"

#include <utility>

namespace ctms {

TokenRingAdapter::TokenRingAdapter(Machine* machine, TokenRing* ring, Config config)
    : machine_(machine),
      ring_(ring),
      config_(config),
      tx_dma_(machine->sim(), machine->name() + ".tr-tx-dma", &machine->cpu(), &machine->copies()),
      rx_dma_(machine->sim(), machine->name() + ".tr-rx-dma", &machine->cpu(), &machine->copies()),
      free_host_rx_buffers_(config.host_rx_buffers) {
  address_ = ring->Attach(this);
  const std::string prefix = "adapter." + machine->name() + ".";
  MetricsRegistry& metrics = machine->sim()->telemetry().metrics;
  frames_transmitted_counter_ = metrics.GetCounter(prefix + "frames_transmitted");
  frames_received_counter_ = metrics.GetCounter(prefix + "frames_received");
  rx_overruns_counter_ = metrics.GetCounter(prefix + "rx_overruns");
  mac_frames_seen_counter_ = metrics.GetCounter(prefix + "mac_frames_seen");
  onboard_rx_depth_gauge_ = metrics.GetGauge(prefix + "onboard_rx.depth");
}

bool TokenRingAdapter::IssueTransmit(Frame frame, std::function<void(TxStatus)> on_complete) {
  if (tx_busy_) {
    return false;
  }
  tx_busy_ = true;
  tx_on_complete_ = std::move(on_complete);
  if (tx_stalled()) {
    // Card firmware is wedged (fault injection): the transmit command is accepted but the
    // frame never reaches the wire; the transmit-complete interrupt reports the failure.
    ++tx_stall_rejects_;
    machine_->sim()->After(0, [this, journey = frame.journey]() {
      machine_->sim()->telemetry().journeys.Abort(journey, JourneyAnomaly::kDrop,
                                                  machine_->sim()->Now());
      OnTxDone(TxStatus::kAdapterStalled);
    });
    return true;
  }
  frame.src = address_;
  if (frame.kind == FrameKind::kLlc && frame.priority < access_priority_floor_) {
    frame.priority = access_priority_floor_;
  }
  // Card DMA pulls the packet out of the host fixed DMA buffer, then the wire transmission
  // is requested. Completion (and the destination's copy acknowledgment) arrives at
  // hardware-interrupt time via on_complete.
  tx_frame_ = std::move(frame);
  tx_dma_.Transfer(tx_frame_.payload_bytes, config_.dma_buffer_kind, [this]() { OnTxDmaDone(); });
  return true;
}

void TokenRingAdapter::OnTxDmaDone() {
  machine_->sim()->telemetry().journeys.Stamp(tx_frame_.journey, JourneyStage::kAdapterDma,
                                              machine_->sim()->Now());
  ring_->RequestTransmit(std::move(tx_frame_), [this](TxStatus status) { OnTxDone(status); });
}

void TokenRingAdapter::OnTxDone(TxStatus status) {
  tx_busy_ = false;
  if (Delivered(status)) {
    ++frames_transmitted_;
    frames_transmitted_counter_->Increment();
  }
  // Taken out first: the completion may issue the next transmit.
  std::function<void(TxStatus)> on_complete = std::move(tx_on_complete_);
  tx_on_complete_ = nullptr;
  if (on_complete) {
    on_complete(status);
  }
}

void TokenRingAdapter::InjectTxStall(SimDuration duration) {
  const SimTime until = machine_->sim()->Now() + duration;
  if (until > tx_stalled_until_) {
    tx_stalled_until_ = until;
  }
}

void TokenRingAdapter::InjectRxStall(SimDuration duration) {
  const SimTime until = machine_->sim()->Now() + duration;
  if (until > rx_stalled_until_) {
    rx_stalled_until_ = until;
  }
  if (!rx_resume_scheduled_) {
    rx_resume_scheduled_ = true;
    machine_->sim()->At(rx_stalled_until_, [this]() {
      rx_resume_scheduled_ = false;
      if (rx_stalled()) {  // the stall was extended meanwhile
        InjectRxStall(rx_stalled_until_ - machine_->sim()->Now());
        return;
      }
      TryStartRxDma();
    });
  }
}

void TokenRingAdapter::OnFrameOnWire(const Frame& frame) {
  if (frame.kind == FrameKind::kMac) {
    ++mac_frames_seen_;
    mac_frames_seen_counter_->Increment();
    if (config_.receive_mac_frames && mac_handler_) {
      mac_handler_(frame);
    }
    return;
  }
  if (static_cast<int>(onboard_rx_.size()) >= config_.onboard_rx_slots) {
    ++rx_overruns_;
    rx_overruns_counter_->Increment();
    machine_->sim()->telemetry().journeys.Abort(frame.journey, JourneyAnomaly::kDrop,
                                                machine_->sim()->Now());
    return;
  }
  onboard_rx_.push_back(frame);
  onboard_rx_depth_gauge_->Set(static_cast<int64_t>(onboard_rx_.size()));
  TryStartRxDma();
}

void TokenRingAdapter::TryStartRxDma() {
  if (rx_dma_active_ || onboard_rx_.empty() || free_host_rx_buffers_ == 0 || rx_stalled()) {
    return;
  }
  rx_dma_active_ = true;
  --free_host_rx_buffers_;
  const SimDuration jitter =
      config_.rx_processing_jitter > 0
          ? machine_->sim()->rng().UniformDuration(0, config_.rx_processing_jitter)
          : 0;
  machine_->sim()->After(jitter, [this]() {
    rx_dma_.Transfer(onboard_rx_.front().payload_bytes, config_.dma_buffer_kind, [this]() {
      Frame done = onboard_rx_.take_front();
      onboard_rx_depth_gauge_->Set(static_cast<int64_t>(onboard_rx_.size()));
      rx_dma_active_ = false;
      ++frames_received_;
      frames_received_counter_->Increment();
      if (rx_handler_) {
        rx_handler_(done);
      }
      TryStartRxDma();
    });
  });
}

void TokenRingAdapter::ReleaseRxBuffer() {
  ++free_host_rx_buffers_;
  TryStartRxDma();
}

}  // namespace ctms
