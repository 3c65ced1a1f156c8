#include "src/proto/tcp_lite.h"

#include <iterator>
#include <utility>

namespace ctms {

TcpLite::TcpLite(UnixKernel* kernel, IpLayer* ip) : kernel_(kernel), ip_(ip) {
  ip_->RegisterProtocol(kIpProtoTcp, [this](const Packet& packet) {
    auto it = endpoints_.find(packet.port);
    if (it != endpoints_.end()) {
      it->second->Input(packet);
    }
  });
}

TcpLiteEndpoint* TcpLite::CreateEndpoint(TcpLiteEndpoint::Config config) {
  auto endpoint =
      std::unique_ptr<TcpLiteEndpoint>(new TcpLiteEndpoint(kernel_, ip_, config));
  TcpLiteEndpoint* raw = endpoint.get();
  endpoints_[config.local_port] = std::move(endpoint);
  return raw;
}

TcpLiteEndpoint::TcpLiteEndpoint(UnixKernel* kernel, IpLayer* ip, Config config)
    : kernel_(kernel),
      ip_(ip),
      config_(config),
      output_kind_(kernel->machine()->cpu().Kind("tcp-output")),
      input_kind_(kernel->machine()->cpu().Kind("tcp-input")),
      ack_kind_(kernel->machine()->cpu().Kind("tcp-ack")) {}

bool TcpLiteEndpoint::Send(int64_t bytes) {
  if (failed_) {
    return false;
  }
  if (static_cast<int64_t>(send_queue_.size()) >= config_.send_queue_limit) {
    ++send_queue_drops_;
    return false;
  }
  send_queue_.push_back(bytes);
  TrySendWindow();
  return true;
}

void TcpLiteEndpoint::TrySendWindow() {
  while (!send_queue_.empty() &&
         static_cast<int>(unacked_.size()) < config_.window_packets) {
    const int64_t bytes = send_queue_.front();
    send_queue_.pop_front();
    const uint32_t seq = next_seq_++;
    unacked_[seq] = bytes;
    TransmitSegment(seq, bytes, /*retransmission=*/false);
  }
}

void TcpLiteEndpoint::TransmitSegment(uint32_t seq, int64_t bytes, bool retransmission) {
  if (retransmission) {
    ++retransmits_;
  } else {
    ++segments_sent_;
  }
  kernel_->machine()->cpu().SubmitInterrupt(
      output_kind_, Spl::kNet, config_.segment_cost, [this, seq, bytes]() {
        Packet segment;
        segment.ip_proto = kIpProtoTcp;
        segment.bytes = bytes;
        segment.seq = seq;
        segment.dst = config_.remote;
        segment.port = config_.remote_port;
        segment.created_at = kernel_->sim()->Now();
        ip_->Output(segment);
      });
  ArmTimer();
}

void TcpLiteEndpoint::ArmTimer() {
  if (rto_event_ != kInvalidEventId) {
    return;  // already armed for the oldest unacked segment
  }
  rto_event_ = kernel_->sim()->After(config_.rto, [this]() {
    rto_event_ = kInvalidEventId;
    OnTimeout();
  });
}

void TcpLiteEndpoint::OnTimeout() {
  if (unacked_.empty() || failed_) {
    return;
  }
  if (++timeouts_in_a_row_ > config_.max_retransmits) {
    failed_ = true;
    return;
  }
  // Go-back-N: retransmit the oldest unacked segment.
  const auto& [seq, bytes] = *unacked_.begin();
  TransmitSegment(seq, bytes, /*retransmission=*/true);
}

void TcpLiteEndpoint::Input(const Packet& packet) {
  kernel_->machine()->cpu().SubmitInterrupt(input_kind_, Spl::kNet, config_.input_cost,
                                            [this, packet]() {
    if (packet.is_ack) {
      HandleAck(packet.ack_seq);
    } else {
      HandleData(packet);
    }
  });
}

void TcpLiteEndpoint::HandleAck(uint32_t ack_seq) {
  bool advanced = false;
  while (!unacked_.empty() && unacked_.begin()->first <= ack_seq) {
    unacked_.erase(unacked_.begin());
    advanced = true;
  }
  if (advanced) {
    timeouts_in_a_row_ = 0;
    if (rto_event_ != kInvalidEventId) {
      kernel_->sim()->Cancel(rto_event_);
      rto_event_ = kInvalidEventId;
    }
    if (!unacked_.empty()) {
      ArmTimer();
    }
    TrySendWindow();
  }
}

void TcpLiteEndpoint::HandleData(const Packet& packet) {
  if (packet.seq < expected_seq_) {
    // Duplicate (e.g. a retransmission that crossed our ack); re-ack.
    SendAck();
    return;
  }
  if (packet.seq > expected_seq_) {
    if (reorder_.size() >= static_cast<size_t>(config_.reorder_limit) &&
        reorder_.find(packet.seq) == reorder_.end()) {
      // Buffer full: keep the segments closest to the resequencing point and drop the
      // farthest one — go-back-N retransmits it last anyway. The drop is counted so a
      // loss-storm's memory cap is visible in the stats, not silent.
      auto last = std::prev(reorder_.end());
      if (packet.seq < last->first) {
        reorder_.erase(last);
        reorder_.emplace(packet.seq, packet);
      }
      ++reorder_drops_;
    } else {
      reorder_.emplace(packet.seq, packet);
    }
    SendAck();  // duplicate cumulative ack signals the gap
    return;
  }
  ++delivered_;
  if (deliver_) {
    deliver_(packet);
  }
  ++expected_seq_;
  auto it = reorder_.begin();
  while (it != reorder_.end() && it->first == expected_seq_) {
    ++delivered_;
    if (deliver_) {
      deliver_(it->second);
    }
    ++expected_seq_;
    it = reorder_.erase(it);
  }
  SendAck();
}

void TcpLiteEndpoint::SendAck() {
  ++acks_sent_;
  kernel_->machine()->cpu().SubmitInterrupt(ack_kind_, Spl::kNet, config_.ack_cost, [this]() {
    Packet ack;
    ack.ip_proto = kIpProtoTcp;
    ack.bytes = config_.ack_bytes;
    ack.is_ack = true;
    ack.ack_seq = expected_seq_ - 1;
    ack.dst = config_.remote;
    ack.port = config_.remote_port;
    ack.created_at = kernel_->sim()->Now();
    ip_->Output(ack);
  });
}

}  // namespace ctms
