#include "src/proto/arp.h"

#include <utility>

namespace ctms {

namespace {
// seq values distinguishing ARP requests from replies in the packet descriptor.
constexpr uint32_t kArpRequest = 1;
constexpr uint32_t kArpReply = 2;
}  // namespace

ArpLayer::ArpLayer(UnixKernel* kernel, NetIf* netif, Config config)
    : kernel_(kernel),
      netif_(netif),
      config_(config),
      input_kind_(kernel->machine()->cpu().Kind("arp-input")) {}

void ArpLayer::Resolve(RingAddress dst, std::function<void(bool)> on_done) {
  if (cache_.count(dst) > 0) {
    on_done(true);
    return;
  }
  PendingEntry& entry = pending_[dst];
  entry.callbacks.push_back(std::move(on_done));
  if (entry.callbacks.size() == 1) {
    SendRequest(dst);
    entry.retry_event = kernel_->sim()->After(config_.request_retry,
                                              [this, dst]() { OnRetryTimer(dst); });
  }
}

void ArpLayer::SendRequest(RingAddress dst) {
  ++requests_sent_;
  Packet request;
  request.protocol = ProtocolId::kArp;
  request.bytes = config_.packet_bytes;
  request.seq = kArpRequest;
  request.src = netif_->address();
  request.dst = kBroadcastAddress;
  request.port = dst;  // who-has: the sought address rides in the demux field
  request.created_at = kernel_->sim()->Now();
  netif_->Output(request);
}

void ArpLayer::OnRetryTimer(RingAddress dst) {
  auto it = pending_.find(dst);
  if (it == pending_.end()) {
    return;
  }
  PendingEntry& entry = it->second;
  if (++entry.retries >= config_.max_retries) {
    ++failures_;
    auto callbacks = std::move(entry.callbacks);
    pending_.erase(it);
    for (auto& cb : callbacks) {
      cb(false);
    }
    return;
  }
  SendRequest(dst);
  entry.retry_event =
      kernel_->sim()->After(config_.request_retry, [this, dst]() { OnRetryTimer(dst); });
}

void ArpLayer::Input(const Packet& packet) {
  // Charge protocol processing at splnet, then act.
  kernel_->machine()->cpu().SubmitInterrupt(input_kind_, Spl::kNet, config_.process_cost,
                                            [this, packet]() {
    if (packet.seq == kArpRequest) {
      // Learn the requester opportunistically (as real ARP does), and reply if we are the
      // target.
      cache_[packet.src] = true;
      if (packet.port == netif_->address()) {
        ++replies_sent_;
        Packet reply;
        reply.protocol = ProtocolId::kArp;
        reply.bytes = config_.packet_bytes;
        reply.seq = kArpReply;
        reply.src = netif_->address();
        reply.dst = packet.src;
        reply.created_at = kernel_->sim()->Now();
        netif_->Output(reply);
      }
      return;
    }
    // A reply: cache the answer and release any waiting callbacks.
    cache_[packet.src] = true;
    auto it = pending_.find(packet.src);
    if (it != pending_.end()) {
      if (it->second.retry_event != kInvalidEventId) {
        kernel_->sim()->Cancel(it->second.retry_event);
      }
      auto callbacks = std::move(it->second.callbacks);
      pending_.erase(it);
      for (auto& cb : callbacks) {
        cb(true);
      }
    }
  });
}

}  // namespace ctms
