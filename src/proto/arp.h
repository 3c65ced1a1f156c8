// ARP: address resolution on the ring, plus the background chatter the paper's Test Case B
// histograms attribute partly to "ARP traffic".
//
// Addressing is deliberately flat — a host's protocol address equals its ring address — so
// resolution is about the protocol mechanics (request/reply round trip, the one-deep pending
// queue of 4.3BSD, retries, cache expiry), which is what affects timing.

#ifndef SRC_PROTO_ARP_H_
#define SRC_PROTO_ARP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/kern/unix_kernel.h"
#include "src/proto/netif.h"

namespace ctms {

class ArpLayer {
 public:
  struct Config {
    SimDuration process_cost = Microseconds(120);  // per ARP packet, at splnet
    SimDuration request_retry = Seconds(1);
    int max_retries = 3;
    int64_t packet_bytes = 60;  // ARP frames are ~60 bytes on the wire (section 5.3)
  };

  ArpLayer(UnixKernel* kernel, NetIf* netif, Config config);
  ArpLayer(UnixKernel* kernel, NetIf* netif) : ArpLayer(kernel, netif, Config{}) {}

  // Resolves `dst`; `on_done(true)` once resolved (immediately if cached), `on_done(false)`
  // after retries are exhausted. While a resolution is pending, further Resolve calls for
  // the same destination just add callbacks.
  void Resolve(RingAddress dst, std::function<void(bool)> on_done);

  // Pre-populates the cache (the static point-to-point setup CTMSP assumes).
  void InstallStatic(RingAddress dst) { cache_[dst] = true; }
  bool IsCached(RingAddress dst) const { return cache_.count(dst) > 0; }

  // Driver input path for frames with ProtocolId::kArp.
  void Input(const Packet& packet);

  uint64_t requests_sent() const { return requests_sent_; }
  uint64_t replies_sent() const { return replies_sent_; }
  uint64_t failures() const { return failures_; }

 private:
  struct PendingEntry {
    std::vector<std::function<void(bool)>> callbacks;
    int retries = 0;
    EventId retry_event = kInvalidEventId;
  };

  void SendRequest(RingAddress dst);
  void OnRetryTimer(RingAddress dst);

  UnixKernel* kernel_;
  NetIf* netif_;
  Config config_;
  Cpu::JobKind* input_kind_;
  std::map<RingAddress, bool> cache_;
  std::map<RingAddress, PendingEntry> pending_;
  uint64_t requests_sent_ = 0;
  uint64_t replies_sent_ = 0;
  uint64_t failures_ = 0;
};

}  // namespace ctms

#endif  // SRC_PROTO_ARP_H_
