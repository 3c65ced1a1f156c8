#include "src/proto/ip.h"

#include <utility>

namespace ctms {

IpLayer::IpLayer(UnixKernel* kernel, NetIf* netif, ArpLayer* arp, Config config)
    : kernel_(kernel),
      netif_(netif),
      arp_(arp),
      config_(config),
      output_kind_(kernel->machine()->cpu().Kind("ip-output")),
      input_kind_(kernel->machine()->cpu().Kind("ip-input")) {}

void IpLayer::RegisterProtocol(uint8_t ip_proto, Handler handler) {
  handlers_[ip_proto] = std::move(handler);
}

void IpLayer::Output(Packet packet) {
  packet.protocol = ProtocolId::kIp;
  packet.src = netif_->address();
  // ip_output: route lookup and header work, then per-packet Token Ring header
  // recomputation in the driver — both at splnet.
  const SimDuration cost = config_.output_cost + config_.header_recompute;
  kernel_->machine()->cpu().SubmitInterrupt(output_kind_, Spl::kNet, cost, [this, packet]() {
    arp_->Resolve(packet.dst, [this, packet](bool ok) {
      if (!ok) {
        ++no_route_drops_;
        return;
      }
      ++packets_out_;
      netif_->Output(packet);
    });
  });
}

void IpLayer::Input(const Packet& packet) {
  kernel_->machine()->cpu().SubmitInterrupt(input_kind_, Spl::kNet, config_.input_cost,
                                            [this, packet]() {
    ++packets_in_;
    auto it = handlers_.find(packet.ip_proto);
    if (it == handlers_.end()) {
      ++no_proto_drops_;
      return;
    }
    it->second(packet);
  });
}

}  // namespace ctms
