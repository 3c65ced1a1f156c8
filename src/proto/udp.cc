#include "src/proto/udp.h"

#include <utility>

namespace ctms {

UdpLayer::UdpLayer(UnixKernel* kernel, IpLayer* ip, Config config)
    : kernel_(kernel),
      ip_(ip),
      config_(config),
      output_kind_(kernel->machine()->cpu().Kind("udp-output")),
      input_kind_(kernel->machine()->cpu().Kind("udp-input")) {
  ip_->RegisterProtocol(kIpProtoUdp, [this](const Packet& packet) { Input(packet); });
}

void UdpLayer::Bind(uint16_t port, Handler handler) { sockets_[port] = std::move(handler); }

void UdpLayer::Output(Packet packet) {
  packet.ip_proto = kIpProtoUdp;
  kernel_->machine()->cpu().SubmitInterrupt(output_kind_, Spl::kNet, config_.output_cost,
                                            [this, packet]() {
    ++datagrams_out_;
    ip_->Output(packet);
  });
}

void UdpLayer::Input(const Packet& packet) {
  kernel_->machine()->cpu().SubmitInterrupt(input_kind_, Spl::kNet, config_.input_cost,
                                            [this, packet]() {
    auto it = sockets_.find(packet.port);
    if (it == sockets_.end()) {
      ++no_port_drops_;
      return;
    }
    ++datagrams_in_;
    it->second(packet);
  });
}

}  // namespace ctms
