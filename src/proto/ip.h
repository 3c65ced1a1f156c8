// IP output/input processing.
//
// The paper's section-3 complaint is modelled literally: because IP assumes the network can
// be dynamically reconfigured, the output path performs a route lookup and asks the driver
// to recompute the Token Ring header for every single packet. That per-packet cost (plus ARP
// resolution) is what CTMSP's precomputed-header connection removes.

#ifndef SRC_PROTO_IP_H_
#define SRC_PROTO_IP_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/kern/unix_kernel.h"
#include "src/proto/arp.h"
#include "src/proto/netif.h"

namespace ctms {

class IpLayer {
 public:
  struct Config {
    // Route lookup + checksum + option walk on output, at splnet.
    SimDuration output_cost = Microseconds(250);
    // Reassembly/forwarding checks + demux on input.
    SimDuration input_cost = Microseconds(150);
    // Token Ring header recomputation requested from the driver, per packet.
    SimDuration header_recompute = Microseconds(180);
  };

  IpLayer(UnixKernel* kernel, NetIf* netif, ArpLayer* arp, Config config);
  IpLayer(UnixKernel* kernel, NetIf* netif, ArpLayer* arp)
      : IpLayer(kernel, netif, arp, Config{}) {}

  using Handler = std::function<void(const Packet&)>;
  void RegisterProtocol(uint8_t ip_proto, Handler handler);

  // Sends `packet` (fills protocol/src); resolves the destination through ARP first.
  void Output(Packet packet);

  // Driver input path for frames with ProtocolId::kIp (called after the mbuf copy).
  void Input(const Packet& packet);

  uint64_t packets_out() const { return packets_out_; }
  uint64_t packets_in() const { return packets_in_; }
  uint64_t no_route_drops() const { return no_route_drops_; }
  uint64_t no_proto_drops() const { return no_proto_drops_; }

 private:
  UnixKernel* kernel_;
  NetIf* netif_;
  ArpLayer* arp_;
  Config config_;
  Cpu::JobKind* output_kind_;
  Cpu::JobKind* input_kind_;
  std::map<uint8_t, Handler> handlers_;
  uint64_t packets_out_ = 0;
  uint64_t packets_in_ = 0;
  uint64_t no_route_drops_ = 0;
  uint64_t no_proto_drops_ = 0;
};

}  // namespace ctms

#endif  // SRC_PROTO_IP_H_
