// Traffic that terminates at (or originates from) the instrumented hosts.
//
// Test Case B's control harness talks to every test machine over UNIX sockets ("socket keep
// alive packets ... an artifact of the test set up"), and the hosts are AFS clients sending
// their own keep-alives. Both make the host's Token Ring driver transmit ordinary IP packets
// that a CTMSP packet can get queued behind — the interaction the paper blames for Figure
// 5-2's second peak.

#ifndef SRC_WORKLOAD_HOST_SERVICE_H_
#define SRC_WORKLOAD_HOST_SERVICE_H_

#include <cstdint>
#include <functional>

#include "src/kern/unix_kernel.h"
#include "src/proto/udp.h"
#include "src/sim/rng.h"

namespace ctms {

// Replies to control-connection requests arriving on a UDP port, through a user process
// (context switch + process work + a UDP send).
class ControlServiceProcess {
 public:
  struct Config {
    uint16_t port = 5000;
    SimDuration context_switch = Microseconds(400);
    SimDuration process_cost = Microseconds(800);
    int64_t reply_min_bytes = 100;
    int64_t reply_max_bytes = 300;
  };

  ControlServiceProcess(UnixKernel* kernel, UdpLayer* udp, Rng rng, Config config);
  ControlServiceProcess(UnixKernel* kernel, UdpLayer* udp, Rng rng)
      : ControlServiceProcess(kernel, udp, std::move(rng), Config{}) {}

  uint64_t requests() const { return requests_; }
  uint64_t replies() const { return replies_; }

 private:
  void OnRequest(const Packet& request);

  UnixKernel* kernel_;
  UdpLayer* udp_;
  Rng rng_;
  Config config_;
  Cpu::JobKind* kind_;
  uint64_t requests_ = 0;
  uint64_t replies_ = 0;
};

// Host-originated periodic small sends (AFS client keep-alives to a file server).
class AfsClientDaemon {
 public:
  struct Config {
    SimDuration mean_interval = Milliseconds(1500);
    int64_t min_bytes = 60;
    int64_t max_bytes = 300;
    uint16_t port = 7000;
    RingAddress server = 0;
    SimDuration process_cost = Microseconds(500);
  };

  AfsClientDaemon(UnixKernel* kernel, UdpLayer* udp, Rng rng, Config config);
  ~AfsClientDaemon();

  void Start();
  void Stop();
  uint64_t keepalives_sent() const { return keepalives_sent_; }

 private:
  void ScheduleNext();

  UnixKernel* kernel_;
  UdpLayer* udp_;
  Rng rng_;
  Config config_;
  Cpu::JobKind* kind_;
  EventId next_event_ = kInvalidEventId;
  bool running_ = false;
  uint64_t keepalives_sent_ = 0;
};

}  // namespace ctms

#endif  // SRC_WORKLOAD_HOST_SERVICE_H_
