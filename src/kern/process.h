// User-process models.
//
// RelayProcess is the stock UNIX data path the paper's section 2 criticizes: a user-level
// process that read()s from one device/socket and write()s to another, paying a syscall plus
// a kernel<->user CPU copy in each direction, scheduled at base level where every interrupt
// preempts it. CompetingProcess models unrelated timesharing load ("multiprocessing mode").

#ifndef SRC_KERN_PROCESS_H_
#define SRC_KERN_PROCESS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/kern/packet.h"
#include "src/kern/unix_kernel.h"
#include "src/sim/fifo.h"
#include "src/sim/time.h"

namespace ctms {

struct ProcessTimings {
  SimDuration syscall = Microseconds(150);         // trap + validation, each direction
  SimDuration context_switch = Microseconds(400);  // wakeup -> running
};

// A user process relaying packets: sleeps until data arrives, then loops
// read -> copyout -> write -> copyin -> forward until its input queue drains.
class RelayProcess {
 public:
  struct Config {
    ProcessTimings timings;
    // Socket receive-buffer limit; deliveries beyond this are dropped (ENOBUFS).
    int64_t rcv_buffer_bytes = 16 * 1024;
  };

  // `forward` runs in process context at the end of the write() path; it should charge any
  // further kernel costs itself (e.g. hand the packet to UDP/IP).
  RelayProcess(UnixKernel* kernel, std::string name, Config config,
               std::function<void(const Packet&)> forward);

  // Kernel-side delivery into the process's socket receive queue (interrupt context).
  void Deliver(const Packet& packet);

  uint64_t delivered() const { return delivered_; }
  uint64_t forwarded() const { return forwarded_; }
  uint64_t dropped_rcvbuf() const { return dropped_rcvbuf_; }
  int64_t queued_bytes() const { return queued_bytes_; }
  int64_t peak_queued_bytes() const { return peak_queued_bytes_; }

 private:
  void RunIteration(bool just_woken);

  UnixKernel* kernel_;
  Cpu::JobKind* kind_;  // named after the process
  Config config_;
  std::function<void(const Packet&)> forward_;

  Fifo<Packet> queue_;
  int64_t queued_bytes_ = 0;
  int64_t peak_queued_bytes_ = 0;
  bool running_ = false;

  uint64_t delivered_ = 0;
  uint64_t forwarded_ = 0;
  uint64_t dropped_rcvbuf_ = 0;
};

// Periodic base-level CPU burn: the "multiprocessing mode but not heavily loaded" of Test
// Case B. Each period it queues `burst` of CPU work, chopped into `slice` steps.
class CompetingProcess {
 public:
  struct Config {
    SimDuration period = Milliseconds(40);
    SimDuration burst = Milliseconds(6);
    SimDuration slice = Microseconds(500);
  };

  CompetingProcess(UnixKernel* kernel, std::string name, Config config);
  void Start();
  void Stop();

 private:
  UnixKernel* kernel_;
  Cpu::JobKind* kind_;  // named after the process
  Config config_;
  std::function<void()> cancel_;
};

}  // namespace ctms

#endif  // SRC_KERN_PROCESS_H_
