// Per-machine UNIX kernel state shared by drivers and protocol layers: the mbuf pool and
// helpers for charging chunked CPU copies (chunking lets higher-priority interrupts preempt
// a long copy at realistic boundaries).

#ifndef SRC_KERN_UNIX_KERNEL_H_
#define SRC_KERN_UNIX_KERNEL_H_

#include <vector>

#include "src/hw/cpu.h"
#include "src/hw/machine.h"
#include "src/hw/memory.h"
#include "src/kern/mbuf.h"

namespace ctms {

class UnixKernel {
 public:
  struct Config {
    int mbuf_capacity = 256;
    int cluster_capacity = 64;
    // CPU copies are split into steps of this many bytes.
    int64_t copy_chunk_bytes = 512;
  };

  UnixKernel(Machine* machine, Config config);
  explicit UnixKernel(Machine* machine) : UnixKernel(machine, Config{}) {}

  Machine* machine() { return machine_; }
  Simulation* sim() { return machine_->sim(); }
  MbufPool& mbufs() { return mbufs_; }
  const Config& config() const { return config_; }

  // The zero-copy allocation point: charges the mbuf pool for a chain of `bytes` exactly
  // as Allocate would (same counters, failures, peaks), then detaches the charge into a
  // slot of the simulation's frame arena. Returns an invalid ref when the pool is dry —
  // the caller's drop accounting is unchanged from the chain era.
  PayloadRef AllocatePayload(int64_t bytes);

  // The waiting flavor: parks on the pool's FIFO waiter queue when dry (the paper's
  // unbounded-delay hazard) and hands the converted PayloadRef to `on_ready`.
  void AllocatePayloadOrWait(int64_t bytes, std::function<void(PayloadRef)> on_ready);

  // Appends to `steps` the CPU steps that perform (and account for) a copy of `bytes` from
  // `src` to `dst` at level `spl`, one per copy chunk. `on_done` runs as the action of the
  // final step.
  void AppendCopySteps(std::vector<Cpu::Step>* steps, int64_t bytes, MemoryKind src,
                       MemoryKind dst, Spl spl, Cpu::Action on_done = nullptr);

 private:
  Machine* machine_;
  Config config_;
  MbufPool mbufs_;
};

}  // namespace ctms

#endif  // SRC_KERN_UNIX_KERNEL_H_
