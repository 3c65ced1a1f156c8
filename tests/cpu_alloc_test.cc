// Allocation regression test for the CPU job path: once warmed up, building, submitting and
// running jobs makes no heap allocation. It replaces the global operator new with a counting
// one, so it is its own executable; the sanitizer builds of ctms_tests keep their allocator.
//
// The measured loop mixes what the network stack does per packet: one-step interrupts
// (captures of at most 16 bytes, stored inline), NewJob jobs with chunked copy steps,
// interrupts that preempt a copy mid-segment, and on_done chains that submit the next job.
// Every job carries a kind resolved once, when the rig is built; a name too long for a
// string's inline buffer costs nothing per job either, because no job copies its name.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "src/hw/cpu.h"
#include "src/hw/machine.h"
#include "src/hw/memory.h"
#include "src/kern/unix_kernel.h"
#include "src/sim/simulation.h"

namespace {

size_t g_allocations = 0;  // the test is single-threaded

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ctms {
namespace {

// One round of work: 32 buckets of the event queue's default timer wheel (~2.1 ms), long
// enough for the round's work to finish. Rounds that are a whole number of buckets, with no
// dispatch jitter, repeat exactly every eight rounds, so the wheel's per-bucket vectors
// reach their working size during the warm-up too.
constexpr SimDuration kRound = SimDuration{1} << 21;

class Rig {
 public:
  Rig()
      : sim_(1),
        machine_(&sim_, "m"),
        kernel_(&machine_),
        preemptions_(sim_.telemetry().metrics.GetCounter("cpu.m.preemptions")),
        relay_kind_(cpu().Kind("relay")),
        relay_tail_kind_(cpu().Kind("relay-tail")),
        softnet_kind_(cpu().Kind("softnet")),
        // Two names longer than 15 characters, one per way of building a job.
        handler_kind_(cpu().Kind("tr-tx-complete-handler")),
        rx_kind_(cpu().Kind("tr-rx-copy-to-mbufs")) {
    cpu().set_dispatch_jitter(0);
  }

  void Run(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const SimTime start = sim_.Now();
      Relay();
      // Arrivals at splimp: one-step handlers and a receive handler with its own copy.
      for (int k = 0; k < 3; ++k) {
        sim_.At(start + Microseconds(90 + 150 * k), [this, k]() { Handler(k); });
      }
      sim_.At(start + Microseconds(200), [this]() { ReceiveJob(); });
      sim_.RunUntil(start + kRound);
    }
  }

  Cpu& cpu() { return machine_.cpu(); }
  uint64_t preemptions() const { return preemptions_->value(); }
  int handled() const { return handled_; }
  int relayed() const { return relayed_; }
  int chained() const { return chained_; }
  int copied() const { return copied_; }

 private:
  // A relay-style process copying a packet at base level in two chunks: one action-free
  // segment that the first arrival cuts at the chunk boundary.
  void Relay() {
    Cpu::Job job = cpu().NewJob(relay_kind_, Spl::kNone);
    job.steps.push_back(Cpu::Step{Microseconds(20), nullptr, Spl::kNone});
    kernel_.AppendCopySteps(&job.steps, 700, MemoryKind::kSystemMemory,
                            MemoryKind::kSystemMemory, Spl::kNone);
    job.on_done = [this]() {
      ++relayed_;
      // An on_done chain: the finished job submits the next one, whose on_done raises an
      // interrupt in turn.
      Cpu::Job next = cpu().NewJob(relay_tail_kind_, Spl::kNone);
      next.steps.push_back(Cpu::Step{Microseconds(15), nullptr, Spl::kNone});
      next.on_done = [this]() {
        cpu().SubmitInterrupt(softnet_kind_, Spl::kNet, Microseconds(10),
                              [this]() { ++chained_; });
      };
      cpu().SubmitProcess(std::move(next));
    };
    cpu().SubmitProcess(std::move(job));
  }

  void Handler(int k) {
    const int32_t weight = k + 1;
    cpu().SubmitInterrupt(handler_kind_, Spl::kImp, Microseconds(25),
                          [this, weight]() { handled_ += weight; });
  }

  void ReceiveJob() {
    Cpu::Job job = cpu().NewJob(rx_kind_, Spl::kImp);
    job.steps.push_back(Cpu::Step{Microseconds(30), nullptr, Spl::kImp});
    kernel_.AppendCopySteps(&job.steps, 600, MemoryKind::kSystemMemory,
                            MemoryKind::kSystemMemory, Spl::kImp, [this]() { ++copied_; });
    cpu().SubmitInterrupt(std::move(job));
  }

  Simulation sim_;
  Machine machine_;
  UnixKernel kernel_;
  Counter* preemptions_;
  Cpu::JobKind* relay_kind_;
  Cpu::JobKind* relay_tail_kind_;
  Cpu::JobKind* softnet_kind_;
  Cpu::JobKind* handler_kind_;
  Cpu::JobKind* rx_kind_;
  int handled_ = 0;
  int relayed_ = 0;
  int chained_ = 0;
  int copied_ = 0;
};

TEST(CpuAllocTest, SteadyStateJobPathAllocatesNothing) {
  Rig rig;
  // Warm-up: the spare holders and step vectors and the event queue's slab grow to their
  // working size here.
  rig.Run(50);
  const uint64_t preemptions_before = rig.preemptions();
  const size_t before = g_allocations;
  rig.Run(200);
  const size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  // The loop really did the mixed work.
  EXPECT_GE(rig.preemptions() - preemptions_before, 200u);
  EXPECT_EQ(rig.relayed(), 250);
  EXPECT_EQ(rig.chained(), 250);
  EXPECT_EQ(rig.copied(), 250);
  EXPECT_EQ(rig.handled(), 250 * (1 + 2 + 3));
  const std::map<std::string, SimDuration> busy = rig.cpu().busy_by_job();
  EXPECT_GT(busy.at("tr-tx-complete-handler"), 0);
  EXPECT_GT(busy.at("tr-rx-copy-to-mbufs"), 0);
}

}  // namespace
}  // namespace ctms
