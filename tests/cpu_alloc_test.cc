// Allocation regression tests for the packet path: once warmed up, building, submitting and
// running CPU jobs makes no heap allocation, and neither does a whole experiment carrying
// packets from the VCA interrupt to the sink. They replace the global operator new with a
// counting one, so they are their own executable; the sanitizer builds of ctms_tests keep
// their allocator.
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

#include "src/core/experiment.h"
#include "src/core/media_mix.h"
#include "src/core/scenario.h"
#include "src/core/scenario_cli.h"
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

// --- whole experiments ------------------------------------------------------------------
//
// After a warm-up, a packet's whole path allocates nothing: the VCA interrupt and packet
// build, the interface queue, the transmit job, DMA, the adapter, the ring's pending queue,
// the receive handler, the sink and its playout buffer. Before these paths were made
// allocation-free, a delivered packet cost about ten allocations.
//
// A whole experiment still allocates now and then in steady state, but not per packet: its
// measurement logs (TAP frame records, probe timestamps, latency samples) double their
// vectors as they grow, and a pool, a queue or a timer-wheel bucket grows when the run sets
// a new high-water mark. Both are geometric in the run length. The bound below (one
// allocation per hundred packets) is far below what any per-packet allocation would cost,
// and far above what that growth costs over the window.

constexpr SimTime kWarmUp = Seconds(60);
constexpr SimDuration kWindow = Seconds(30);
constexpr uint64_t kPacketsPerAllowedAllocation = 100;

TEST(PacketPathAllocTest, TestCaseAAllocatesNothingPerPacket) {
  CtmsConfig config = TestCaseA();
  config.duration = kWarmUp + kWindow;
  CtmsExperiment experiment(config);
  experiment.Start();
  experiment.sim().RunUntil(kWarmUp);
  const uint64_t delivered_before = experiment.sink().packets_accepted();
  const size_t before = g_allocations;
  experiment.sim().RunUntil(kWarmUp + kWindow);
  const size_t allocations = g_allocations - before;
  const uint64_t delivered = experiment.sink().packets_accepted() - delivered_before;
  EXPECT_GE(delivered, 2400u);  // one packet per 12 ms tick
  EXPECT_LT(allocations, delivered / kPacketsPerAllowedAllocation)
      << allocations << " allocations while " << delivered << " packets were delivered";
}

// The perfbench mediamix_overload mix (14 classed streams on a nearly saturated ring, with
// the quality controller re-ranking classes every epoch), run for longer.
TEST(PacketPathAllocTest, ClassedMediaMixAllocatesNothingPerPacket) {
  ScenarioConfig cli;
  std::string error;
  ASSERT_TRUE(ApplyScenarioAxis(&cli, "experiment", "mediamix", &error)) << error;
  ASSERT_TRUE(ApplyScenarioAxis(&cli, "mix", "voice:8,vbr:4,bulk:2", &error)) << error;
  ASSERT_TRUE(ApplyScenarioAxis(&cli, "duration", "90", &error)) << error;
  ASSERT_TRUE(ApplyScenarioPresenceFlag(&cli, "quality-controller"));
  ASSERT_EQ(ValidateScenarioConfig(cli), "");
  MediaMixExperiment experiment(MediaMixConfigFrom(cli));
  ASSERT_EQ(experiment.sim().Now() + kWarmUp + kWindow, Seconds(90));

  // Run() drives the whole experiment, so the window is opened and closed by two events
  // scheduled ahead of it. They only read counters.
  const auto delivered = [&experiment]() {
    uint64_t sum = 0;
    for (size_t i = 0; i < experiment.stream_count(); ++i) {
      sum += experiment.endpoints(i).sink().packets_accepted();
    }
    return sum;
  };
  uint64_t delivered_before = 0;
  uint64_t delivered_in_window = 0;
  size_t before = 0;
  size_t allocations = 0;
  experiment.sim().At(kWarmUp, [&]() {
    delivered_before = delivered();
    before = g_allocations;
  });
  experiment.sim().At(kWarmUp + kWindow, [&]() {
    allocations = g_allocations - before;
    delivered_in_window = delivered() - delivered_before;
  });
  const MediaMixReport report = experiment.Run();
  EXPECT_GE(delivered_in_window, 20000u);
  EXPECT_LT(allocations, delivered_in_window / kPacketsPerAllowedAllocation)
      << allocations << " allocations while " << delivered_in_window
      << " packets were delivered";
  EXPECT_GT(report.controller_epochs, 0u);
}

}  // namespace
}  // namespace ctms
