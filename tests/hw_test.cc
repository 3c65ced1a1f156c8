#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/cpu.h"
#include "src/hw/dma.h"
#include "src/hw/machine.h"
#include "src/hw/memory.h"
#include "src/kern/process.h"
#include "src/kern/unix_kernel.h"
#include "src/sim/simulation.h"

namespace ctms {
namespace {

class CpuTest : public ::testing::Test {
 protected:
  CpuTest() : sim_(1), cpu_(&sim_, "cpu") {
    cpu_.set_dispatch_base(0);
    cpu_.set_dispatch_jitter(0);
  }
  Simulation sim_;
  Cpu cpu_;
};

TEST_F(CpuTest, RunsStepsSequentially) {
  std::vector<SimTime> times;
  Cpu::Job job;
  job.kind = cpu_.Kind("j");
  job.level = Spl::kImp;
  job.steps.push_back(Cpu::Step{Microseconds(10), [&]() { times.push_back(sim_.Now()); }});
  job.steps.push_back(Cpu::Step{Microseconds(20), [&]() { times.push_back(sim_.Now()); }});
  cpu_.SubmitInterrupt(std::move(job));
  sim_.RunAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Microseconds(10));
  EXPECT_EQ(times[1], Microseconds(30));
}

TEST_F(CpuTest, DispatchLatencyDelaysFirstStep) {
  cpu_.set_dispatch_base(Microseconds(40));
  SimTime entry = -1;
  cpu_.SubmitInterrupt(cpu_.Kind("j"), Spl::kImp, 0, [&]() { entry = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(entry, Microseconds(40));
}

TEST_F(CpuTest, SameLevelJobsSerializeFifo) {
  std::vector<int> order;
  cpu_.SubmitInterrupt(cpu_.Kind("a"), Spl::kImp, Microseconds(10), [&]() { order.push_back(1); });
  cpu_.SubmitInterrupt(cpu_.Kind("b"), Spl::kImp, Microseconds(10), [&]() { order.push_back(2); });
  sim_.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim_.Now(), Microseconds(20));
}

TEST_F(CpuTest, HigherLevelPreemptsAtStepBoundary) {
  std::vector<std::string> order;
  Cpu::Job low;
  low.kind = cpu_.Kind("low");
  low.level = Spl::kNet;
  low.steps.push_back(Cpu::Step{Microseconds(10), [&]() { order.push_back("low1"); }});
  low.steps.push_back(Cpu::Step{Microseconds(10), [&]() { order.push_back("low2"); }});
  cpu_.SubmitInterrupt(std::move(low));
  // Arrives mid-first-step; must run between low's steps, not after both.
  sim_.After(Microseconds(5), [&]() {
    cpu_.SubmitInterrupt(cpu_.Kind("high"), Spl::kClock, Microseconds(3),
                         [&]() { order.push_back("high"); });
  });
  sim_.RunAll();
  EXPECT_EQ(order, (std::vector<std::string>{"low1", "high", "low2"}));
}

TEST_F(CpuTest, EqualLevelDoesNotPreempt) {
  std::vector<std::string> order;
  Cpu::Job first;
  first.kind = cpu_.Kind("first");
  first.level = Spl::kImp;
  first.steps.push_back(Cpu::Step{Microseconds(10), [&]() { order.push_back("f1"); }});
  first.steps.push_back(Cpu::Step{Microseconds(10), [&]() { order.push_back("f2"); }});
  cpu_.SubmitInterrupt(std::move(first));
  sim_.After(Microseconds(5), [&]() {
    cpu_.SubmitInterrupt(cpu_.Kind("second"), Spl::kImp, Microseconds(1),
                         [&]() { order.push_back("s"); });
  });
  sim_.RunAll();
  EXPECT_EQ(order, (std::vector<std::string>{"f1", "f2", "s"}));
}

TEST_F(CpuTest, StepSplRaisesEffectiveLevel) {
  // A kNet job with a kHigh protected step defers even a kClock interrupt.
  std::vector<std::string> order;
  Cpu::Job low;
  low.kind = cpu_.Kind("low");
  low.level = Spl::kNet;
  low.steps.push_back(Cpu::Step{Microseconds(10), [&]() { order.push_back("protected"); },
                                Spl::kHigh});
  low.steps.push_back(Cpu::Step{Microseconds(10), [&]() { order.push_back("tail"); }});
  cpu_.SubmitInterrupt(std::move(low));
  sim_.After(Microseconds(2), [&]() {
    cpu_.SubmitInterrupt(cpu_.Kind("clock"), Spl::kClock, Microseconds(1),
                         [&]() { order.push_back("clk"); });
  });
  sim_.RunAll();
  // The clock runs after the protected step but before the kNet tail.
  EXPECT_EQ(order, (std::vector<std::string>{"protected", "clk", "tail"}));
}

TEST_F(CpuTest, ProcessWorkYieldsToInterrupts) {
  std::vector<std::string> order;
  Cpu::Job proc;
  proc.kind = cpu_.Kind("proc");
  proc.level = Spl::kNone;
  for (int i = 0; i < 4; ++i) {
    proc.steps.push_back(Cpu::Step{Microseconds(100), nullptr});
  }
  proc.on_done = [&]() { order.push_back("proc"); };
  cpu_.SubmitProcess(std::move(proc));
  sim_.After(Microseconds(150), [&]() {
    cpu_.SubmitInterrupt(cpu_.Kind("intr"), Spl::kImp, Microseconds(10),
                         [&]() { order.push_back("intr"); });
  });
  sim_.RunAll();
  EXPECT_EQ(order, (std::vector<std::string>{"intr", "proc"}));
  // Interrupt delayed only to the 200us step boundary, then 10us of work.
  EXPECT_EQ(sim_.Now(), Microseconds(410));
}

TEST_F(CpuTest, PreemptedJobResumesAfterInterrupt) {
  SimTime done_at = -1;
  Cpu::Job proc;
  proc.kind = cpu_.Kind("proc");
  proc.steps.push_back(Cpu::Step{Microseconds(100), nullptr});
  proc.steps.push_back(Cpu::Step{Microseconds(100), nullptr});
  proc.on_done = [&]() { done_at = sim_.Now(); };
  cpu_.SubmitProcess(std::move(proc));
  sim_.After(Microseconds(50), [&]() {
    cpu_.SubmitInterrupt(cpu_.Kind("intr"), Spl::kImp, Microseconds(30), nullptr);
  });
  sim_.RunAll();
  EXPECT_EQ(done_at, Microseconds(230));  // 100 + 30 + 100
}

TEST_F(CpuTest, ContentionStretchesSteps) {
  cpu_.set_contention_stretch(1.5);
  cpu_.BeginMemoryContention();
  SimTime done = -1;
  cpu_.SubmitInterrupt(cpu_.Kind("j"), Spl::kImp, Microseconds(100), [&]() { done = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(done, Microseconds(150));
  cpu_.EndMemoryContention();
}

TEST_F(CpuTest, BusyAccounting) {
  cpu_.SubmitInterrupt(cpu_.Kind("a"), Spl::kImp, Microseconds(30), nullptr);
  cpu_.SubmitInterrupt(cpu_.Kind("b"), Spl::kImp, Microseconds(70), nullptr);
  sim_.RunAll();
  EXPECT_EQ(cpu_.busy_time(), Microseconds(100));
  EXPECT_EQ(cpu_.busy_by_job().at("a"), Microseconds(30));
  EXPECT_EQ(cpu_.busy_by_job().at("b"), Microseconds(70));
  EXPECT_EQ(cpu_.jobs_completed(), 2u);
  EXPECT_DOUBLE_EQ(cpu_.Utilization(), 1.0);
}

TEST_F(CpuTest, EmptyJobCompletes) {
  bool done = false;
  Cpu::Job job;
  job.kind = cpu_.Kind("empty");
  job.on_done = [&]() { done = true; };
  cpu_.SubmitProcess(std::move(job));
  sim_.RunAll();
  EXPECT_TRUE(done);
}


TEST_F(CpuTest, NestedPreemptionResumesInLevelOrder) {
  std::vector<std::string> order;
  Cpu::Job base;
  base.kind = cpu_.Kind("base");
  base.level = Spl::kNone;
  for (int i = 0; i < 3; ++i) {
    base.steps.push_back(Cpu::Step{Microseconds(100), nullptr});
  }
  base.on_done = [&]() { order.push_back("base"); };
  cpu_.SubmitProcess(std::move(base));
  // kNet arrives during base's first step; kClock arrives during kNet's work.
  sim_.After(Microseconds(50), [&]() {
    Cpu::Job net;
    net.kind = cpu_.Kind("net");
    net.level = Spl::kNet;
    net.steps.push_back(Cpu::Step{Microseconds(100), nullptr, Spl::kNet});
    net.steps.push_back(Cpu::Step{Microseconds(100), nullptr, Spl::kNet});
    net.on_done = [&]() { order.push_back("net"); };
    cpu_.SubmitInterrupt(std::move(net));
  });
  sim_.After(Microseconds(150), [&]() {
    cpu_.SubmitInterrupt(cpu_.Kind("clock"), Spl::kClock, Microseconds(30),
                         [&]() { order.push_back("clock"); });
  });
  sim_.RunAll();
  // clock preempts net which preempted base; completion order is innermost first.
  EXPECT_EQ(order, (std::vector<std::string>{"clock", "net", "base"}));
}

TEST_F(CpuTest, NestedContentionIsSingleFactor) {
  cpu_.set_contention_stretch(1.5);
  cpu_.BeginMemoryContention();
  cpu_.BeginMemoryContention();  // two concurrent DMA transfers: still one contended bus
  SimTime done = -1;
  cpu_.SubmitInterrupt(cpu_.Kind("j"), Spl::kImp, Microseconds(100), [&]() { done = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(done, Microseconds(150));
  cpu_.EndMemoryContention();
  cpu_.EndMemoryContention();
  SimTime done2 = -1;
  cpu_.SubmitInterrupt(cpu_.Kind("k"), Spl::kImp, Microseconds(100),
                       [&]() { done2 = sim_.Now() - done; });
  sim_.RunAll();
  EXPECT_EQ(done2, Microseconds(100));  // back to full speed
}

// A job of `count` action-free steps of `each` at `level`, with an action on the last.
Cpu::Job PlainJob(Cpu::JobKind* kind, Spl level, int count, SimDuration each,
                  std::function<void()> last_action) {
  Cpu::Job job;
  job.kind = kind;
  job.level = level;
  for (int i = 0; i < count; ++i) {
    job.steps.push_back(
        Cpu::Step{each, i == count - 1 ? std::move(last_action) : nullptr, level});
  }
  return job;
}

uint64_t StepsExecuted(Simulation& sim) {
  return sim.telemetry().metrics.GetCounter("cpu.cpu.steps_executed")->value();
}

TEST_F(CpuTest, ActionFreeStepsCompleteWithOneEvent) {
  SimTime done = -1;
  cpu_.SubmitProcess(PlainJob(cpu_.Kind("copy"), Spl::kNone, 8, Microseconds(100),
                              [&]() { done = sim_.Now(); }));
  sim_.RunAll();
  EXPECT_EQ(done, Microseconds(800));
  EXPECT_EQ(sim_.events_executed(), 1u);
  EXPECT_EQ(StepsExecuted(sim_), 8u);
}

TEST_F(CpuTest, InterruptDuringChunkedCopyStartsAtNextChunkBoundary) {
  Machine machine(&sim_, "m");
  UnixKernel kernel(&machine);
  // 2000 bytes into IO Channel Memory at 1 us/byte: four 512-byte chunks of 500 us each.
  SimTime copied = -1;
  Cpu::Job copy = cpu_.NewJob(cpu_.Kind("copyin"), Spl::kNet);
  kernel.AppendCopySteps(&copy.steps, 2000, MemoryKind::kSystemMemory,
                         MemoryKind::kIoChannelMemory, Spl::kNet, [&]() { copied = sim_.Now(); });
  ASSERT_EQ(copy.steps.size(), 4u);
  cpu_.SubmitProcess(std::move(copy));
  SimTime handled = -1;
  sim_.After(Microseconds(1200), [&]() {
    cpu_.SubmitInterrupt(cpu_.Kind("tr-intr"), Spl::kImp, Microseconds(30),
                         [&]() { handled = sim_.Now(); });
  });
  sim_.RunAll();
  EXPECT_EQ(handled, Microseconds(1530));  // waited for the chunk ending at 1500 us
  EXPECT_EQ(copied, Microseconds(2030));
  EXPECT_EQ(StepsExecuted(sim_), 4u + 2u);  // the interrupt adds its dispatch step
}

TEST_F(CpuTest, ArrivalAtInteriorBoundaryTakesNextBoundary) {
  // The arrival is queued before the job starts and lands exactly on the 100 us boundary. It
  // is taken at the first boundary strictly after its arrival: 200 us.
  SimTime handled = -1;
  sim_.At(Microseconds(100), [&]() {
    cpu_.SubmitInterrupt(cpu_.Kind("clock"), Spl::kClock, Microseconds(5),
                         [&]() { handled = sim_.Now(); });
  });
  SimTime done = -1;
  cpu_.SubmitProcess(PlainJob(cpu_.Kind("proc"), Spl::kNone, 3, Microseconds(100),
                              [&]() { done = sim_.Now(); }));
  sim_.RunAll();
  EXPECT_EQ(handled, Microseconds(205));
  EXPECT_EQ(done, Microseconds(305));
}

TEST_F(CpuTest, NonPreemptingArrivalLeavesSegmentWhole) {
  cpu_.set_dispatch_base(Microseconds(10));
  cpu_.SubmitInterrupt(PlainJob(cpu_.Kind("net"), Spl::kImp, 4, Microseconds(100), nullptr));
  sim_.After(Microseconds(150), [&]() {
    cpu_.SubmitInterrupt(cpu_.Kind("same-level"), Spl::kImp, Microseconds(10), nullptr);
  });
  sim_.RunAll();
  EXPECT_EQ(sim_.Now(), Microseconds(430));
  // The arrival event, then one event per job (dispatch included): the first job's segment
  // was never cut.
  EXPECT_EQ(sim_.events_executed(), 3u);
}

TEST_F(CpuTest, ContentionMidSegmentStretchesOnlyLaterSteps) {
  cpu_.set_contention_stretch(1.5);
  SimTime done = -1;
  cpu_.SubmitProcess(PlainJob(cpu_.Kind("proc"), Spl::kNone, 4, Microseconds(100),
                              [&]() { done = sim_.Now(); }));
  // Begins in step 2 (100-200 us): step 3 runs 200-350 us. Ends in step 3: step 4 is back to
  // 100 us, 350-450 us.
  sim_.After(Microseconds(150), [&]() { cpu_.BeginMemoryContention(); });
  sim_.After(Microseconds(250), [&]() { cpu_.EndMemoryContention(); });
  sim_.RunAll();
  EXPECT_EQ(done, Microseconds(450));
  EXPECT_EQ(cpu_.busy_time(), Microseconds(450));
  EXPECT_EQ(StepsExecuted(sim_), 4u);
}

TEST_F(CpuTest, UtilizationMidSegmentCountsOnlyFinishedSteps) {
  cpu_.SubmitProcess(PlainJob(cpu_.Kind("proc"), Spl::kNone, 4, Microseconds(100), nullptr));
  SimDuration busy_at_250 = -1;
  double util_at_250 = -1;
  SimDuration busy_at_300 = -1;
  sim_.After(Microseconds(250), [&]() {
    busy_at_250 = cpu_.busy_time();
    util_at_250 = cpu_.Utilization();
  });
  sim_.After(Microseconds(300), [&]() { busy_at_300 = cpu_.busy_time(); });
  sim_.RunAll();
  EXPECT_EQ(busy_at_250, Microseconds(200));
  EXPECT_DOUBLE_EQ(util_at_250, 0.8);
  EXPECT_EQ(busy_at_300, Microseconds(300));
  EXPECT_EQ(cpu_.busy_time(), Microseconds(400));
  // Stopping mid-segment: the clock parks at 250 us and the two finished steps count.
  Simulation sim(1);
  Cpu cpu(&sim, "cpu");
  cpu.SubmitProcess(PlainJob(cpu.Kind("proc"), Spl::kNone, 4, Microseconds(100), nullptr));
  sim.RunUntil(Microseconds(250));
  EXPECT_EQ(cpu.busy_time(), Microseconds(200));
  EXPECT_DOUBLE_EQ(cpu.Utilization(), 0.8);
}

TEST_F(CpuTest, CancelAllMidSegmentRunsNoAction) {
  bool acted = false;
  bool finished = false;
  Cpu::Job job = PlainJob(cpu_.Kind("proc"), Spl::kNone, 3, Microseconds(100),
                          [&]() { acted = true; });
  job.on_done = [&]() { finished = true; };
  cpu_.SubmitProcess(std::move(job));
  sim_.After(Microseconds(150), [&]() { cpu_.CancelAll(); });
  sim_.RunAll();  // the stale segment end event still fires at 300 us, and does nothing
  EXPECT_FALSE(acted);
  EXPECT_FALSE(finished);
  EXPECT_EQ(sim_.Now(), Microseconds(300));
  EXPECT_EQ(cpu_.jobs_completed(), 0u);
  // The step that finished before the cancel is credited, as one event per step credited it.
  EXPECT_EQ(cpu_.busy_time(), Microseconds(100));
  EXPECT_EQ(cpu_.busy_by_job().at("proc"), Microseconds(100));
  EXPECT_EQ(StepsExecuted(sim_), 1u);
}

TEST_F(CpuTest, StepsExecutedCountsEveryStep) {
  // Three segments (action on step 2, level change at step 4) plus a preemption cut, a
  // zero-length step, and a separate interrupt with its dispatch step.
  cpu_.set_dispatch_base(Microseconds(10));
  Cpu::Job job;
  job.kind = cpu_.Kind("mixed");
  job.level = Spl::kNet;
  job.steps.push_back(Cpu::Step{Microseconds(100), nullptr, Spl::kNet});
  job.steps.push_back(Cpu::Step{Microseconds(100), []() {}, Spl::kNet});
  job.steps.push_back(Cpu::Step{0, nullptr, Spl::kNet});
  job.steps.push_back(Cpu::Step{Microseconds(100), nullptr, Spl::kHigh});
  job.steps.push_back(Cpu::Step{Microseconds(100), nullptr, Spl::kNet});
  job.steps.push_back(Cpu::Step{Microseconds(100), nullptr, Spl::kNet});
  cpu_.SubmitProcess(std::move(job));
  sim_.After(Microseconds(450), [&]() {
    cpu_.SubmitInterrupt(cpu_.Kind("intr"), Spl::kImp, Microseconds(20), nullptr);
  });
  sim_.RunAll();
  EXPECT_EQ(StepsExecuted(sim_), 6u + 2u);
  EXPECT_EQ(sim_.Now(), Microseconds(530));
  EXPECT_EQ(cpu_.busy_time(), Microseconds(530));
}

// Finished jobs' holders and step vectors are recycled; what a job captured must still die
// when the job completes, not when its holder is next reused or the CPU is destroyed.
TEST_F(CpuTest, CompletedJobReleasesItsCapturesAtCompletion) {
  SimTime completed = -1;
  SimTime action_released = -1;
  SimTime on_done_released = -1;
  // A shared_ptr whose last copy records the instant it is released.
  auto payload = [this](SimTime* released) {
    return std::shared_ptr<void>(nullptr, [this, released](void*) { *released = sim_.Now(); });
  };
  Cpu::Job job = cpu_.NewJob(cpu_.Kind("tx"), Spl::kImp);
  job.steps.push_back(Cpu::Step{Microseconds(10), nullptr, Spl::kImp});
  job.steps.push_back(
      Cpu::Step{Microseconds(20), [held = payload(&action_released)]() {}, Spl::kImp});
  job.on_done = [this, &completed, held = payload(&on_done_released)]() {
    completed = sim_.Now();
  };
  cpu_.SubmitInterrupt(std::move(job));
  sim_.RunAll();
  EXPECT_EQ(completed, Microseconds(30));
  EXPECT_EQ(action_released, Microseconds(30));
  EXPECT_EQ(on_done_released, Microseconds(30));
}

// One-step jobs run one after another reuse one recycled holder; each must credit its own
// name, not the name of the job the holder last carried.
TEST_F(CpuTest, BusyByJobStaysExactWhenJobsReuseAHolder) {
  cpu_.SubmitInterrupt(cpu_.Kind("a"), Spl::kImp, Microseconds(100), nullptr);
  sim_.RunAll();
  cpu_.SubmitInterrupt(cpu_.Kind("b"), Spl::kImp, Microseconds(30), nullptr);
  sim_.RunAll();
  Cpu::Job job = cpu_.NewJob(cpu_.Kind("c"), Spl::kNone);
  job.steps.push_back(Cpu::Step{Microseconds(50), nullptr, Spl::kNone});
  job.steps.push_back(Cpu::Step{Microseconds(50), nullptr, Spl::kNone});
  cpu_.SubmitProcess(std::move(job));
  // Preempts "c" mid-job, so "c" is credited in two parts around a second holder.
  sim_.At(sim_.Now() + Microseconds(20),
          [&]() { cpu_.SubmitInterrupt(cpu_.Kind("a"), Spl::kImp, Microseconds(5), nullptr); });
  sim_.RunAll();
  cpu_.SubmitInterrupt(cpu_.Kind("b"), Spl::kImp, Microseconds(7), nullptr);
  sim_.RunAll();
  const std::map<std::string, SimDuration> expected = {
      {"a", Microseconds(105)}, {"b", Microseconds(37)}, {"c", Microseconds(100)}};
  EXPECT_EQ(cpu_.busy_by_job(), expected);
  EXPECT_EQ(cpu_.busy_time(), Microseconds(242));
}

TEST_F(CpuTest, KindIsOneHandlePerName) {
  Cpu::JobKind* x = cpu_.Kind("x");
  EXPECT_EQ(cpu_.Kind("x"), x);
  EXPECT_EQ(cpu_.Kind(std::string("x")), x);
  EXPECT_NE(cpu_.Kind("y"), x);
  EXPECT_EQ(cpu_.Kind("y"), cpu_.Kind("y"));
  EXPECT_EQ(x->name, "x");
  // Later kinds do not move earlier handles.
  for (int i = 0; i < 100; ++i) {
    cpu_.Kind("k" + std::to_string(i));
  }
  EXPECT_EQ(cpu_.Kind("x"), x);
  cpu_.SubmitInterrupt(x, Spl::kImp, Microseconds(10), nullptr);
  sim_.RunAll();
  EXPECT_EQ(x->busy, Microseconds(10));
}

// Owners resolve their kinds separately; two that use one name credit one account.
TEST(CpuKindTest, OwnersOfOneNameShareOneAccount) {
  Simulation sim(1);
  Machine machine(&sim, "m");
  UnixKernel kernel(&machine);
  CompetingProcess first(&kernel, "hog", CompetingProcess::Config{});
  CompetingProcess second(&kernel, "hog", CompetingProcess::Config{});
  first.Start();
  second.Start();
  // Both burst 6 ms every 40 ms from the same phase; by 160 ms four rounds have finished
  // and the CPU is idle.
  sim.RunUntil(Milliseconds(160));
  first.Stop();
  second.Stop();
  const std::map<std::string, SimDuration> expected = {{"hog", Milliseconds(48)}};
  EXPECT_EQ(machine.cpu().busy_by_job(), expected);
  EXPECT_EQ(machine.cpu().Kind("hog")->busy, Milliseconds(48));
  EXPECT_EQ(machine.cpu().jobs_completed(), 8u);
}

// busy_by_job() lists a kind once a segment of it was credited, even for no time, and never
// a kind that was only resolved or whose job was cancelled before its first credit.
TEST_F(CpuTest, BusyByJobListsOnlyKindsThatRan) {
  Cpu::JobKind* never = cpu_.Kind("never");
  Cpu::JobKind* cancelled = cpu_.Kind("cancelled");
  cpu_.SubmitInterrupt(cpu_.Kind("instant"), Spl::kImp, 0, nullptr);
  cpu_.SubmitProcess(PlainJob(cpu_.Kind("proc"), Spl::kNone, 4, Microseconds(100), nullptr));
  sim_.After(Microseconds(250), [&]() {
    cpu_.SubmitProcess(PlainJob(cancelled, Spl::kNone, 1, Microseconds(10), nullptr));
    cpu_.CancelAll();
  });
  sim_.RunAll();
  const std::map<std::string, SimDuration> expected = {{"instant", 0},
                                                       {"proc", Microseconds(200)}};
  EXPECT_EQ(cpu_.busy_by_job(), expected);
  EXPECT_EQ(never->busy, 0);
  EXPECT_EQ(cancelled->busy, 0);
}

TEST(CopyEngineTest, CostDependsOnMemoryKinds) {
  CopyEngine engine;
  const int64_t bytes = 2000;
  // The paper's headline rate: 1 us/byte into IO Channel Memory -> 2000 us for a packet.
  EXPECT_EQ(engine.CopyCost(bytes, MemoryKind::kSystemMemory, MemoryKind::kIoChannelMemory),
            Microseconds(2000));
  EXPECT_LT(engine.CopyCost(bytes, MemoryKind::kSystemMemory, MemoryKind::kSystemMemory),
            Microseconds(2000));
  EXPECT_GT(engine.CopyCost(bytes, MemoryKind::kIoChannelMemory, MemoryKind::kIoChannelMemory),
            Microseconds(2000));
}

TEST(CopyEngineTest, Accounting) {
  CopyEngine engine;
  engine.RecordCpuCopy(100);
  engine.RecordCpuCopy(200);
  engine.RecordDmaCopy(1000);
  EXPECT_EQ(engine.cpu_copies(), 2u);
  EXPECT_EQ(engine.cpu_bytes_copied(), 300);
  EXPECT_EQ(engine.dma_copies(), 1u);
  EXPECT_EQ(engine.dma_bytes_copied(), 1000);
  engine.ResetCounters();
  EXPECT_EQ(engine.cpu_copies(), 0u);
}

class DmaTest : public ::testing::Test {
 protected:
  DmaTest() : sim_(1), machine_(&sim_, "m") {}
  Simulation sim_;
  Machine machine_;
};

TEST_F(DmaTest, TransferTakesBytesTimesRate) {
  DmaEngine dma(&sim_, "d", &machine_.cpu(), &machine_.copies());
  dma.set_rate_per_byte(Microseconds(1));
  SimTime done = -1;
  dma.Transfer(500, MemoryKind::kIoChannelMemory, [&]() { done = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(done, Microseconds(500));
  EXPECT_EQ(dma.transfers_completed(), 1u);
  EXPECT_EQ(dma.bytes_transferred(), 500);
}

TEST_F(DmaTest, TransfersQueueFifo) {
  DmaEngine dma(&sim_, "d", &machine_.cpu(), &machine_.copies());
  dma.set_rate_per_byte(Microseconds(1));
  std::vector<SimTime> done;
  dma.Transfer(100, MemoryKind::kIoChannelMemory, [&]() { done.push_back(sim_.Now()); });
  dma.Transfer(100, MemoryKind::kIoChannelMemory, [&]() { done.push_back(sim_.Now()); });
  sim_.RunAll();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], Microseconds(100));
  EXPECT_EQ(done[1], Microseconds(200));
}

TEST_F(DmaTest, SystemMemoryDmaSlowsCpu) {
  machine_.cpu().set_dispatch_base(0);
  machine_.cpu().set_dispatch_jitter(0);
  machine_.cpu().set_contention_stretch(1.5);
  DmaEngine dma(&sim_, "d", &machine_.cpu(), &machine_.copies());
  dma.set_rate_per_byte(Microseconds(1));
  dma.Transfer(1000, MemoryKind::kSystemMemory, nullptr);
  SimTime cpu_done = -1;
  machine_.cpu().SubmitInterrupt(machine_.cpu().Kind("work"), Spl::kImp, Microseconds(100),
                                 [&]() { cpu_done = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(cpu_done, Microseconds(150));  // stretched by arbitration
}

TEST_F(DmaTest, IoChannelMemoryDmaDoesNotSlowCpu) {
  machine_.cpu().set_dispatch_base(0);
  machine_.cpu().set_dispatch_jitter(0);
  DmaEngine dma(&sim_, "d", &machine_.cpu(), &machine_.copies());
  dma.set_rate_per_byte(Microseconds(1));
  dma.Transfer(1000, MemoryKind::kIoChannelMemory, nullptr);
  SimTime cpu_done = -1;
  machine_.cpu().SubmitInterrupt(machine_.cpu().Kind("work"), Spl::kImp, Microseconds(100),
                                 [&]() { cpu_done = sim_.Now(); });
  sim_.RunAll();
  EXPECT_EQ(cpu_done, Microseconds(100));
}

TEST(MachineTest, ChargeCpuCopyRecordsAndPrices) {
  Simulation sim(1);
  Machine machine(&sim, "m");
  const SimDuration cost = machine.ChargeCpuCopy(2000, MemoryKind::kSystemMemory,
                                                 MemoryKind::kIoChannelMemory);
  EXPECT_EQ(cost, Microseconds(2000));
  EXPECT_EQ(machine.copies().cpu_copies(), 1u);
}

TEST(MachineTest, HardclockTicksAtHundredHertz) {
  Simulation sim(1);
  Machine machine(&sim, "m");
  machine.StartHardclock(Microseconds(90));
  sim.RunUntil(Seconds(1));
  machine.StopHardclock();
  // ~100 ticks of 90 us each (dispatch adds a bit).
  EXPECT_GE(machine.cpu().jobs_completed(), 99u);
  EXPECT_LE(machine.cpu().jobs_completed(), 101u);
}

}  // namespace
}  // namespace ctms
