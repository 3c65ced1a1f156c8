// Test-only reference model: the CPU model as it ran before step coalescing, one event per
// Step, kept verbatim apart from its name. cpu_differential_test.cc drives it and src/hw's
// segment-based Cpu with identical inputs and requires identical observable behaviour.
//
// A single-processor execution model with BSD-style interrupt levels.
//
// Work is submitted as a Job: an ordered list of Steps, each with a duration, an spl level,
// and an action performed when the step's time has elapsed. Steps are atomic (an interrupt
// arriving mid-step waits for the step boundary); at each boundary the CPU dispatches the
// highest-priority pending job whose level exceeds the level of the step about to run,
// stacking the preempted job. This reproduces the phenomena the paper measures:
//
//   - interrupt dispatch latency that grows when the CPU sits in protected code
//     (the <=440 us IRQ-to-handler variation of section 5.2.2),
//   - serialization of driver work behind other interrupt handlers, and
//   - CPU-copy costs that scale with bytes moved (section 2's central complaint).
//
// DMA into system memory steals memory-bus cycles from the CPU (section 4); that is modelled
// as a stretch factor applied to step durations while such a transfer is active.

#ifndef TESTS_PER_STEP_CPU_H_
#define TESTS_PER_STEP_CPU_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/spl.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace ctms {

class PerStepCpu {
 public:
  struct Step {
    SimDuration duration = 0;
    std::function<void()> action;  // runs when the step completes; may submit further work
    Spl spl = Spl::kNone;          // level while this step runs (max'ed with the job level)
  };

  struct Job {
    std::string name;
    Spl level = Spl::kNone;
    std::vector<Step> steps;
    std::function<void()> on_done;
  };

  PerStepCpu(Simulation* sim, std::string name);

  // Submits an interrupt-context job at `job.level`. The configured dispatch latency (plus
  // jitter) is prepended as an implicit first step, so the first caller-visible action runs
  // dispatch-latency later even on an idle CPU.
  void SubmitInterrupt(Job job);

  // Submits base-level (process-context) work with no dispatch latency.
  void SubmitProcess(Job job);

  // Discards every queued, preempted and in-flight job without running their actions.
  // Owners whose jobs capture resources with shorter lifetimes (an experiment's mbuf
  // chains live in its kernel, which is destroyed before this CPU's machine) call this
  // from their destructors so captured state dies while its dependencies are still alive.
  void CancelAll();

  // Convenience: one-step interrupt job.
  void SubmitInterrupt(std::string name, Spl level, SimDuration duration,
                       std::function<void()> action);

  // --- DMA interference ---------------------------------------------------------------
  // While count > 0, step durations are multiplied by the stretch factor. Nested calls
  // accumulate the count but not the factor (one bus; it is either contended or not).
  void BeginMemoryContention();
  void EndMemoryContention();
  void set_contention_stretch(double factor) { contention_stretch_ = factor; }

  // --- dispatch latency model ----------------------------------------------------------
  void set_dispatch_base(SimDuration d) { dispatch_base_ = d; }
  void set_dispatch_jitter(SimDuration d) { dispatch_jitter_ = d; }

  // --- introspection --------------------------------------------------------------------
  bool idle() const { return current_ == nullptr; }
  Spl current_level() const;
  SimDuration busy_time() const { return busy_time_; }
  const std::map<std::string, SimDuration>& busy_by_job() const { return busy_by_job_; }
  uint64_t jobs_completed() const { return jobs_completed_; }
  // Fraction of all simulated time so far that this CPU spent busy. Callers wanting a
  // windowed figure snapshot busy_time() themselves and difference it.
  double Utilization() const;
  const std::string& name() const { return name_; }

 private:
  struct ActiveJob {
    Job job;
    size_t next_step = 0;
  };

  void Enqueue(ActiveJob active);
  // Called at every step boundary: picks what runs next.
  void ScheduleNext();
  void StartStep();
  SimDuration Stretched(SimDuration d) const;
  Spl EffectiveLevel(const ActiveJob& active) const;

  Simulation* sim_;
  std::string name_;

  std::unique_ptr<ActiveJob> current_;
  std::vector<std::unique_ptr<ActiveJob>> preempted_;       // stack
  std::deque<std::unique_ptr<ActiveJob>> pending_;          // kept sorted by level desc, FIFO within
  bool step_in_flight_ = false;

  SimDuration dispatch_base_ = Microseconds(40);
  SimDuration dispatch_jitter_ = Microseconds(20);

  int contention_count_ = 0;
  double contention_stretch_ = 1.3;

  SimDuration busy_time_ = 0;
  std::map<std::string, SimDuration> busy_by_job_;
  uint64_t jobs_completed_ = 0;

  // Cached telemetry slots (cpu.<instance>.*) and the tracer track carrying step spans.
  Counter* jobs_submitted_counter_;
  Counter* jobs_completed_counter_;
  Counter* steps_counter_;
  Counter* preemptions_counter_;
  Counter* interrupts_counter_;
  TrackId track_ = kInvalidTrackId;
};

}  // namespace ctms

#endif  // TESTS_PER_STEP_CPU_H_
