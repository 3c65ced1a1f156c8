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
//
// Most step boundaries are never used, so the simulation pays for them lazily: a *segment*
// (the longest run of the current job's steps at one effective level in which only the last
// step may act or take zero time) completes with one event. An arrival that would preempt
// the segment, or a change in memory contention, cuts the segment short at its first step
// boundary strictly after now; preemption points, stretched durations and busy time land
// exactly where one event per step would put them.
//
// Every job has a *kind*: a handle from Kind(name) that holds the name and the busy time
// credited to it. A name always maps to the same handle. Owners resolve their kinds once, at
// construction, and keep them, so submitting a job copies no name and looks nothing up.
//
// Submitting work allocates nothing in steady state: finished jobs' holders and step vectors
// are kept and handed to the next jobs (NewJob), step actions and on_done are move-only
// callables that store a `this` pointer plus a packet descriptor in place (Action), and an
// interrupt's dispatch step lives in its holder instead of being inserted ahead of the
// caller's steps. See ARCHITECTURE.md, "The CPU model".

#ifndef SRC_HW_CPU_H_
#define SRC_HW_CPU_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/hw/spl.h"
#include "src/sim/inline_function.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace ctms {

class Cpu {
 public:
  // A step action or on_done. Its 96 bytes hold the largest closure on the per-packet
  // path, a `this` pointer plus an 88-byte Packet (the receive handler's classify and
  // deliver steps), so building and running a packet's jobs allocates nothing.
  // tests/kern_test.cc pins that such a closure fits.
  using Action = InlineFunction<96>;

  struct Step {
    SimDuration duration = 0;
    Action action;         // runs when the step completes; may submit further work
    Spl spl = Spl::kNone;  // level while this step runs (max'ed with the job level)
  };

  // One sort of job and its busy-time account, stable for the CPU's lifetime.
  struct JobKind {
    std::string name;
    SimDuration busy = 0;  // credited when a segment ends, like busy_by_job()
    bool ran = false;      // credited at least once, so busy_by_job() lists it
  };

  struct Job {
    JobKind* kind = nullptr;  // from this CPU's Kind()
    Spl level = Spl::kNone;
    std::vector<Step> steps;
    Action on_done;
  };

  Cpu(Simulation* sim, std::string name);

  // The kind named `name`: the same handle on every call with that name. Resolve it once and
  // keep it; the lookup is linear in the number of kinds.
  JobKind* Kind(std::string_view name);

  // An empty job whose `steps` vector reuses the capacity of a finished job's, so building
  // and submitting it allocates nothing once the CPU has warmed up. Fill it and submit it to
  // this CPU. A directly constructed Job is equally valid; it just brings its own vector.
  Job NewJob(JobKind* kind, Spl level);

  // Submits an interrupt-context job at `job.level`. The configured dispatch latency (plus
  // jitter, drawn now) runs as an implicit first step, so the first caller-visible action
  // runs dispatch-latency later even on an idle CPU. That step is kept in the job's holder,
  // not in `job.steps`, so submitting moves no step.
  void SubmitInterrupt(Job job);

  // Submits base-level (process-context) work with no dispatch latency.
  void SubmitProcess(Job job);

  // Discards every queued, preempted and in-flight job without running their actions.
  // Owners whose jobs capture resources with shorter lifetimes (an experiment's mbuf
  // chains live in its kernel, which is destroyed before this CPU's machine) call this
  // from their destructors so captured state dies while its dependencies are still alive.
  void CancelAll();

  // Convenience: one-step interrupt job, built in a recycled job.
  void SubmitInterrupt(JobKind* kind, Spl level, SimDuration duration, Action action);

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
  // Includes the steps of the in-flight segment whose boundary has passed.
  SimDuration busy_time() const;
  // Busy time by kind name, for the kinds that have run. Credited when a segment ends; the
  // in-flight segment's finished steps are not yet here.
  std::map<std::string, SimDuration> busy_by_job() const;
  uint64_t jobs_completed() const { return jobs_completed_; }
  // Fraction of all simulated time so far that this CPU spent busy. Callers wanting a
  // windowed figure snapshot busy_time() themselves and difference it.
  double Utilization() const;
  const std::string& name() const { return name_; }

 private:
  // A submitted job. Its steps, as the CPU numbers them, are the dispatch step (interrupts
  // only) followed by job.steps; next_step counts in that numbering.
  struct ActiveJob {
    Job job;
    size_t next_step = 0;
    size_t lead = 0;  // 1 when `dispatch` is step 0, else 0
    Step dispatch;    // the interrupt dispatch step: no action, at the job's level

    size_t step_count() const { return lead + job.steps.size(); }
    Step& step(size_t i) { return i < lead ? dispatch : job.steps[i - lead]; }
    const Step& step(size_t i) const { return i < lead ? dispatch : job.steps[i - lead]; }
  };
  using Holder = std::unique_ptr<ActiveJob>;

  // A finished job's holder, or a new one.
  Holder TakeHolder();
  // A finished job's emptied step vector, or a new one.
  std::vector<Step> TakeSteps();
  // Destroys the job's on_done and step actions now, in the order destroying the job would,
  // and keeps its holder and step vector for later jobs.
  void Recycle(Holder holder);
  // The dispatch latency of an interrupt submitted now; draws the jitter.
  SimDuration DispatchLatency();
  // A holder for `job`, with the dispatch step first when `interrupt`.
  Holder Hold(Job job, bool interrupt);
  void Enqueue(Holder holder);
  // Called at every segment boundary: picks what runs next.
  void ScheduleNext();
  // Runs current_'s steps from next_step as one segment and schedules its end.
  void StartSegment();
  // The segment's end event: credits its steps, runs the last step's action, and moves on.
  void FinishSegment();
  // Cuts the in-flight segment short at its first step boundary strictly after now.
  void SplitSegment();
  // Credits the in-flight segment's first `count` steps: busy time, the step counter and one
  // trace span per step at its true start.
  void CreditSteps(size_t count);
  // How many of the in-flight segment's steps, all but the last, have ended by now.
  size_t FinishedSteps() const;
  SimDuration Stretched(SimDuration d) const;
  Spl StepLevel(const ActiveJob& active, size_t step) const;
  Spl EffectiveLevel(const ActiveJob& active) const;

  Simulation* sim_;
  std::string name_;

  Holder current_;
  std::vector<Holder> preempted_;  // stack
  std::vector<Holder> pending_;    // kept sorted by level desc, FIFO within
  bool segment_in_flight_ = false;

  // Finished jobs' holders and step vectors, empty and ready for reuse.
  std::vector<Holder> spare_holders_;
  std::vector<std::vector<Step>> spare_steps_;

  // The in-flight segment: steps [segment_first_, current_->next_step) of current_, run back
  // to back from segment_start_ at segment_level_; segment_ends_[k] is when step
  // segment_first_ + k ends. Empty when there is nothing left to split: no segment in
  // flight, its end event running, or CancelAll.
  SimTime segment_start_ = 0;
  size_t segment_first_ = 0;
  Spl segment_level_ = Spl::kNone;
  std::vector<SimTime> segment_ends_;
  EventId segment_event_ = kInvalidEventId;

  SimDuration dispatch_base_ = Microseconds(40);
  SimDuration dispatch_jitter_ = Microseconds(20);

  int contention_count_ = 0;
  double contention_stretch_ = 1.3;

  SimDuration busy_time_ = 0;
  std::deque<JobKind> kinds_;  // a deque, so handles stay valid as kinds are added
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

#endif  // SRC_HW_CPU_H_
