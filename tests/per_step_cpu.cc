#include "tests/per_step_cpu.h"

#include <cassert>
#include <utility>

namespace ctms {

PerStepCpu::PerStepCpu(Simulation* sim, std::string name) : sim_(sim), name_(std::move(name)) {
  // Machines name their processor "<machine>.cpu"; the metric instance drops the redundant
  // suffix so names read cpu.tx.preemptions rather than cpu.tx.cpu.preemptions.
  std::string instance = name_;
  if (instance.size() > 4 && instance.ends_with(".cpu")) {
    instance.resize(instance.size() - 4);
  }
  const std::string prefix = "cpu." + instance + ".";
  Telemetry& telemetry = sim_->telemetry();
  jobs_submitted_counter_ = telemetry.metrics.GetCounter(prefix + "jobs_submitted");
  jobs_completed_counter_ = telemetry.metrics.GetCounter(prefix + "jobs_completed");
  steps_counter_ = telemetry.metrics.GetCounter(prefix + "steps_executed");
  preemptions_counter_ = telemetry.metrics.GetCounter(prefix + "preemptions");
  interrupts_counter_ = telemetry.metrics.GetCounter(prefix + "interrupts");
  // The trace track shares the metric instance name so the Perfetto row and the counter
  // namespace line up ("cpu.tx" both places).
  track_ = telemetry.tracer.RegisterTrack("cpu." + instance);
}

Spl PerStepCpu::EffectiveLevel(const ActiveJob& active) const {
  if (active.next_step >= active.job.steps.size()) {
    return active.job.level;
  }
  const Spl step_spl = active.job.steps[active.next_step].spl;
  return SplValue(step_spl) > SplValue(active.job.level) ? step_spl : active.job.level;
}

Spl PerStepCpu::current_level() const {
  if (current_ == nullptr) {
    return Spl::kNone;
  }
  // The step about to run / in flight determines the level.
  const size_t idx = current_->next_step > 0 && step_in_flight_ ? current_->next_step - 1
                                                                : current_->next_step;
  if (idx >= current_->job.steps.size()) {
    return current_->job.level;
  }
  const Spl step_spl = current_->job.steps[idx].spl;
  return SplValue(step_spl) > SplValue(current_->job.level) ? step_spl : current_->job.level;
}

SimDuration PerStepCpu::Stretched(SimDuration d) const {
  if (contention_count_ > 0) {
    return static_cast<SimDuration>(static_cast<double>(d) * contention_stretch_);
  }
  return d;
}

void PerStepCpu::SubmitInterrupt(Job job) {
  // Model interrupt dispatch (context save, vectoring) as an implicit leading step at the
  // job's own level; jitter reflects microarchitectural variation, not kernel state.
  const SimDuration dispatch =
      dispatch_base_ + (dispatch_jitter_ > 0 ? sim_->rng().UniformDuration(0, dispatch_jitter_) : 0);
  std::vector<Step> steps;
  steps.reserve(job.steps.size() + 1);
  steps.push_back(Step{dispatch, nullptr, job.level});
  for (auto& s : job.steps) {
    steps.push_back(std::move(s));
  }
  job.steps = std::move(steps);
  interrupts_counter_->Increment();
  Enqueue(ActiveJob{std::move(job), 0});
}

void PerStepCpu::SubmitProcess(Job job) { Enqueue(ActiveJob{std::move(job), 0}); }

void PerStepCpu::SubmitInterrupt(std::string name, Spl level, SimDuration duration,
                          std::function<void()> action) {
  Job job;
  job.name = std::move(name);
  job.level = level;
  job.steps.push_back(Step{duration, std::move(action), level});
  SubmitInterrupt(std::move(job));
}

void PerStepCpu::CancelAll() {
  current_.reset();
  preempted_.clear();
  pending_.clear();
  // A step event may still be scheduled on the simulation; step_in_flight_ stays true so
  // nothing new dispatches, and the event finds no current job if it ever fires.
  step_in_flight_ = true;
}

void PerStepCpu::BeginMemoryContention() { ++contention_count_; }

void PerStepCpu::EndMemoryContention() {
  assert(contention_count_ > 0);
  --contention_count_;
}

void PerStepCpu::Enqueue(ActiveJob active) {
  jobs_submitted_counter_->Increment();
  auto holder = std::make_unique<ActiveJob>(std::move(active));
  // Insert keeping pending_ sorted by level descending, FIFO within a level.
  auto it = pending_.begin();
  while (it != pending_.end() &&
         SplValue((*it)->job.level) >= SplValue(holder->job.level)) {
    ++it;
  }
  pending_.insert(it, std::move(holder));
  if (!step_in_flight_) {
    ScheduleNext();
  }
}

void PerStepCpu::ScheduleNext() {
  if (step_in_flight_) {
    // A nested call (an on_done callback submitted new work and dispatch already started a
    // step) — the boundary logic will run again when that step completes.
    return;
  }
  // Decide what runs now: the current job's next step, a pending job that preempts it, or
  // (if there is no current job) the best of pending vs the preempted stack.
  if (current_ == nullptr && !preempted_.empty()) {
    current_ = std::move(preempted_.back());
    preempted_.pop_back();
  }
  if (!pending_.empty()) {
    const Spl incoming = pending_.front()->job.level;
    const bool preempts =
        current_ == nullptr || !SplBlocks(EffectiveLevel(*current_), incoming);
    if (preempts) {
      if (current_ != nullptr) {
        preemptions_counter_->Increment();
        preempted_.push_back(std::move(current_));
      }
      current_ = std::move(pending_.front());
      pending_.pop_front();
    }
  }
  if (current_ == nullptr) {
    return;  // idle
  }
  if (current_->next_step >= current_->job.steps.size()) {
    // Degenerate job with no steps (or all steps already run): complete it immediately.
    auto finished = std::move(current_);
    current_ = nullptr;
    ++jobs_completed_;
    jobs_completed_counter_->Increment();
    if (finished->job.on_done) {
      finished->job.on_done();
    }
    ScheduleNext();
    return;
  }
  StartStep();
}

void PerStepCpu::StartStep() {
  assert(current_ != nullptr);
  assert(current_->next_step < current_->job.steps.size());
  step_in_flight_ = true;
  Step& step = current_->job.steps[current_->next_step];
  const SimDuration elapsed = Stretched(step.duration);
  ++current_->next_step;
  sim_->After(elapsed, [this, elapsed]() {
    if (current_ == nullptr) {
      return;  // CancelAll ran while this step was in flight
    }
    busy_time_ += elapsed;
    busy_by_job_[current_->job.name] += elapsed;
    const size_t completed = current_->next_step - 1;
    steps_counter_->Increment();
    SpanTracer& tracer = sim_->telemetry().tracer;
    if (tracer.enabled()) {
      tracer.AddComplete(
          track_, current_->job.name, sim_->Now() - elapsed, elapsed,
          {{"spl", static_cast<int64_t>(SplValue(current_->job.steps[completed].spl))}});
    }
    auto action = std::move(current_->job.steps[completed].action);
    if (action) {
      action();  // may submit new jobs; step_in_flight_ still true so no re-entrancy
    }
    step_in_flight_ = false;
    if (current_ != nullptr && current_->next_step >= current_->job.steps.size()) {
      auto finished = std::move(current_);
      current_ = nullptr;
      ++jobs_completed_;
      jobs_completed_counter_->Increment();
      if (finished->job.on_done) {
        finished->job.on_done();
      }
    }
    ScheduleNext();
  });
}

double PerStepCpu::Utilization() const {
  const SimTime now = sim_->Now();
  if (now <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy_time_) / static_cast<double>(now);
}

}  // namespace ctms
