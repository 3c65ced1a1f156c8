#include "src/hw/cpu.h"

#include <cassert>
#include <utility>

namespace ctms {

Cpu::Cpu(Simulation* sim, std::string name) : sim_(sim), name_(std::move(name)) {
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

Spl Cpu::StepLevel(const Job& job, size_t step) const {
  const Spl step_spl = job.steps[step].spl;
  return SplValue(step_spl) > SplValue(job.level) ? step_spl : job.level;
}

Spl Cpu::EffectiveLevel(const ActiveJob& active) const {
  if (active.next_step >= active.job.steps.size()) {
    return active.job.level;
  }
  return StepLevel(active.job, active.next_step);
}

SimDuration Cpu::Stretched(SimDuration d) const {
  if (contention_count_ > 0) {
    return static_cast<SimDuration>(static_cast<double>(d) * contention_stretch_);
  }
  return d;
}

void Cpu::SubmitInterrupt(Job job) {
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

void Cpu::SubmitProcess(Job job) { Enqueue(ActiveJob{std::move(job), 0}); }

void Cpu::SubmitInterrupt(std::string name, Spl level, SimDuration duration,
                          std::function<void()> action) {
  Job job;
  job.name = std::move(name);
  job.level = level;
  job.steps.push_back(Step{duration, std::move(action), level});
  SubmitInterrupt(std::move(job));
}

void Cpu::CancelAll() {
  CreditSteps(FinishedSteps());  // steps that ended before the cancel were busy time
  current_.reset();
  preempted_.clear();
  pending_.clear();
  segment_ends_.clear();
  // A segment end event may still be scheduled on the simulation; segment_in_flight_ stays
  // true so nothing new dispatches, and the event finds no current job if it ever fires.
  segment_in_flight_ = true;
}

// Steps take the stretch in force when they start, so a change cuts the in-flight segment
// at its next boundary and the rest of the job is re-timed from there.
void Cpu::BeginMemoryContention() {
  if (contention_count_++ == 0) {
    SplitSegment();
  }
}

void Cpu::EndMemoryContention() {
  assert(contention_count_ > 0);
  if (--contention_count_ == 0) {
    SplitSegment();
  }
}

void Cpu::Enqueue(ActiveJob active) {
  jobs_submitted_counter_->Increment();
  auto holder = std::make_unique<ActiveJob>(std::move(active));
  // Insert keeping pending_ sorted by level descending, FIFO within a level.
  auto it = pending_.begin();
  while (it != pending_.end() &&
         SplValue((*it)->job.level) >= SplValue(holder->job.level)) {
    ++it;
  }
  const Spl incoming = holder->job.level;
  pending_.insert(it, std::move(holder));
  if (!segment_in_flight_) {
    ScheduleNext();
  } else if (!SplBlocks(segment_level_, incoming)) {
    SplitSegment();  // preempts at the next step boundary, not at the segment's end
  }
}

void Cpu::ScheduleNext() {
  if (segment_in_flight_) {
    // A nested call (an on_done callback submitted new work and dispatch already started a
    // segment) — the boundary logic will run again when that segment completes.
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
  StartSegment();
}

void Cpu::StartSegment() {
  assert(current_ != nullptr);
  assert(current_->next_step < current_->job.steps.size());
  segment_in_flight_ = true;
  const Job& job = current_->job;
  segment_first_ = current_->next_step;
  segment_level_ = StepLevel(job, segment_first_);
  segment_start_ = sim_->Now();
  segment_ends_.clear();
  SimTime end = segment_start_;
  size_t next = segment_first_;
  while (true) {
    const Step& step = job.steps[next];
    const SimDuration elapsed = Stretched(step.duration);
    end += elapsed;
    segment_ends_.push_back(end);
    ++next;
    // A zero-time step ends its segment too, so interior boundaries are strictly increasing
    // and "the first boundary after now" is never ambiguous.
    if (step.action || elapsed == 0 || next == job.steps.size() ||
        StepLevel(job, next) != segment_level_) {
      break;
    }
  }
  current_->next_step = next;
  segment_event_ = sim_->At(end, [this]() { FinishSegment(); });
}

void Cpu::SplitSegment() {
  // Only a pending end event can be moved; inside FinishSegment the boundary logic runs anyway.
  if (segment_ends_.empty()) {
    return;
  }
  const size_t last = FinishedSteps();
  if (last + 1 == segment_ends_.size()) {
    return;  // already ends at its first boundary after now
  }
  const SimTime end = segment_ends_[last];
  const bool moved = end != segment_ends_.back();
  segment_ends_.resize(last + 1);
  current_->next_step = segment_first_ + last + 1;
  if (moved) {
    sim_->Cancel(segment_event_);
    segment_event_ = sim_->At(end, [this]() { FinishSegment(); });
  }
}

void Cpu::FinishSegment() {
  if (current_ == nullptr) {
    return;  // CancelAll ran while this segment was in flight
  }
  CreditSteps(segment_ends_.size());
  segment_ends_.clear();
  auto action = std::move(current_->job.steps[current_->next_step - 1].action);
  if (action) {
    action();  // may submit new jobs; segment_in_flight_ still true so no re-entrancy
  }
  segment_in_flight_ = false;
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
}

void Cpu::CreditSteps(size_t count) {
  if (count == 0) {
    return;
  }
  const Job& job = current_->job;
  const SimDuration elapsed = segment_ends_[count - 1] - segment_start_;
  busy_time_ += elapsed;
  busy_by_job_[job.name] += elapsed;
  steps_counter_->Increment(count);
  SpanTracer& tracer = sim_->telemetry().tracer;
  if (tracer.enabled()) {
    SimTime start = segment_start_;
    for (size_t i = 0; i < count; ++i) {
      tracer.AddComplete(
          track_, job.name, start, segment_ends_[i] - start,
          {{"spl", static_cast<int64_t>(SplValue(job.steps[segment_first_ + i].spl))}});
      start = segment_ends_[i];
    }
  }
}

size_t Cpu::FinishedSteps() const {
  // The last step is credited by the segment's end event, even when that event is due now.
  size_t count = 0;
  while (count + 1 < segment_ends_.size() && segment_ends_[count] <= sim_->Now()) {
    ++count;
  }
  return count;
}

SimDuration Cpu::busy_time() const {
  const size_t finished = FinishedSteps();
  return busy_time_ + (finished > 0 ? segment_ends_[finished - 1] - segment_start_ : 0);
}

double Cpu::Utilization() const {
  const SimTime now = sim_->Now();
  if (now <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy_time()) / static_cast<double>(now);
}

}  // namespace ctms
