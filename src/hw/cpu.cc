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

Spl Cpu::StepLevel(const ActiveJob& active, size_t step) const {
  const Spl step_spl = active.step(step).spl;
  return SplValue(step_spl) > SplValue(active.job.level) ? step_spl : active.job.level;
}

Spl Cpu::EffectiveLevel(const ActiveJob& active) const {
  if (active.next_step >= active.step_count()) {
    return active.job.level;
  }
  return StepLevel(active, active.next_step);
}

SimDuration Cpu::Stretched(SimDuration d) const {
  if (contention_count_ > 0) {
    return static_cast<SimDuration>(static_cast<double>(d) * contention_stretch_);
  }
  return d;
}

Cpu::JobKind* Cpu::Kind(std::string_view name) {
  for (JobKind& kind : kinds_) {
    if (kind.name == name) {
      return &kind;
    }
  }
  JobKind& kind = kinds_.emplace_back();
  kind.name = name;
  return &kind;
}

Cpu::Job Cpu::NewJob(JobKind* kind, Spl level) {
  Job job;
  job.kind = kind;
  job.level = level;
  job.steps = TakeSteps();
  return job;
}

SimDuration Cpu::DispatchLatency() {
  // Interrupt dispatch (context save, vectoring) runs as an implicit leading step at the
  // job's own level; jitter reflects microarchitectural variation, not kernel state.
  return dispatch_base_ +
         (dispatch_jitter_ > 0 ? sim_->rng().UniformDuration(0, dispatch_jitter_) : 0);
}

Cpu::Holder Cpu::Hold(Job job, bool interrupt) {
  Holder holder = TakeHolder();
  holder->job = std::move(job);
  if (interrupt) {
    holder->lead = 1;
    holder->dispatch.duration = DispatchLatency();
    holder->dispatch.spl = holder->job.level;
    interrupts_counter_->Increment();
  }
  return holder;
}

void Cpu::SubmitInterrupt(Job job) { Enqueue(Hold(std::move(job), /*interrupt=*/true)); }

void Cpu::SubmitProcess(Job job) { Enqueue(Hold(std::move(job), /*interrupt=*/false)); }

void Cpu::SubmitInterrupt(JobKind* kind, Spl level, SimDuration duration, Action action) {
  Job job = NewJob(kind, level);
  job.steps.push_back(Step{duration, std::move(action), level});
  SubmitInterrupt(std::move(job));
}

Cpu::Holder Cpu::TakeHolder() {
  if (spare_holders_.empty()) {
    return std::make_unique<ActiveJob>();
  }
  Holder holder = std::move(spare_holders_.back());
  spare_holders_.pop_back();
  return holder;
}

std::vector<Cpu::Step> Cpu::TakeSteps() {
  if (spare_steps_.empty()) {
    return {};
  }
  std::vector<Step> steps = std::move(spare_steps_.back());
  spare_steps_.pop_back();
  return steps;
}

void Cpu::Recycle(Holder holder) {
  Job& job = holder->job;
  job.on_done.Reset();
  job.steps.clear();
  if (job.steps.capacity() > 0) {
    spare_steps_.push_back(std::move(job.steps));
  }
  holder->next_step = 0;
  holder->lead = 0;
  spare_holders_.push_back(std::move(holder));
}

void Cpu::CancelAll() {
  CreditSteps(FinishedSteps());  // steps that ended before the cancel were busy time
  if (current_ != nullptr) {
    Recycle(std::move(current_));
  }
  for (Holder& holder : preempted_) {
    Recycle(std::move(holder));
  }
  preempted_.clear();
  for (Holder& holder : pending_) {
    Recycle(std::move(holder));
  }
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

void Cpu::Enqueue(Holder holder) {
  assert(holder->job.kind != nullptr);
  jobs_submitted_counter_->Increment();
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
      pending_.erase(pending_.begin());
    }
  }
  if (current_ == nullptr) {
    return;  // idle
  }
  if (current_->next_step >= current_->step_count()) {
    // Degenerate job with no steps (or all steps already run): complete it immediately. Its
    // captures die after the nested dispatch, as they did when the job was a local.
    Holder finished = std::move(current_);
    ++jobs_completed_;
    jobs_completed_counter_->Increment();
    if (finished->job.on_done) {
      finished->job.on_done();
    }
    ScheduleNext();
    Recycle(std::move(finished));
    return;
  }
  StartSegment();
}

void Cpu::StartSegment() {
  assert(current_ != nullptr);
  assert(current_->next_step < current_->step_count());
  segment_in_flight_ = true;
  const ActiveJob& active = *current_;
  const size_t step_count = active.step_count();
  segment_first_ = current_->next_step;
  segment_level_ = StepLevel(active, segment_first_);
  segment_start_ = sim_->Now();
  segment_ends_.clear();
  SimTime end = segment_start_;
  size_t next = segment_first_;
  while (true) {
    const Step& step = active.step(next);
    const SimDuration elapsed = Stretched(step.duration);
    end += elapsed;
    segment_ends_.push_back(end);
    ++next;
    // A zero-time step ends its segment too, so interior boundaries are strictly increasing
    // and "the first boundary after now" is never ambiguous.
    if (step.action || elapsed == 0 || next == step_count ||
        StepLevel(active, next) != segment_level_) {
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
  Action action = std::move(current_->step(current_->next_step - 1).action);
  if (action) {
    action();  // may submit new jobs; segment_in_flight_ still true so no re-entrancy
  }
  segment_in_flight_ = false;
  if (current_ != nullptr && current_->next_step >= current_->step_count()) {
    Holder finished = std::move(current_);
    ++jobs_completed_;
    jobs_completed_counter_->Increment();
    if (finished->job.on_done) {
      finished->job.on_done();
    }
    Recycle(std::move(finished));
  }
  ScheduleNext();
}

void Cpu::CreditSteps(size_t count) {
  if (count == 0) {
    return;
  }
  const ActiveJob& active = *current_;
  JobKind* kind = active.job.kind;
  const SimDuration elapsed = segment_ends_[count - 1] - segment_start_;
  busy_time_ += elapsed;
  kind->busy += elapsed;
  kind->ran = true;
  steps_counter_->Increment(count);
  SpanTracer& tracer = sim_->telemetry().tracer;
  if (tracer.enabled()) {
    SimTime start = segment_start_;
    for (size_t i = 0; i < count; ++i) {
      tracer.AddComplete(
          track_, kind->name, start, segment_ends_[i] - start,
          {{"spl", static_cast<int64_t>(SplValue(active.step(segment_first_ + i).spl))}});
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

std::map<std::string, SimDuration> Cpu::busy_by_job() const {
  std::map<std::string, SimDuration> busy;
  for (const JobKind& kind : kinds_) {
    if (kind.ran) {
      busy.emplace(kind.name, kind.busy);
    }
  }
  return busy;
}

double Cpu::Utilization() const {
  const SimTime now = sim_->Now();
  if (now <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy_time()) / static_cast<double>(now);
}

}  // namespace ctms
