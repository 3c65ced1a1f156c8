#include "src/workload/kernel_activity.h"

#include <utility>

namespace ctms {

KernelBackgroundActivity::KernelBackgroundActivity(Machine* machine, Rng rng, Config config)
    : machine_(machine),
      rng_(std::move(rng)),
      config_(config),
      softclock_kind_(machine->cpu().Kind("softclock")),
      short_kind_(machine->cpu().Kind("kern-protected-short")),
      long_kind_(machine->cpu().Kind("kern-protected-long")),
      stall_kind_(machine->cpu().Kind("analysis-stall")) {}

KernelBackgroundActivity::~KernelBackgroundActivity() { Stop(); }

void KernelBackgroundActivity::Start() {
  Stop();
  running_ = true;
  Simulation* sim = machine_->sim();
  const SimDuration phase = rng_.UniformDuration(0, config_.softclock_period);
  softclock_cancel_ =
      SchedulePeriodic(sim, sim->Now() + phase, config_.softclock_period, [this]() {
        machine_->cpu().SubmitInterrupt(softclock_kind_, Spl::kSoftClock, config_.softclock_cost,
                                        nullptr);
      });
  ScheduleNextShortSection();
  ScheduleNextLongSection();
  ScheduleNextStall();
}

void KernelBackgroundActivity::Stop() {
  running_ = false;
  if (softclock_cancel_) {
    softclock_cancel_();
    softclock_cancel_ = nullptr;
  }
  if (short_event_ != kInvalidEventId) {
    machine_->sim()->Cancel(short_event_);
    short_event_ = kInvalidEventId;
  }
  if (long_event_ != kInvalidEventId) {
    machine_->sim()->Cancel(long_event_);
    long_event_ = kInvalidEventId;
  }
  if (stall_event_ != kInvalidEventId) {
    machine_->sim()->Cancel(stall_event_);
    stall_event_ = kInvalidEventId;
  }
}

void KernelBackgroundActivity::ScheduleNextShortSection() {
  if (!running_) {
    return;
  }
  const SimDuration wait = rng_.ExponentialDuration(config_.short_interarrival_mean);
  short_event_ = machine_->sim()->After(wait, [this]() {
    short_event_ = kInvalidEventId;
    const SimDuration length = rng_.UniformDuration(config_.short_min, config_.short_max);
    ++sections_run_;
    machine_->cpu().SubmitInterrupt(short_kind_, config_.section_level, length,
                                    nullptr);
    ScheduleNextShortSection();
  });
}

void KernelBackgroundActivity::ScheduleNextLongSection() {
  if (!running_) {
    return;
  }
  const SimDuration wait = rng_.ExponentialDuration(config_.long_interarrival_mean);
  long_event_ = machine_->sim()->After(wait, [this]() {
    long_event_ = kInvalidEventId;
    const SimDuration length = rng_.UniformDuration(config_.long_min, config_.long_max);
    ++sections_run_;
    machine_->cpu().SubmitInterrupt(long_kind_, config_.section_level, length,
                                    nullptr);
    ScheduleNextLongSection();
  });
}

void KernelBackgroundActivity::ScheduleNextStall() {
  if (!running_ || config_.stall_interarrival_mean <= 0) {
    return;
  }
  const SimDuration wait = rng_.ExponentialDuration(config_.stall_interarrival_mean);
  stall_event_ = machine_->sim()->After(wait, [this]() {
    stall_event_ = kInvalidEventId;
    const SimDuration length = rng_.UniformDuration(config_.stall_min, config_.stall_max);
    ++sections_run_;
    machine_->cpu().SubmitInterrupt(stall_kind_, config_.section_level, length, nullptr);
    ScheduleNextStall();
  });
}

}  // namespace ctms
