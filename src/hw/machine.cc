#include "src/hw/machine.h"

#include <utility>

namespace ctms {

Machine::Machine(Simulation* sim, std::string name)
    : sim_(sim),
      name_(std::move(name)),
      cpu_(sim, name_ + ".cpu"),
      hardclock_kind_(cpu_.Kind("hardclock")) {}

SimDuration Machine::ChargeCpuCopy(int64_t bytes, MemoryKind src, MemoryKind dst) {
  copies_.RecordCpuCopy(bytes);
  return copies_.CopyCost(bytes, src, dst);
}

void Machine::StartHardclock(SimDuration handler_cost) {
  StopHardclock();
  // Stagger the first tick by a machine-name hash so co-simulated machines do not tick in
  // lockstep (real clocks are not phase-aligned either).
  const SimDuration period = Milliseconds(10);
  SimDuration phase = 0;
  for (const char c : name_) {
    phase = (phase * 31 + c) % period;
  }
  hardclock_cancel_ = SchedulePeriodic(sim_, sim_->Now() + phase, period, [this, handler_cost]() {
    cpu_.SubmitInterrupt(hardclock_kind_, Spl::kClock, handler_cost, nullptr);
  });
}

void Machine::StopHardclock() {
  if (hardclock_cancel_) {
    hardclock_cancel_();
    hardclock_cancel_ = nullptr;
  }
}

}  // namespace ctms
