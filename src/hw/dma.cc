#include "src/hw/dma.h"

#include <utility>

#include "src/hw/cpu.h"

namespace ctms {

DmaEngine::DmaEngine(Simulation* sim, std::string name, Cpu* cpu, CopyEngine* accounting)
    : sim_(sim), name_(std::move(name)), cpu_(cpu), accounting_(accounting) {
  Telemetry& telemetry = sim_->telemetry();
  const std::string prefix = "dma." + name_ + ".";
  transfers_counter_ = telemetry.metrics.GetCounter(prefix + "transfers");
  bytes_counter_ = telemetry.metrics.GetCounter(prefix + "bytes");
  track_ = telemetry.tracer.RegisterTrack(name_);
}

void DmaEngine::Transfer(int64_t bytes, MemoryKind buffer_kind, Done on_done) {
  Request request{bytes, buffer_kind, std::move(on_done)};
  if (busy_) {
    queue_.push_back(std::move(request));
    return;
  }
  Start(std::move(request));
}

void DmaEngine::Start(Request request) {
  busy_ = true;
  active_ = std::move(request);
  const bool steals_cpu_cycles =
      cpu_ != nullptr && active_.buffer_kind == MemoryKind::kSystemMemory;
  if (steals_cpu_cycles) {
    cpu_->BeginMemoryContention();
  }
  sim_->After(TransferTime(active_.bytes),
              [this, steals_cpu_cycles]() { Finish(steals_cpu_cycles); });
}

void DmaEngine::Finish(bool steals_cpu_cycles) {
  // Taken out of the engine first: on_done may queue the next transfer, and its captures
  // die when this completion returns.
  Request request = std::move(active_);
  if (steals_cpu_cycles) {
    cpu_->EndMemoryContention();
  }
  ++transfers_completed_;
  bytes_transferred_ += request.bytes;
  transfers_counter_->Increment();
  bytes_counter_->Increment(static_cast<uint64_t>(request.bytes));
  SpanTracer& tracer = sim_->telemetry().tracer;
  if (tracer.enabled()) {
    tracer.AddComplete(track_, "dma_transfer", sim_->Now() - TransferTime(request.bytes),
                       TransferTime(request.bytes),
                       {{"bytes", request.bytes}, {"contends_cpu", steals_cpu_cycles ? 1 : 0}});
  }
  if (accounting_ != nullptr) {
    accounting_->RecordDmaCopy(request.bytes);
  }
  if (request.on_done) {
    request.on_done();
  }
  busy_ = false;
  if (!queue_.empty()) {
    Start(queue_.take_front());
  }
}

}  // namespace ctms
