#include "src/workload/host_service.h"

#include <utility>

namespace ctms {

ControlServiceProcess::ControlServiceProcess(UnixKernel* kernel, UdpLayer* udp, Rng rng,
                                             Config config)
    : kernel_(kernel),
      udp_(udp),
      rng_(std::move(rng)),
      config_(config),
      kind_(kernel->machine()->cpu().Kind("control-service")) {
  udp_->Bind(config_.port, [this](const Packet& request) { OnRequest(request); });
}

void ControlServiceProcess::OnRequest(const Packet& request) {
  ++requests_;
  Cpu::Job job = kernel_->machine()->cpu().NewJob(kind_, Spl::kNone);
  job.steps.push_back(Cpu::Step{config_.context_switch, nullptr, Spl::kNone});
  job.steps.push_back(Cpu::Step{config_.process_cost, nullptr, Spl::kNone});
  job.on_done = [this, peer = request.src]() {
    ++replies_;
    Packet reply;
    reply.bytes = rng_.UniformInt(config_.reply_min_bytes, config_.reply_max_bytes);
    reply.dst = peer;
    reply.port = config_.port;
    reply.created_at = kernel_->sim()->Now();
    udp_->Output(reply);
  };
  kernel_->machine()->cpu().SubmitProcess(std::move(job));
}

AfsClientDaemon::AfsClientDaemon(UnixKernel* kernel, UdpLayer* udp, Rng rng, Config config)
    : kernel_(kernel),
      udp_(udp),
      rng_(std::move(rng)),
      config_(config),
      kind_(kernel->machine()->cpu().Kind("afs-keepalive")) {}

AfsClientDaemon::~AfsClientDaemon() { Stop(); }

void AfsClientDaemon::Start() {
  Stop();
  running_ = true;
  ScheduleNext();
}

void AfsClientDaemon::Stop() {
  running_ = false;
  if (next_event_ != kInvalidEventId) {
    kernel_->sim()->Cancel(next_event_);
    next_event_ = kInvalidEventId;
  }
}

void AfsClientDaemon::ScheduleNext() {
  if (!running_) {
    return;
  }
  const SimDuration wait = rng_.ExponentialDuration(config_.mean_interval);
  next_event_ = kernel_->sim()->After(wait, [this]() {
    next_event_ = kInvalidEventId;
    Cpu::Job job = kernel_->machine()->cpu().NewJob(kind_, Spl::kNone);
    job.steps.push_back(Cpu::Step{config_.process_cost, nullptr, Spl::kNone});
    job.on_done = [this]() {
      ++keepalives_sent_;
      Packet keepalive;
      keepalive.bytes = rng_.UniformInt(config_.min_bytes, config_.max_bytes);
      keepalive.dst = config_.server;
      keepalive.port = config_.port;
      keepalive.created_at = kernel_->sim()->Now();
      udp_->Output(keepalive);
    };
    kernel_->machine()->cpu().SubmitProcess(std::move(job));
    ScheduleNext();
  });
}

}  // namespace ctms
