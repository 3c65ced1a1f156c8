#include "src/core/multi_stream.h"

#include <sstream>
#include <utility>

namespace ctms {

MultiStreamExperiment::MultiStreamExperiment(MultiStreamConfig config)
    : config_(std::move(config)), topo_(config_.seed) {
  const std::vector<MediaClass> classes = ResolveWorkload(config_.workload);
  if (!classes.empty()) {
    config_.streams = static_cast<int>(classes.size());
  }
  TokenRing& ring = topo_.AddRing();

  Station::PortConfig port;
  port.adapter.dma_buffer_kind = config_.dma_buffer_kind;
  port.driver.ctms_mode = true;
  port.driver.ctmsp_ring_priority = config_.ring_priority;

  for (int i = 0; i < config_.streams; ++i) {
    Stream stream;
    stream.tx = &topo_.AddStation("tx" + std::to_string(i));
    stream.tx->AttachRing(&ring, &topo_.probes(), port);
    stream.tx->AttachBackgroundActivity(topo_.sim().rng().Fork());
    stream.rx = &topo_.AddStation("rx" + std::to_string(i));
    stream.rx->AttachRing(&ring, &topo_.probes(), port);
    stream.rx->AttachBackgroundActivity(topo_.sim().rng().Fork());

    StreamEndpoints::Config endpoints;
    endpoints.connection.ring_priority = config_.ring_priority;
    endpoints.source.packet_bytes = config_.packet_bytes;
    endpoints.source.period = config_.packet_period;
    endpoints.sink.playout_bytes = config_.packet_bytes;
    endpoints.sink.playout_period = config_.packet_period;
    endpoints.sink.prime_packets = 5;  // shared-ring queueing needs a little more smoothing
    if (!classes.empty()) {
      endpoints.media_class = classes[static_cast<size_t>(i)];
    }
    stream.endpoints = std::make_unique<StreamEndpoints>(stream.tx, stream.rx,
                                                         &topo_.probes(), endpoints);
    streams_.push_back(std::move(stream));
  }

  BackgroundEnvironment& env = topo_.environment();
  env.AddMacTraffic(&ring, MacFrameTraffic::Config{config_.mac_fraction});
  if (config_.background_keepalives) {
    env.AddKeepaliveChatter(&ring, Milliseconds(120));
  }

  topo_.ApplyFaultPlan(config_.faults);
}

MultiStreamReport MultiStreamExperiment::Run() {
  for (Stream& stream : streams_) {
    stream.tx->StartHardclock();
    stream.rx->StartHardclock();
    stream.tx->StartActivity();
    stream.rx->StartActivity();
  }
  topo_.environment().StartMacTraffic();
  topo_.environment().StartGhosts();
  // Stagger stream starts across one period so sources do not fire in lockstep.
  SimDuration stagger = 0;
  const SimDuration step = config_.packet_period / (config_.streams + 1);
  for (Stream& stream : streams_) {
    StreamEndpoints* endpoints = stream.endpoints.get();
    topo_.sim().After(stagger, [endpoints]() { endpoints->Start(); });
    stagger += step;
  }
  topo_.sim().RunFor(config_.duration);

  MultiStreamReport report;
  report.config = config_;
  for (Stream& stream : streams_) {
    report.streams.push_back(stream.endpoints->Stats());
  }
  report.ring_utilization = topo_.ring().Utilization();
  return report;
}

bool MultiStreamReport::AllSustained() const {
  for (const StreamStats& stream : streams) {
    if (stream.built == 0 || stream.lost > 0 || stream.underruns > 0 ||
        stream.queue_drops > 0 || stream.delivered + 2 < stream.built) {
      return false;
    }
  }
  return !streams.empty();
}

std::string MultiStreamReport::Summary() const {
  std::ostringstream os;
  if (config.workload.empty()) {
    os << config.streams << " streams of "
       << static_cast<double>(config.packet_bytes) / (ToSecondsF(config.packet_period) * 1000.0)
       << " KB/s";
  } else {
    os << config.streams << " streams of mixed media classes";
  }
  os << ": ring " << ring_utilization * 100.0 << "% busy, "
     << (AllSustained() ? "ALL SUSTAINED" : "DEGRADED") << "\n";
  int index = 0;
  for (const StreamStats& stream : streams) {
    os << "  stream " << index++;
    if (!stream.media_class.empty()) {
      os << " [" << stream.media_class << "]";
    }
    os << ": " << stream.delivered << "/" << stream.built << " delivered, " << stream.lost
       << " lost, " << stream.queue_drops << " drops, " << stream.underruns
       << " underruns, latency mean " << FormatDuration(stream.mean_latency) << " max "
       << FormatDuration(stream.max_latency);
    if (!stream.media_class.empty()) {
      os << ", " << stream.deadline_misses << " deadline misses, distortion "
         << stream.distortion;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ctms
