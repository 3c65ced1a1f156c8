// Multi-stream capacity: several independent CTMSP connections sharing one 4 Mbit ring.
//
// The paper streams one 150 KB/s-class connection and leaves capacity unexplored. This
// experiment answers the obvious next question — how many such streams fit — by putting N
// transmitter/receiver host pairs on the ring, each running the full modified stack, and
// reporting per-stream delivery quality as the wire saturates (each 2000-byte/12 ms stream
// takes ~34% of the ring, so the interesting range is 1..3).

#ifndef SRC_CORE_MULTI_STREAM_H_
#define SRC_CORE_MULTI_STREAM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/scenario.h"
#include "src/dev/media_source.h"
#include "src/fault/fault_plan.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"
#include "src/testbed/station.h"
#include "src/testbed/stream.h"
#include "src/testbed/topology.h"

namespace ctms {

struct MultiStreamConfig {
  int streams = 2;
  int64_t packet_bytes = 2000;
  SimDuration packet_period = Milliseconds(12);
  // Declarative workload block (--mix). Non-empty overrides streams/packet_bytes/
  // packet_period: one stream per resolved class entry, each with that class's rate model
  // and QoE accounting. Empty keeps the legacy N-identical-VCA construction bit-for-bit.
  std::vector<WorkloadEntry> workload;
  MemoryKind dma_buffer_kind = MemoryKind::kIoChannelMemory;
  int ring_priority = 6;  // all streams share the priority level (FIFO among them)
  double mac_fraction = 0.002;
  bool background_keepalives = true;
  SimDuration duration = Seconds(30);
  uint64_t seed = 1;
  FaultPlan faults;  // empty = no injector; runs stay bit-identical to plan-free ones
};

struct MultiStreamReport {
  MultiStreamConfig config;
  std::vector<StreamStats> streams;
  double ring_utilization = 0.0;
  // True when every stream delivered everything glitch-free.
  bool AllSustained() const;
  std::string Summary() const;
};

class MultiStreamExperiment {
 public:
  explicit MultiStreamExperiment(MultiStreamConfig config);

  MultiStreamExperiment(const MultiStreamExperiment&) = delete;
  MultiStreamExperiment& operator=(const MultiStreamExperiment&) = delete;

  MultiStreamReport Run();

  Simulation& sim() { return topo_.sim(); }
  TokenRing& ring() { return topo_.ring(); }
  RingTopology& topology() { return topo_; }

 private:
  struct Stream {
    Station* tx = nullptr;
    Station* rx = nullptr;
    std::unique_ptr<StreamEndpoints> endpoints;
  };

  MultiStreamConfig config_;
  RingTopology topo_;
  std::vector<Stream> streams_;
};

}  // namespace ctms

#endif  // SRC_CORE_MULTI_STREAM_H_
