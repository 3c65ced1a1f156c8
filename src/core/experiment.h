// CtmsExperiment: assembles the full testbed for a scenario — two RT/PC hosts on a Token
// Ring, the modified drivers, a CTMSP connection, the chosen measurement instrument, TAP on
// the ring, and the background environment — runs it, and reports the paper's histograms
// plus delivery/CPU/ring statistics.

#ifndef SRC_CORE_EXPERIMENT_H_
#define SRC_CORE_EXPERIMENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/scenario.h"
#include "src/dev/tr_driver.h"
#include "src/dev/vca.h"
#include "src/hw/machine.h"
#include "src/kern/unix_kernel.h"
#include "src/measure/interval_analyzer.h"
#include "src/measure/recorders.h"
#include "src/measure/tap.h"
#include "src/proto/ctmsp.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"
#include "src/testbed/station.h"
#include "src/testbed/stream.h"
#include "src/testbed/topology.h"

namespace ctms {

struct ExperimentReport {
  CtmsConfig config;

  // The paper's histograms 1-7 as seen by the configured instrument, and by the simulator's
  // perfect observer (so measurement error itself can be studied).
  PaperHistograms measured;
  PaperHistograms ground_truth;

  // Stream accounting.
  uint64_t irq_count = 0;
  uint64_t packets_built = 0;
  uint64_t packets_delivered = 0;
  uint64_t packets_lost = 0;
  uint64_t duplicates = 0;
  uint64_t out_of_order = 0;
  uint64_t source_mbuf_drops = 0;
  uint64_t source_queue_drops = 0;
  uint64_t retransmissions = 0;
  uint64_t late_recovered = 0;  // purge losses repaired by a late retransmission
  // Recovery families (zero whenever config.recovery == kNone).
  uint64_t repaired = 0;              // FEC-rebuilt losses
  uint64_t nacks_sent = 0;            // reverse-signalling messages
  uint64_t resends = 0;               // NACK-triggered retransmissions
  int64_t parity_overhead_bytes = 0;  // wire bytes spent on parity

  // Presentation quality.
  uint64_t sink_underruns = 0;
  int64_t sink_peak_buffer = 0;
  Histogram sink_latency{"sink latency"};

  // System load.
  double tx_cpu_utilization = 0.0;
  double rx_cpu_utilization = 0.0;
  double ring_utilization = 0.0;

  // Ring events.
  uint64_t ring_purges = 0;
  uint64_t ring_insertions = 0;
  uint64_t frames_lost_to_purge = 0;

  // TAP's view of the CTMSP stream and of the ring.
  TapMonitor::StreamReport tap_ctmsp;
  double tap_mac_fraction = 0.0;

  // Copy accounting (per machine, whole run).
  uint64_t tx_cpu_copies = 0;
  uint64_t rx_cpu_copies = 0;
  uint64_t tx_dma_copies = 0;
  uint64_t rx_dma_copies = 0;

  // Multi-line human-readable digest.
  std::string Summary() const;
};

class CtmsExperiment {
 public:
  explicit CtmsExperiment(CtmsConfig config);

  CtmsExperiment(const CtmsExperiment&) = delete;
  CtmsExperiment& operator=(const CtmsExperiment&) = delete;

  ~CtmsExperiment();

  // Starts the stream and environment, runs for config.duration, and reports.
  ExperimentReport Run();

  // Finer-grained control for examples and tests: Start the machinery, advance time
  // yourself, then Report().
  void Start();
  ExperimentReport Report();

  // Stops the source and cancels any degradation retry still sitting in backoff — the
  // mid-flight-teardown path. Also runs from the destructor, so a retry can never outlive
  // the experiment that owns the driver it targets.
  void StopStream();

  // --- component access -----------------------------------------------------------------
  Simulation& sim() { return topo_.sim(); }
  TokenRing& ring() { return topo_.ring(); }
  RingTopology& topology() { return topo_; }
  Machine& tx_machine() { return tx_->machine(); }
  Machine& rx_machine() { return rx_->machine(); }
  TokenRingDriver& tx_driver() { return tx_->driver(); }
  TokenRingDriver& rx_driver() { return rx_->driver(); }
  VcaSourceDriver& source() { return stream_->vca_source(); }
  VcaSinkDriver& sink() { return stream_->sink(); }
  CtmspTransmitter& transmitter() { return stream_->transmitter(); }
  CtmspReceiver& receiver() { return stream_->receiver(); }
  ProbeBus& probes() { return topo_.probes(); }
  TapMonitor& tap() { return *tap_; }
  // Installed only when config.degradation != kDropOldest.
  DegradationPolicy* degradation_policy() { return degradation_.get(); }
  GroundTruthRecorder& ground_truth() { return *ground_truth_; }
  PcAtTimestamper* pcat() { return pcat_.get(); }

 private:
  // The paper histograms as the configured instrument saw them; the ground-truth method
  // reuses the histograms already built from `ground_truth`.
  PaperHistograms MeasuredHistograms(const PaperHistograms& ground_truth) const;

  CtmsConfig config_;
  RingTopology topo_;  // owns the simulation, probes, ring, both stations, and environment
  Station* tx_ = nullptr;
  Station* rx_ = nullptr;
  std::unique_ptr<StreamEndpoints> stream_;
  std::unique_ptr<DegradationPolicy> degradation_;
  // Backoff retries currently pending; entries erase themselves when they fire.
  std::map<uint64_t, EventId> pending_retries_;
  uint64_t next_retry_token_ = 0;
  // Set by StopStream: late transmit failures must not schedule new retries.
  bool stream_stopped_ = false;

  std::unique_ptr<GroundTruthRecorder> ground_truth_;
  std::unique_ptr<RtPcPseudoDevice> rtpc_;
  std::unique_ptr<PcAtTimestamper> pcat_;
  std::unique_ptr<LogicAnalyzer> logic_;
  std::unique_ptr<TapMonitor> tap_;

  bool started_ = false;
};

}  // namespace ctms

#endif  // SRC_CORE_EXPERIMENT_H_
