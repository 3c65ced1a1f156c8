// Probe points and the probe bus.
//
// The paper instruments four points (section 5.2):
//   1. the VCA adapter's Interrupt Request line,
//   2. entry into the VCA interrupt handler,
//   3. immediately after the packet is copied into the fixed DMA buffer and immediately
//      before the Token Ring adapter is given the transmit command,
//   4. immediately after a received packet is determined to be a CTMSP packet.
//
// Instrumented code paths call ProbeBus::Emit at those instants. Crucially, instrumentation
// is intrusive: the in-line recording code costs CPU time in the instrumented path itself
// (a port write for the PC/AT method, a procedure call for the pseudo-device method). The
// driver queries inline_cost() and inserts that time into its own step sequence, so choosing
// a measurement method perturbs the system exactly as it did in 1991.

#ifndef SRC_MEASURE_PROBE_H_
#define SRC_MEASURE_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace ctms {

enum class ProbePoint : int {
  kVcaIrq = 1,           // hardware edge; only external tools can see this
  kVcaHandlerEntry = 2,  // software
  kPreTransmit = 3,      // software
  kRxClassified = 4,     // software
};

const char* ProbePointName(ProbePoint point);

// Flat per-point tables index by ProbeIndex: kVcaIrq is 0, kRxClassified is 3.
inline constexpr size_t kProbePointCount = 4;
inline constexpr size_t ProbeIndex(ProbePoint point) { return static_cast<size_t>(point) - 1; }

struct ProbeEvent {
  ProbePoint point = ProbePoint::kVcaIrq;
  uint32_t seq = 0;    // packet number (instruments may truncate it, e.g. to 7 bits)
  SimTime time = 0;    // ground-truth emission instant

  bool operator==(const ProbeEvent&) const = default;
};

class ProbeBus {
 public:
  using Listener = std::function<void(const ProbeEvent&)>;

  void Subscribe(Listener listener) { listeners_.push_back(std::move(listener)); }

  // CPU time the in-line recording code adds at each *software* probe point (points 2-4).
  // Zero when measuring with non-intrusive tools only.
  void set_inline_cost(SimDuration cost) { inline_cost_ = cost; }
  SimDuration inline_cost() const { return inline_cost_; }

  // Index-based so a listener that Subscribes from inside its callback (instruments attach
  // lazily on first sight of a stream) cannot invalidate the traversal; late subscribers
  // first hear the *next* event, deterministically.
  void Emit(ProbePoint point, uint32_t seq, SimTime now) {
    const ProbeEvent event{point, seq, now};
    const size_t count = listeners_.size();
    for (size_t i = 0; i < count; ++i) {
      listeners_[i](event);
    }
  }

 private:
  std::vector<Listener> listeners_;
  SimDuration inline_cost_ = 0;
};

}  // namespace ctms

#endif  // SRC_MEASURE_PROBE_H_
