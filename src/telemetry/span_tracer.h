// SpanTracer: a structured timeline of the simulated system, exportable as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// The tracer records typed tuples (track, name, start, duration, args) keyed to SimTime.
// Tracks map to Chrome "threads": one per CPU, per DMA engine, one for the ring, one per
// driver — so a packet's life from VCA IRQ to rx-classify is visually inspectable as
// stacked spans.
//
// Disabled by default; when disabled every record call returns after one branch. Recording
// costs zero *simulated* time and reads only SimTime values passed by the caller, so
// enabling the tracer never perturbs a run.

#ifndef SRC_TELEMETRY_SPAN_TRACER_H_
#define SRC_TELEMETRY_SPAN_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace ctms {

// Track handle; doubles as the Chrome "tid".
using TrackId = int;
inline constexpr TrackId kInvalidTrackId = -1;

struct TraceArg {
  std::string key;
  int64_t value = 0;
};

struct TraceSpan {
  enum class Phase {
    kComplete,  // a duration: Chrome "X"
    kInstant,   // a point event: Chrome "i"
  };
  Phase phase = Phase::kComplete;
  TrackId track = 0;
  std::string name;
  SimTime start = 0;
  SimDuration duration = 0;
  std::vector<TraceArg> args;
};

class SpanTracer {
 public:
  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Caps memory use; the oldest half is discarded when the cap is hit (dropped() says how
  // many; the exporter reports it so a truncated trace is never mistaken for a full one).
  void set_capacity(size_t max_spans) { max_spans_ = max_spans; }

  // Registers a display track. Cheap; safe to call while disabled (track metadata is kept
  // so a tracer enabled mid-run still labels everything).
  TrackId RegisterTrack(const std::string& name);
  const std::vector<std::string>& tracks() const { return tracks_; }

  // Records a completed span [start, start + duration).
  void AddComplete(TrackId track, std::string name, SimTime start, SimDuration duration,
                   std::vector<TraceArg> args = {});

  // Records a point event at `at`.
  void AddInstant(TrackId track, std::string name, SimTime at,
                  std::vector<TraceArg> args = {});

  const std::vector<TraceSpan>& spans() const { return spans_; }
  size_t dropped() const { return dropped_; }
  void Clear();

 private:
  void Append(TraceSpan span);

  std::vector<std::string> tracks_;
  std::vector<TraceSpan> spans_;
  size_t max_spans_ = 1 << 20;
  size_t dropped_ = 0;
  bool enabled_ = false;
};

}  // namespace ctms

#endif  // SRC_TELEMETRY_SPAN_TRACER_H_
