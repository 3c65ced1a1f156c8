// The discrete-event core: a slab of event records fronted by a bucketed near-future timer
// wheel, with a compacting binary heap for far timers.
//
// Ordering is (time, insertion sequence): events scheduled for the same instant run in the
// order they were scheduled, which makes every run with the same seed bit-reproducible. The
// wheel/heap split is invisible to that contract — the pop side always compares the wheel's
// earliest live entry against the far heap's by (time, seq).
//
// Layout (see ARCHITECTURE.md, "The event core"):
//  - Event records live in a chunked slab with an intrusive free list; callbacks use
//    small-buffer-optimized storage (InlineFunction), so the steady-state schedule/fire
//    cycle performs no heap allocation.
//  - An EventId is a generation-tagged slot index: Cancel is O(1), reclaims the slot and
//    the callback's captured resources immediately, and a stale handle can never touch a
//    recycled slot (the generation no longer matches).
//  - Events within `wheel_bucket_count * wheel_bucket_width` of the wheel base (which
//    trails the earliest pending event) go into per-bucket min-heaps — this covers the
//    periodic 12 ms VCA tick, adapter DMA completions, and ring token rotation. Farther
//    timers (e.g. 500 ms RTOs) go to a global binary heap whose cancelled entries are
//    compacted away once they outnumber the live ones, so schedule-then-cancel churn
//    (TCP-lite re-arming its RTO on every ack) holds bounded memory.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/inline_function.h"
#include "src/sim/time.h"
#include "src/telemetry/metrics.h"

namespace ctms {

// Opaque handle used to cancel a scheduled event: (generation << 32) | (slot + 1).
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Action = InlineFunction<>;

  struct Config {
    // Both must be powers of two so the per-event bucket math is a shift and a mask, not
    // two integer divisions. 2^16 ns ≈ 65.5 us buckets, 256 of them ≈ 16.8 ms horizon.
    SimDuration wheel_bucket_width = SimDuration{1} << 16;
    size_t wheel_bucket_count = 256;
  };

  EventQueue() : EventQueue(Config()) {}
  explicit EventQueue(const Config& config);

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `action` to run at absolute time `when`. Returns a handle for cancellation.
  EventId Schedule(SimTime when, Action action);

  // Cancels a previously scheduled event. Returns false if the event already ran or was
  // already cancelled. The record's slot and the callback's resources are reclaimed
  // immediately; only a 24-byte index entry lingers (dropped lazily in the wheel, compacted
  // in the far heap once stale entries outnumber live ones).
  bool Cancel(EventId id);

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Time of the earliest pending event. Requires !empty().
  SimTime NextTime();

  // Pops and returns the earliest pending event's action. Requires !empty(). `when`
  // receives the event's scheduled time.
  Action PopNext(SimTime* when);

  // Introspection for tests, telemetry, and the bench.
  size_t slab_slots() const { return slots_used_; }       // high-water distinct slots
  size_t slab_free() const { return free_count_; }        // slots on the free list
  size_t far_heap_entries() const { return heap_.size(); }  // live + not-yet-compacted stale
  size_t wheel_entries() const { return wheel_entries_; }
  uint64_t wheel_pops() const { return wheel_pops_; }
  uint64_t far_heap_pops() const { return heap_pops_; }
  uint64_t far_heap_compactions() const { return heap_compactions_; }
  const Config& config() const { return config_; }

  // Optional registry slots, wired in by Simulation (sim.event_pool.*, sim.event_wheel.*,
  // sim.event_heap.*). Updates are driven purely by event flow, so binding them never
  // perturbs determinism. Any pointer may be null.
  void BindTelemetry(Gauge* slab_slots, Gauge* live_events, Counter* wheel_pops,
                     Counter* heap_pops) {
    slab_gauge_ = slab_slots;
    live_gauge_ = live_events;
    wheel_pops_counter_ = wheel_pops;
    heap_pops_counter_ = heap_pops;
  }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr int32_t kRecordFree = -1;
  static constexpr int32_t kRecordFarHeap = -2;
  static constexpr size_t kChunkSize = 256;  // records per slab chunk

  struct Record {
    // Metadata first: liveness checks and ordering touch only the leading cache line; the
    // 48-byte callback storage is read once, at fire time.
    SimTime when = 0;
    uint64_t seq = 0;
    uint32_t generation = 0;
    int32_t location = kRecordFree;  // physical wheel bucket, kRecordFarHeap, or kRecordFree
    uint32_t next_free = kNoSlot;
    Action action;
  };

  // Index entry stored in wheel buckets and the far heap. Carries (when, seq) so ordering
  // never touches the record; (slot, generation) validates liveness against the slab.
  struct Entry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };
  struct EntryAfter {  // std::push_heap comparator: min-heap on (when, seq)
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  Record& RecordAt(uint32_t slot) { return chunks_[slot / kChunkSize][slot % kChunkSize]; }
  const Record& RecordAt(uint32_t slot) const {
    return chunks_[slot / kChunkSize][slot % kChunkSize];
  }
  bool EntryLive(const Entry& e) const {
    return RecordAt(e.slot).generation == e.generation;
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  int64_t BucketIndex(SimTime when) const { return when <= 0 ? 0 : when >> width_shift_; }

  // Advances wheel_base_ to the first bucket holding a live entry (requires wheel_live_ >
  // 0), clearing emptied buckets, then drops stale entries off both candidate heaps and
  // caches the global minimum. Requires live_ > 0.
  void FindMin();
  void CompactFarHeapIfStale();
  void UpdateGauges();

  Config config_;
  int width_shift_ = 0;       // log2(wheel_bucket_width)
  size_t bucket_mask_ = 0;    // wheel_bucket_count - 1

  // Slab.
  std::vector<std::unique_ptr<Record[]>> chunks_;
  uint32_t free_head_ = kNoSlot;
  size_t free_count_ = 0;
  size_t slots_used_ = 0;  // high-water mark of distinct slots ever handed out
  uint64_t next_seq_ = 1;
  size_t live_ = 0;

  // Near-future wheel: buckets_[b % N] covers absolute bucket index b for
  // b in [wheel_base_, wheel_base_ + N). Each bucket is a (when, seq) min-heap.
  std::vector<std::vector<Entry>> buckets_;
  std::vector<uint32_t> bucket_live_;
  int64_t wheel_base_ = 0;
  size_t base_phys_ = 0;  // wheel_base_ & bucket_mask_, maintained incrementally
  size_t wheel_live_ = 0;
  size_t wheel_entries_ = 0;  // including stale entries not yet dropped

  // Far heap: (when, seq) min-heap with lazy deletion + threshold compaction.
  std::vector<Entry> heap_;
  size_t heap_live_ = 0;

  // Cached result of FindMin, invalidated by any mutation.
  bool min_valid_ = false;
  bool min_in_wheel_ = false;
  Entry min_entry_{};

  uint64_t wheel_pops_ = 0;
  uint64_t heap_pops_ = 0;
  uint64_t heap_compactions_ = 0;

  Gauge* slab_gauge_ = nullptr;
  Gauge* live_gauge_ = nullptr;
  Counter* wheel_pops_counter_ = nullptr;
  Counter* heap_pops_counter_ = nullptr;
};

}  // namespace ctms

#endif  // SRC_SIM_EVENT_QUEUE_H_
