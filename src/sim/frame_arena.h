// The zero-copy frame arena: payload descriptors allocated once at the source and passed
// by handle through kern → driver → adapter → ring → bridge, instead of being re-wrapped
// (and reference-counted through the allocator) at every hop.
//
// Design mirrors the event slab (src/sim/event_queue.h): slots live in a chunked slab with
// an intrusive free list, and a FrameHandle is a generation-tagged slot index, so a stale
// handle can never touch a recycled slot. Refcounting is plain (non-atomic) — every slot is
// only ever touched from its owning Simulation's thread; the fabric moves payloads across
// shards exclusively through Adopt() during the single-threaded outbox drain between sync
// rounds.
//
// Two reference flavors, deliberately asymmetric:
//   PayloadRef   — a *strong* reference: holds the slot's refcount above zero, so the slot
//                  cannot be recycled under it. It therefore caches the Slot pointer
//                  directly (slab chunks never move), making copy/destroy a single
//                  non-atomic integer op — the whole point of replacing shared_ptr on the
//                  per-packet hot path.
//   FrameHandle  — a *weak* name: generation-tagged slot index for code that stores an id
//                  without holding a reference (tests, debug dumps). Resolving one always
//                  revalidates index + generation + liveness via SlotFor.
//
// The mbuf pool stays the paper-faithful *accounting* model. A payload allocated from a
// kernel carries a ChainCharge — a type-erased record of the mbuf/cluster counts the pool
// charged for it. The charge is released (pool credited, waiters served) at exactly the
// point the legacy code's last mbuf-chain reference died: the driver's transmit-command
// step, or the drop point for packets that never reach the wire (the last PayloadRef
// releases a still-attached charge automatically). The payload slot itself may live on —
// riding the frame across the wire and through forwarding hops — without ever touching a
// pool again, which is what makes multi-hop forwarding copy-free while every mbuf gauge,
// failure counter, and exhaustion wait stays bit-identical.
//
// Lifetime invariant: a *charged* PayloadRef must never outlive the MbufPool it is charged
// against. Charges exist only between source allocation and the transmit command (or drop),
// inside station-owned queues, the driver's parked transmit packet and CPU jobs, all of
// which die while the kernel (and its pool) is still alive: ~Station drains the CPU, and
// its ports (queues, driver) are destroyed before its kernel. The arena itself is a Simulation member declared
// before the event queue, so any closure in the queue that still holds a PayloadRef dies
// before the arena does; ~FrameArena never invokes leftover charges.

#ifndef SRC_SIM_FRAME_ARENA_H_
#define SRC_SIM_FRAME_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ctms {

class FrameArena;

// Generation-tagged slot index. Default-constructed = invalid.
struct FrameHandle {
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  uint32_t index = kNoSlot;
  uint32_t generation = 0;

  bool valid() const { return index != kNoSlot; }
  friend bool operator==(const FrameHandle& a, const FrameHandle& b) {
    return a.index == b.index && a.generation == b.generation;
  }
  friend bool operator!=(const FrameHandle& a, const FrameHandle& b) { return !(a == b); }
};

// Type-erased record of what an allocator charged for this payload. The arena credits it
// back by calling `release(pool, mbufs, clusters)` — the kern layer supplies a trampoline
// onto MbufPool::Free, keeping the sim core free of any kern dependency.
struct ChainCharge {
  void* pool = nullptr;
  void (*release)(void* pool, int mbufs, int clusters) = nullptr;
  int mbufs = 0;
  int clusters = 0;

  bool attached() const { return release != nullptr; }
};

namespace internal {

// One arena slot. Lives in a chunked slab owned by FrameArena; addresses are stable for
// the arena's lifetime (chunks are never moved or freed), which is what lets PayloadRef
// cache the pointer. `index` is the slot's own slab index, stored so the free-list push at
// last-release needs no pointer arithmetic across chunks.
struct FrameSlot {
  uint32_t generation = 0;
  uint32_t refcount = 0;
  uint32_t next_free = FrameHandle::kNoSlot;
  uint32_t index = 0;
  int32_t segments = 0;
  int64_t bytes = 0;
  ChainCharge charge;
};

}  // namespace internal

// RAII strong reference to an arena slot: copying retains, destruction releases; 16 bytes,
// no atomics, no heap — the drop-in replacement for the shared_ptr<MbufChain> the hot path
// used to carry. Holds a direct slot pointer (see the header comment): copy/destroy is one
// predictable non-atomic increment/decrement.
class PayloadRef {
 public:
  PayloadRef() = default;
  // noexcept, so a closure holding a `const Packet` (a capture of a `const Packet&`) is
  // nothrow-movable and stays inside an InlineFunction's buffer.
  PayloadRef(const PayloadRef& other) noexcept;
  PayloadRef& operator=(const PayloadRef& other);
  PayloadRef(PayloadRef&& other) noexcept : arena_(other.arena_), slot_(other.slot_) {
    other.arena_ = nullptr;
    other.slot_ = nullptr;
  }
  PayloadRef& operator=(PayloadRef&& other) noexcept;
  ~PayloadRef() { reset(); }

  bool valid() const { return slot_ != nullptr; }
  FrameArena* arena() const { return arena_; }
  FrameHandle handle() const;
  int64_t bytes() const { return slot_ == nullptr ? 0 : slot_->bytes; }
  int segments() const { return slot_ == nullptr ? 0 : slot_->segments; }

  // Drops this reference (freeing the slot — and releasing a still-attached charge — if it
  // was the last one).
  void reset();

 private:
  friend class FrameArena;
  PayloadRef(FrameArena* arena, internal::FrameSlot* slot) : arena_(arena), slot_(slot) {}

  FrameArena* arena_ = nullptr;
  internal::FrameSlot* slot_ = nullptr;
};

class FrameArena {
 public:
  struct Stats {
    uint64_t allocations = 0;     // fresh payloads (source allocations)
    uint64_t adoptions = 0;       // cross-arena handle adoptions (fabric bridges)
    uint64_t charge_releases = 0; // mbuf accounting credits routed through the arena
    size_t live = 0;              // slots currently referenced
    size_t peak_live = 0;
    size_t slots = 0;             // high-water distinct slots (slab size)
  };

  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  // Slots still live at destruction (there should be none — see the lifetime invariant in
  // the header comment) are dropped without invoking their charges: the pools they point at
  // are already gone.
  ~FrameArena() = default;

  // Allocates a payload slot of `bytes` with refcount 1. `segments` is the mbuf-chain shape
  // callers previously read off the chain (per-segment copy overhead); `charge` is the
  // accounting debt to credit back at release-chain time. Defined inline below — this and
  // the refcount ops are the per-packet hot path the bench gate measures.
  PayloadRef Allocate(int64_t bytes, int segments, ChainCharge charge = ChainCharge{});

  // Cross-arena adoption: clones `source`'s descriptor into THIS arena (fresh slot, same
  // bytes/segments, refcount 1). The source reference is left untouched; the caller drops
  // it on its own shard's terms. Requires the source's charge to be already released —
  // accounting never crosses a shard boundary. Same-arena adoption is just a retain.
  PayloadRef Adopt(const PayloadRef& source);

  // Credits the mbuf accounting charge back to its pool *now*, keeping the payload slot
  // alive. Idempotent; no-op for uncharged slots. This is the driver's transmit-command
  // hook — the exact point the legacy chain reference died.
  void ReleaseChain(const PayloadRef& ref);

  bool IsLive(FrameHandle handle) const;
  int64_t bytes(FrameHandle handle) const;
  int segments(FrameHandle handle) const;
  uint32_t refcount(FrameHandle handle) const;  // 0 for stale handles
  bool charged(FrameHandle handle) const;
  const Stats& stats() const { return stats_; }

 private:
  friend class PayloadRef;
  using Slot = internal::FrameSlot;
  static constexpr size_t kChunkSize = 256;  // slots per slab chunk

  // Weak-name resolution: validates index, generation, and liveness. Returns nullptr for
  // anything stale. Strong refs (PayloadRef) bypass this — their slot pointer is pinned.
  Slot* SlotFor(FrameHandle handle);
  const Slot* SlotFor(FrameHandle handle) const;
  uint32_t PopFreeSlot();
  uint32_t GrowSlot();  // cold tail of PopFreeSlot: extends the slab (out of line)
  void Release(Slot* slot);
  void ReleaseLast(Slot* slot);  // cold tail of Release (out of line)

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t free_head_ = FrameHandle::kNoSlot;
  size_t slots_used_ = 0;
  Stats stats_;
};

// ---------------------------------------------------------------------------------------
// Hot-path inline definitions. Every packet crossing the stack does a handful of
// retain/release pairs (queue copy, dequeue copy, StampFrame, descriptor destruction);
// the bench's legacy-vs-arena gate is measured against these being plain inlined integer
// ops on a pinned slot pointer.

inline FrameArena::Slot* FrameArena::SlotFor(FrameHandle handle) {
  if (!handle.valid()) {
    return nullptr;
  }
  const size_t chunk = handle.index / kChunkSize;
  if (chunk >= chunks_.size()) {
    return nullptr;
  }
  Slot* slot = &chunks_[chunk][handle.index % kChunkSize];
  return slot->generation == handle.generation && slot->refcount > 0 ? slot : nullptr;
}

inline const FrameArena::Slot* FrameArena::SlotFor(FrameHandle handle) const {
  return const_cast<FrameArena*>(this)->SlotFor(handle);
}

inline uint32_t FrameArena::PopFreeSlot() {
  if (free_head_ != FrameHandle::kNoSlot) {
    const uint32_t index = free_head_;
    Slot& slot = chunks_[index / kChunkSize][index % kChunkSize];
    free_head_ = slot.next_free;
    slot.next_free = FrameHandle::kNoSlot;
    return index;
  }
  return GrowSlot();
}

inline PayloadRef FrameArena::Allocate(int64_t bytes, int segments, ChainCharge charge) {
  const uint32_t index = PopFreeSlot();
  Slot& slot = chunks_[index / kChunkSize][index % kChunkSize];
  slot.refcount = 1;
  slot.index = index;
  slot.bytes = bytes;
  slot.segments = segments;
  slot.charge = charge;
  ++stats_.allocations;
  if (++stats_.live > stats_.peak_live) {
    stats_.peak_live = stats_.live;
  }
  return PayloadRef(this, &slot);
}

inline void FrameArena::Release(Slot* slot) {
  if (--slot->refcount > 0) {
    return;
  }
  ReleaseLast(slot);
}

inline FrameHandle PayloadRef::handle() const {
  return slot_ == nullptr ? FrameHandle{} : FrameHandle{slot_->index, slot_->generation};
}

inline PayloadRef::PayloadRef(const PayloadRef& other) noexcept
    : arena_(other.arena_), slot_(other.slot_) {
  if (slot_ != nullptr) {
    ++slot_->refcount;
  }
}

inline PayloadRef& PayloadRef::operator=(const PayloadRef& other) {
  if (this != &other) {
    if (other.slot_ != nullptr) {
      ++other.slot_->refcount;
    }
    reset();
    arena_ = other.arena_;
    slot_ = other.slot_;
  }
  return *this;
}

inline PayloadRef& PayloadRef::operator=(PayloadRef&& other) noexcept {
  if (this != &other) {
    reset();
    arena_ = other.arena_;
    slot_ = other.slot_;
    other.arena_ = nullptr;
    other.slot_ = nullptr;
  }
  return *this;
}

inline void PayloadRef::reset() {
  if (slot_ != nullptr) {
    arena_->Release(slot_);
    arena_ = nullptr;
    slot_ = nullptr;
  }
}

}  // namespace ctms

#endif  // SRC_SIM_FRAME_ARENA_H_
