// Small-buffer-optimized move-only callable for the event core and the CPU model.
//
// The discrete-event hot path schedules millions of short-lived callbacks. `std::function`
// heap-allocates for any capture beyond its (implementation-defined) tiny inline buffer and
// drags along copyability machinery the queue never uses. InlineFunction<kInlineBytes>
// stores captures up to kInlineBytes in place and falls back to one heap allocation only
// for oversized or throwing-move captures. Each user picks the capacity its hot closures
// need: the event queue's 48 bytes hold a `this` pointer plus a few scalars or
// shared_ptrs, and the CPU's step actions (Cpu::Action) hold a `this` pointer plus a
// packet descriptor. Owners whose in-flight state is bigger than that (a DMA request, a
// frame at the adapter, the driver's packet at the transmit command) park it in a member
// and capture only `this`. StoresInline<F>() tells at compile time which way a callable
// goes, so a capture that outgrows its buffer can be made a build error.
//
// A source that is itself empty (a null function pointer, an empty std::function or
// InlineFunction) gives an empty InlineFunction, so `if (f)` still tells whether there is
// anything to run.

#ifndef SRC_SIM_INLINE_FUNCTION_H_
#define SRC_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace ctms {

template <size_t kInlineBytes = 48>
class InlineFunction;

namespace internal {

// Callables that can be empty, and are tested with operator bool before being wrapped.
template <typename D>
inline constexpr bool kMayBeEmpty = std::is_pointer_v<D>;
template <typename Signature>
inline constexpr bool kMayBeEmpty<std::function<Signature>> = true;
template <size_t kBytes>
inline constexpr bool kMayBeEmpty<InlineFunction<kBytes>> = true;

}  // namespace internal

template <size_t kInlineBytes>
class InlineFunction {
 public:
  // True when a callable of type F is stored in place, with no heap allocation.
  template <typename F>
  static constexpr bool StoresInline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (internal::kMayBeEmpty<D>) {
      if (!f) {
        return;
      }
    }
    if constexpr (StoresInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  // Requires an engaged function (operator bool).
  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Destroys the stored callable (releasing its captures) and disengages.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to);  // move-construct into `to`, destroy `from`
    void (*destroy)(void* storage);
  };

  template <typename D>
  struct InlineOps {
    static D* Get(void* s) { return std::launder(reinterpret_cast<D*>(s)); }
    static void Invoke(void* s) { (*Get(s))(); }
    static void Relocate(void* from, void* to) {
      D* src = Get(from);
      ::new (to) D(std::move(*src));
      src->~D();
    }
    static void Destroy(void* s) { Get(s)->~D(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename D>
  struct HeapOps {
    static D* Get(void* s) { return *std::launder(reinterpret_cast<D**>(s)); }
    static void Invoke(void* s) { (*Get(s))(); }
    static void Relocate(void* from, void* to) {
      ::new (to) D*(Get(from));  // the heap object itself does not move
    }
    static void Destroy(void* s) { delete Get(s); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ctms

#endif  // SRC_SIM_INLINE_FUNCTION_H_
