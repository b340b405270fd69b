// Small-buffer-optimized, move-only callbacks for the event core and the
// flow engines.
//
// Every simulated packet at every hop schedules a callback, and every flow
// a collective starts carries a completion callback, so the storage for
// those callbacks is the hottest allocation site in the repo. The common
// captures — `this` plus a FlowId/LinkId/Packet or a ccl op reference, at
// most 40 bytes — fit inline; anything larger (or not nothrow-movable)
// falls back to a single heap cell. Unlike std::function this never copies
// the callable, and the inline path never touches the heap.
// The budget is deliberately 40, not 48: with the ops pointer that makes
// the callback 48 bytes, which lets the event pool pack a whole slot
// (callback + generation + free-list link) into one 64-byte cache line —
// pops at packet-engine scale are then a single line miss.
//
// `InlineFunction<R(Args...)>` is the one implementation; `InlineCallback`
// (the event core's `void()`) and the flow engines' `void(FlowId)`
// completion type are instances of it.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hpn::sim {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// Inline capture budget. 40 bytes covers the engines' largest hot-path
  /// captures (packet propagation: this + LinkId + a 20-byte Packet, 32
  /// bytes; a ccl message completion: this + a shared block + an op
  /// reference + a message record, 40 bytes). Control-plane lambdas (fault
  /// events, training-step closures) exceed it and take the heap path —
  /// they fire per fault or per iteration, not per packet or message.
  static constexpr std::size_t kInlineBytes = 40;
  /// Callables needing stricter alignment than a pointer/double spill to
  /// the heap; keeping the buffer 8-aligned is what makes the 48-byte
  /// footprint (and the one-line pool slot) possible.
  static constexpr std::size_t kStorageAlign = 8;

  /// Whether a callable of type Fn is stored inline (no allocation).
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kStorageAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor): "no callback"

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor): callback sink
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { steal(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// True when the callable spilled to the heap (introspection for the
  /// no-allocation assertions in tests/bench).
  [[nodiscard]] bool heap_allocated() const { return ops_ != nullptr && ops_->heap; }

  /// Destroy the callable (releases captures promptly on cancel).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-construct into dst's storage and destroy src's callable.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    bool heap;
  };

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](void* p, Args&&... args) -> R {
          return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
        /*heap=*/false,
    };
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](void* p, Args&&... args) -> R {
          return (**static_cast<Fn**>(p))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {  // relocate just moves the pointer
          ::new (dst) Fn*(*static_cast<Fn**>(src));
        },
        [](void* p) noexcept { delete *static_cast<Fn**>(p); },
        /*heap=*/true,
    };
    return &ops;
  }

  void steal(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(kStorageAlign) unsigned char storage_[kInlineBytes];
};

/// The event core's callback.
using InlineCallback = InlineFunction<void()>;

static_assert(sizeof(InlineCallback) == 48,
              "callback must leave room for slot metadata in one cache line");

}  // namespace hpn::sim
