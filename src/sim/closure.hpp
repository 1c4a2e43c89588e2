// Allocation-free callable storage for the discrete-event core.
//
// EventClosure replaces std::function<void()> on the scheduling hot path.
// It is a move-only type-erased callable that lives entirely in an inline
// buffer: every closure the simulation layers schedule (including the ones
// that capture a whole net::Packet or wifi::Frame by value) fits, and a
// capture that does not fails to compile at its schedule site, so
// scheduling never touches the heap.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace acute::sim {

/// Move-only type-erased `void()` callable stored in an inline buffer.
///
/// The buffer is sized for the fattest closure any stack layer schedules —
/// a lambda capturing a full wifi::Frame (which embeds a net::Packet) plus
/// two pointers. Only callables that fit are accepted: the constructor,
/// emplace() and EventQueue::push are constrained on `fits_inline`. Invoking
/// is non-destructive, so timers can re-fire a stored closure. An empty
/// closure must not be invoked.
class EventClosure {
 public:
  /// Inline capacity: sizeof(wifi::Frame) + two pointers, rounded up to
  /// kInlineAlign. test_sim_alloc pins the equality, so the buffer follows
  /// the Frame when it grows or shrinks.
  static constexpr std::size_t kInlineBytes = 240;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when callables of type F can be stored (relocation is a noexcept
  /// move, so moving a closure never throws).
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<F>;

  EventClosure() noexcept {}

  template <typename F, typename Fn = std::remove_cvref_t<F>>
    requires(!std::is_same_v<Fn, EventClosure> && std::is_invocable_v<Fn&> &&
             fits_inline<Fn>)
  EventClosure(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  /// Replaces the wrapped callable, constructing the new one directly into
  /// this closure's buffer — the single move the scheduling hot path pays
  /// per event (EventQueue emplaces straight into the slot pool).
  template <typename F, typename Fn = std::remove_cvref_t<F>>
    requires(!std::is_same_v<Fn, EventClosure> && std::is_invocable_v<Fn&> &&
             fits_inline<Fn>)
  void emplace(F&& fn) {
    reset();
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    ops_ = &OpsFor<Fn>::table;
  }

  EventClosure(EventClosure&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  EventClosure& operator=(EventClosure&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventClosure(const EventClosure&) = delete;
  EventClosure& operator=(const EventClosure&) = delete;

  ~EventClosure() { reset(); }

  /// Invokes the wrapped callable. Precondition: !empty().
  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the wrapped callable and leaves the closure empty. Idempotent.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char*);
    void (*relocate)(unsigned char* dst, unsigned char* src) noexcept;
    void (*destroy)(unsigned char*) noexcept;
  };

  template <typename Fn>
  struct OpsFor {
    static Fn* object(unsigned char* buf) {
      return std::launder(reinterpret_cast<Fn*>(buf));
    }
    static void invoke(unsigned char* buf) { (*object(buf))(); }
    static void relocate(unsigned char* dst, unsigned char* src) noexcept {
      ::new (static_cast<void*>(dst)) Fn(std::move(*object(src)));
      object(src)->~Fn();
    }
    static void destroy(unsigned char* buf) noexcept { object(buf)->~Fn(); }
    static constexpr Ops table{&invoke, &relocate, &destroy};
  };

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace acute::sim
