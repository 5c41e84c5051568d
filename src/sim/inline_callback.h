#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace softres::sim {

/// Small-buffer-optimized move-only callable, the event loop's callback
/// currency. Simulation hot paths schedule millions of short-lived
/// continuations per trial, and a callback is *moved* several times on its
/// way into an event record (built, handed through a continuation chain,
/// stored), so the move must be flat — a memcpy plus two pointer copies,
/// no indirect call. That rules out storing arbitrary callables in place:
/// only trivially copyable captures (this-pointers, indices, plain values)
/// live inline; anything with a real move constructor or destructor is
/// heap-boxed once with plain new/delete and its box pointer relocates for
/// free, exactly like std::function — but with a 24-byte inline budget
/// instead of 16, which keeps the simulator's bread-and-butter captures
/// (`[this]`, `[this, user, remaining]`, a bare Request*) out of the
/// allocator entirely.
///
/// Contract (see DESIGN.md §9):
///  * captures that are trivially copyable, of sizeof <=
///    kInlineFunctionCapacity and alignof <= 8, are stored inline — zero
///    heap traffic and flat moves for the whole schedule/dispatch round
///    trip. No capture a trial schedules is boxed; the sites that would be
///    tempted (Apache's FIN closure, hw::Disk's completion) pin it with
///    `static_assert(stores_inline<decltype(closure)>())`;
///  * anything else is heap-allocated once and owned through a pointer
///    stored inline; its moves are the same flat copy;
///  * invoking costs one member load and an indirect call (no vtable
///    double-indirection);
///  * it is move-only: continuation chains hand the callback forward, they
///    never fork it. State a callback needs belongs in the object it points
///    at (a Request's visit block, a server), not in the callable wrapper.
inline constexpr std::size_t kInlineFunctionCapacity = 24;

template <class Sig>
class InlineFunction;

template <class R, class... Args>
class InlineFunction<R(Args...)> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit)
    if constexpr (fits_inline<D>()) {
      // A captureless callable writes no bytes; give the flat move (steal's
      // memcpy) defined ones to copy.
      if constexpr (std::is_empty_v<D>) {
        std::memset(storage_, 0, kInlineFunctionCapacity);
      }
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &invoke_inline<D>;
      destroy_ = nullptr;  // trivially destructible by construction
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      invoke_ = &invoke_boxed<D>;
      destroy_ = &destroy_boxed<D>;
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
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

  /// True when a callable of type F would be stored inline; hot-path sites
  /// static_assert it on their closures.
  template <class F>
  static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<F>>();
  }

 private:
  template <class D>
  static constexpr bool fits_inline() {
    // Trivial copyability is what licenses the flat move: relocating the
    // capture is a byte copy with no source fix-up and no destructor.
    return sizeof(D) <= kInlineFunctionCapacity && alignof(D) <= 8 &&
           std::is_trivially_copyable_v<D> &&
           std::is_trivially_destructible_v<D>;
  }

  template <class D>
  static R invoke_inline(unsigned char* s, Args&&... args) {
    return (*std::launder(reinterpret_cast<D*>(s)))(
        std::forward<Args>(args)...);
  }

  template <class D>
  static D*& box(unsigned char* s) {
    return *std::launder(reinterpret_cast<D**>(s));
  }
  template <class D>
  static R invoke_boxed(unsigned char* s, Args&&... args) {
    return (*box<D>(s))(std::forward<Args>(args)...);
  }
  template <class D>
  static void destroy_boxed(unsigned char* s) noexcept {
    delete box<D>(s);
  }

  void steal(InlineFunction& other) noexcept {
    // Flat relocation: inline contents are trivially copyable and a box
    // relocates as its pointer, so one memcpy moves either representation.
    std::memcpy(storage_, other.storage_, kInlineFunctionCapacity);
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(8) unsigned char storage_[kInlineFunctionCapacity];
  R (*invoke_)(unsigned char*, Args&&...) = nullptr;
  void (*destroy_)(unsigned char*) noexcept = nullptr;
};

/// The event loop's callback type: a void() continuation.
using InlineCallback = InlineFunction<void()>;

}  // namespace softres::sim
