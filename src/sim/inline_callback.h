#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace softres::sim {

namespace detail {

#if defined(__SANITIZE_ADDRESS__)
#define SOFTRES_BOX_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SOFTRES_BOX_POOL_PASSTHROUGH 1
#endif
#endif

/// Size-classed freelist for boxed callback captures. Tier continuation
/// chains nest callbacks inside callbacks, so roughly one capture per
/// simulated event outgrows the inline buffer and is heap-boxed; routing
/// those boxes through a recycling pool turns a malloc/free round trip per
/// event into a couple of vector ops. The pool is thread-local (each
/// ParallelExecutor worker owns its trials' callbacks end to end) and
/// nothing observable depends on the addresses handed out, so determinism
/// is unaffected. Under ASan the pool passes straight through to the
/// global allocator so use-after-free stays visible.
class BoxPool {
 public:
  static void* acquire(std::size_t n) {
#if !defined(SOFTRES_BOX_POOL_PASSTHROUGH)
    const std::size_t c = class_of(n);
    if (c < kClasses) {
      auto& free = pools().free[c];
      if (!free.empty()) {
        void* p = free.back();
        free.pop_back();
        return p;
      }
      return ::operator new(class_bytes(c));
    }
#endif
    return ::operator new(n);
  }

  static void release(void* p, [[maybe_unused]] std::size_t n) noexcept {
#if !defined(SOFTRES_BOX_POOL_PASSTHROUGH)
    const std::size_t c = class_of(n);
    if (c < kClasses) {
      auto& free = pools().free[c];
      if (free.size() < kMaxPerClass) {
        free.push_back(p);
        return;
      }
    }
#endif
    ::operator delete(p);
  }

 private:
  static constexpr std::size_t kGranule = 32;
  static constexpr std::size_t kClasses = 4;  // 32, 64, 96, 128 bytes
  static constexpr std::size_t kMaxPerClass = 4096;

  static constexpr std::size_t class_of(std::size_t n) {
    return (n - 1) / kGranule;  // n >= 1 always (boxed captures are objects)
  }
  static constexpr std::size_t class_bytes(std::size_t c) {
    return (c + 1) * kGranule;
  }

  struct Pools {
    std::vector<void*> free[kClasses];
    ~Pools() {
      for (auto& f : free)
        for (void* p : f) ::operator delete(p);
    }
  };

  static Pools& pools() {
    thread_local Pools tl;
    return tl;
  }
};

}  // namespace detail

/// Small-buffer-optimized move-only callable, the event loop's callback
/// currency. Simulation hot paths schedule millions of short-lived
/// continuations per trial, and a callback is *moved* several times on its
/// way into an event record (built, handed through a continuation chain,
/// stored), so the move must be flat — a memcpy plus two pointer copies,
/// no indirect call. That rules out storing arbitrary callables in place:
/// only trivially copyable captures (this-pointers, indices, plain values)
/// live inline; anything with a real move constructor or destructor is
/// heap-boxed once and its box pointer relocates for free, exactly like
/// std::function — but with a 24-byte inline budget instead of 16, which
/// keeps the simulator's bread-and-butter captures (`[this]`,
/// `[this, user, remaining]`) out of the allocator entirely.
///
/// Contract (see DESIGN.md §9):
///  * captures that are trivially copyable, of sizeof <=
///    kInlineFunctionCapacity and alignof <= 8, are stored inline — zero
///    heap traffic and flat moves for the whole schedule/dispatch round
///    trip;
///  * anything else is heap-allocated once and owned through a pointer
///    stored inline; its moves are the same flat copy;
///  * invoking costs one member load and an indirect call (no vtable
///    double-indirection);
///  * it is move-only: continuation chains hand the callback forward, they
///    never fork it. Copyable state that must be shared belongs in the
///    capture (e.g. a RequestPtr), not in the callable wrapper.
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
    } else if constexpr (alignof(D) <= alignof(std::max_align_t)) {
      void* box = detail::BoxPool::acquire(sizeof(D));
      ::new (static_cast<void*>(storage_))
          D*(::new (box) D(std::forward<F>(f)));
      invoke_ = &invoke_boxed<D>;
      destroy_ = &destroy_pooled<D>;
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

  /// True when a callable of type F would be stored inline (test hook; the
  /// bench suite asserts the simulator's common captures stay inline).
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
  template <class D>
  static void destroy_pooled(unsigned char* s) noexcept {
    D* p = box<D>(s);
    p->~D();
    detail::BoxPool::release(p, sizeof(D));
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
