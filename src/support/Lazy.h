//===- Lazy.h - Resettable build-once cache ---------------------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A value derived from an object's state, built on first use and kept
/// until that state changes: a network's fingerprint, a convolution's
/// dense lowering, a residual block's propagation plan.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SUPPORT_LAZY_H
#define CHARON_SUPPORT_LAZY_H

#include <atomic>
#include <memory>
#include <mutex>

namespace charon {

/// Build-once cache that its owner's mutators reset.
///
/// get() is safe from any number of threads: the first callers race for a
/// lock, exactly one runs the builder, and every caller sees the value it
/// published. Once published, get() is one acquire load with no lock.
/// reset() follows the owner's contract for non-const members: it must not
/// run concurrently with get() on the same object. Moves carry the value.
template <typename T> class Lazy {
public:
  Lazy() = default;
  Lazy(const Lazy &) = delete;
  Lazy &operator=(const Lazy &) = delete;
  Lazy(Lazy &&O) noexcept : Value(std::move(O.Value)) {
    Ready.store(Value.get(), std::memory_order_relaxed);
    O.Ready.store(nullptr, std::memory_order_relaxed);
  }
  Lazy &operator=(Lazy &&O) noexcept {
    Value = std::move(O.Value);
    Ready.store(Value.get(), std::memory_order_relaxed);
    O.Ready.store(nullptr, std::memory_order_relaxed);
    return *this;
  }

  /// The cached value, built by \p Build() if there is none.
  template <typename BuildFn> const T &get(BuildFn &&Build) const {
    if (const T *V = Ready.load(std::memory_order_acquire))
      return *V;
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Value) {
      Value = std::make_unique<T>(Build());
      Ready.store(Value.get(), std::memory_order_release);
    }
    return *Value;
  }

  /// True when a value is published.
  bool built() const {
    return Ready.load(std::memory_order_acquire) != nullptr;
  }

  /// Drops the cached value; the next get() rebuilds it.
  void reset() {
    Ready.store(nullptr, std::memory_order_relaxed);
    Value.reset();
  }

private:
  mutable std::mutex Mutex;
  mutable std::unique_ptr<T> Value; // Written under Mutex.
  mutable std::atomic<const T *> Ready{nullptr};
};

} // namespace charon

#endif // CHARON_SUPPORT_LAZY_H
