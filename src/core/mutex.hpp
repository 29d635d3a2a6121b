// leosim::Mutex / leosim::MutexLock — a std::mutex wrapper carrying
// clang thread-safety capabilities (core/thread_annotations.hpp), so the
// compiler can prove lock discipline at build time. Zero behaviour
// change vs std::mutex + std::lock_guard: the wrapper adds no state and
// every method is a single inlined forward.
//
// Usage:
//   class Registry {
//     mutable leosim::Mutex mutex_;
//     std::vector<Entry> entries_ LEOSIM_GUARDED_BY(mutex_);
//   };
//   ...
//   const leosim::MutexLock lock(mutex_);  // scoped, like lock_guard
//
// Like thread_annotations.hpp, this header is part of the "base" layer:
// it includes only <mutex>, <condition_variable> and the annotations
// header, and may be included from any module (the std-only obs layer
// included).
#pragma once

#include <condition_variable>
#include <mutex>

#include "core/thread_annotations.hpp"

namespace leosim {

// An exclusive capability ("mutex") the analysis can track. Methods are
// annotated so clang knows Lock() acquires the capability and Unlock()
// releases it; the bodies themselves just forward to std::mutex.
class LEOSIM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LEOSIM_ACQUIRE() { impl_.lock(); }
  void Unlock() LEOSIM_RELEASE() { impl_.unlock(); }
  bool TryLock() LEOSIM_TRY_ACQUIRE(true) { return impl_.try_lock(); }

  // Negative-capability form used in LEOSIM_EXCLUDES/LEOSIM_REQUIRES
  // expressions (e.g. LEOSIM_REQUIRES(!mutex_)).
  const Mutex& operator!() const { return *this; }

 private:
  friend class CondVar;
  std::mutex impl_;
};

// Scoped lock, the project's lock_guard. Declared as a scoped capability
// so the analysis knows the constructor acquires `mu` and the destructor
// releases it — the annotated equivalent of
// `const std::lock_guard<std::mutex> lock(mu);`.
class LEOSIM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LEOSIM_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() LEOSIM_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// A condition variable over a leosim::Mutex, the project's
// std::condition_variable. Wait() requires the mutex held, so the
// analysis checks the predicate's reads like any other guarded access:
//
//   const leosim::MutexLock lock(mutex_);
//   while (!ready_) {
//     cv_.Wait(mutex_);
//   }
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Releases `mu`, blocks until notified (or woken spuriously: callers
  // loop on their predicate) and reacquires `mu` before returning.
  void Wait(Mutex& mu) LEOSIM_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.impl_, std::adopt_lock);
    impl_.wait(lock);
    lock.release();  // the caller's scope still owns the lock
  }
  void NotifyAll() { impl_.notify_all(); }

 private:
  std::condition_variable impl_;
};

}  // namespace leosim
