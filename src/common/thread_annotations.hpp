// Static thread-safety layer: clang capability-analysis attributes plus the
// annotated mutex types every subsystem uses.
//
// The EXPLORA_* attribute macros wrap clang's thread-safety annotations
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) and expand to
// nothing on other compilers, so GCC builds are unaffected. Under clang
// with -Werror=thread-safety (the `thread-safety` CMake preset and CI job)
// the compiler proves, per function, that every EXPLORA_GUARDED_BY member
// is only touched while its mutex is held.
//
// The annotated types are the only sanctioned mutex primitives in src/ —
// tools/lint_concurrency.py fails the build on raw std::mutex /
// std::lock_guard / std::unique_lock / std::scoped_lock /
// std::condition_variable anywhere else. They add nothing at runtime: a
// Mutex is a std::mutex, and lock order is checked by ThreadSanitizer's
// lock-order-inversion detector (the `tsan` preset; DESIGN.md §9).
//
//   class Registry {
//     mutable SharedMutex mutex_;
//     std::map<...> metrics_ EXPLORA_GUARDED_BY(mutex_);
//   };
#pragma once

#include <condition_variable>  // conc-ok: raw-mutex (the wrapper layer itself)
#include <mutex>               // conc-ok: raw-mutex (the wrapper layer itself)
#include <shared_mutex>        // conc-ok: raw-mutex (the wrapper layer itself)

// ---- clang thread-safety attribute macros ----------------------------------

#if defined(__clang__)
#define EXPLORA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define EXPLORA_THREAD_ANNOTATION(x)
#endif

#define EXPLORA_CAPABILITY(x) EXPLORA_THREAD_ANNOTATION(capability(x))
#define EXPLORA_SCOPED_CAPABILITY EXPLORA_THREAD_ANNOTATION(scoped_lockable)
#define EXPLORA_GUARDED_BY(x) EXPLORA_THREAD_ANNOTATION(guarded_by(x))
#define EXPLORA_ACQUIRE(...) \
  EXPLORA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define EXPLORA_ACQUIRE_SHARED(...) \
  EXPLORA_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define EXPLORA_RELEASE(...) \
  EXPLORA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define EXPLORA_RELEASE_SHARED(...) \
  EXPLORA_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define EXPLORA_TRY_ACQUIRE(...) \
  EXPLORA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// ---- annotated mutex types -------------------------------------------------

namespace explora::common {

/// std::mutex with a capability annotation, so clang can prove every
/// EXPLORA_GUARDED_BY access happens under it. Lock order between mutexes
/// is checked by ThreadSanitizer's lock-order-inversion detector.
class EXPLORA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EXPLORA_ACQUIRE() { native_.lock(); }
  void unlock() EXPLORA_RELEASE() { native_.unlock(); }
  [[nodiscard]] bool try_lock() EXPLORA_TRY_ACQUIRE(true) {
    return native_.try_lock();
  }

 private:
  friend class CondVar;

  std::mutex native_;  // conc-ok: raw-mutex (the annotated wrapper itself)
};

/// std::shared_mutex counterpart: exclusive writers, shared readers.
class EXPLORA_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() EXPLORA_ACQUIRE() { native_.lock(); }
  void unlock() EXPLORA_RELEASE() { native_.unlock(); }
  void lock_shared() EXPLORA_ACQUIRE_SHARED() { native_.lock_shared(); }
  void unlock_shared() EXPLORA_RELEASE_SHARED() { native_.unlock_shared(); }

 private:
  std::shared_mutex native_;  // conc-ok: raw-mutex (the annotated wrapper)
};

/// RAII exclusive lock on a Mutex (std::lock_guard equivalent).
class EXPLORA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) EXPLORA_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() EXPLORA_RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;

  Mutex& mutex_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class EXPLORA_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mutex) EXPLORA_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~WriterMutexLock() EXPLORA_RELEASE() { mutex_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// RAII shared (reader) lock on a SharedMutex.
class EXPLORA_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mutex) EXPLORA_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~ReaderMutexLock() EXPLORA_RELEASE() { mutex_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Condition variable for Mutex. There is deliberately no predicate
/// overload: callers write the wait loop themselves —
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.wait(lock);
///
/// — so the thread-safety analysis sees every guarded read inside the
/// held-capability scope.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `held`'s mutex, blocks, and re-acquires it before
  /// returning. Spurious wakeups happen; loop on the predicate.
  void wait(MutexLock& held) {
    std::unique_lock<std::mutex> native(  // conc-ok: raw-mutex (CondVar impl)
        held.mutex_.native_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // conc-ok: raw-mutex (CondVar impl)
};

}  // namespace explora::common
