#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

namespace explora::common {

namespace {

/// Set while a thread runs inside ThreadPool::worker_loop — used to run
/// same-pool nested parallel loops inline instead of deadlocking.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

std::size_t parse_threads(const char* value) noexcept {
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (value == nullptr || *value == '\0') return hardware;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(value, &end, 10);
  if (end == value || parsed == 0) return hardware;
  return static_cast<std::size_t>(parsed);
}

std::size_t configured_threads() noexcept {
  return parse_threads(std::getenv("EXPLORA_THREADS"));
}

/// One parallel_for invocation: chunks are claimed via an atomic cursor so
/// the caller and the workers can all drain the same job.
struct ThreadPool::Job {
  std::size_t begin = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  std::size_t end = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  // atomics-ok: claim-ticket (chunk claim; results land in disjoint slots)
  std::atomic<std::size_t> next{0};
  Mutex mutex;
  CondVar done_cv;
  std::size_t done EXPLORA_GUARDED_BY(mutex) = 0;
  /// First failure wins.
  std::exception_ptr error EXPLORA_GUARDED_BY(mutex);
};

ThreadPool::ThreadPool(std::size_t threads)
    : thread_count_(threads == 0 ? configured_threads() : threads) {
  // The caller participates in every parallel_for, so a pool of N threads
  // spawns N-1 workers.
  workers_.reserve(thread_count_ - 1);
  for (std::size_t i = 0; i + 1 < thread_count_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_current_pool == this;
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) wake_.wait(lock);
      if (tasks_.empty()) return;  // stopping
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::drain(Job& job) {
  for (;;) {
    const std::size_t index =
        job.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= job.num_chunks) return;
    const std::size_t chunk_begin = job.begin + index * job.grain;
    const std::size_t chunk_end =
        std::min(job.end, chunk_begin + job.grain);
    std::exception_ptr error;
    try {
      (*job.body)(chunk_begin, chunk_end);
    } catch (...) {
      error = std::current_exception();
    }
    MutexLock lock(job.mutex);
    if (error && !job.error) job.error = std::move(error);
    if (++job.done == job.num_chunks) job.done_cv.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t count = end - begin;
  const std::size_t num_chunks = (count + grain - 1) / grain;

  // Serial path: one thread, a single chunk, or a nested call from one of
  // this pool's own workers (which must not block on its own queue). The
  // chunk boundaries are identical to the parallel path, so reductions
  // built on top see the same arithmetic either way.
  if (thread_count_ <= 1 || num_chunks == 1 || on_worker_thread()) {
    for (std::size_t chunk_begin = begin; chunk_begin < end;
         chunk_begin += grain) {
      body(chunk_begin, std::min(end, chunk_begin + grain));
    }
    return;
  }

  // The job is shared with the enqueued helper tasks: a helper that runs
  // after every chunk is claimed finds the cursor exhausted and exits
  // without touching `body`, so the job outliving this call is safe.
  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->num_chunks = num_chunks;
  job->body = &body;

  const std::size_t helpers =
      std::min(workers_.size(), num_chunks - 1);
  {
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      tasks_.emplace_back([job] { drain(*job); });
    }
  }
  wake_.notify_all();

  drain(*job);
  MutexLock lock(job->mutex);
  while (job->done != job->num_chunks) job->done_cv.wait(lock);
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& global_pool() {
  static ThreadPool pool(configured_threads());
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  global_pool().parallel_for(begin, end, grain, body);
}

}  // namespace explora::common
