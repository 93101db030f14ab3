// Parallel execution substrate: a fixed-size thread pool with chunked
// parallel loops and a *deterministic* map-reduce.
//
// Determinism contract: chunk boundaries depend only on (begin, end, grain)
// — never on the thread count — and `parallel_map_reduce` merges per-chunk
// accumulators in chunk-index order. A reduction therefore performs the
// same floating-point operations in the same association regardless of
// whether it runs on 1 or 64 threads, so results are bit-identical to a
// serial run.
//
// Thread count: `configured_threads()` reads EXPLORA_THREADS (unset or 0 =
// std::thread::hardware_concurrency(); 1 = everything runs inline on the
// caller, the exact legacy serial behaviour). `global_pool()` is the lazily
// constructed process-wide pool every subsystem shares.
//
// Nested parallelism: a parallel_for issued from inside a pool worker runs
// inline on that worker (no new tasks are enqueued), so nested calls cannot
// deadlock the pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace explora::common {

/// Parses an EXPLORA_THREADS-style value: nullptr/empty/"0" = fall back to
/// hardware_concurrency (never less than 1), otherwise the given count.
[[nodiscard]] std::size_t parse_threads(const char* value) noexcept;

/// Thread count the global pool is built with: $EXPLORA_THREADS or
/// hardware_concurrency.
[[nodiscard]] std::size_t configured_threads() noexcept;

class ThreadPool {
 public:
  /// @param threads worker count; 0 = configured_threads(). A pool of one
  ///        thread never spawns workers — every call runs inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ThreadPool(ThreadPool&&) = delete;
  ThreadPool& operator=(ThreadPool&&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return thread_count_;
  }

  /// True when the calling thread is one of *this* pool's workers.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Runs `body(chunk_begin, chunk_end)` over [begin, end) split into
  /// chunks of at most `grain` indices (grain 0 is treated as 1). Blocks
  /// until every chunk finished; the caller participates in the work. The
  /// first exception thrown by any chunk is rethrown here after all chunks
  /// have completed or been abandoned.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Deterministic chunked map-reduce: `chunk(b, e)` produces one partial
  /// result per chunk; `merge(acc, partial)` folds them into `init` in
  /// chunk-index order. Bit-identical results for any thread count.
  template <typename Acc, typename ChunkFn, typename MergeFn>
  Acc parallel_map_reduce(std::size_t begin, std::size_t end,
                          std::size_t grain, Acc init, ChunkFn&& chunk,
                          MergeFn&& merge) {
    using Partial =
        std::invoke_result_t<ChunkFn&, std::size_t, std::size_t>;
    if (end <= begin) return init;
    if (grain == 0) grain = 1;
    const std::size_t count = end - begin;
    const std::size_t num_chunks = (count + grain - 1) / grain;
    std::vector<std::optional<Partial>> partials(num_chunks);
    parallel_for(begin, end, grain,
                 [&](std::size_t chunk_begin, std::size_t chunk_end) {
                   const std::size_t index = (chunk_begin - begin) / grain;
                   partials[index].emplace(chunk(chunk_begin, chunk_end));
                 });
    Acc accumulator = std::move(init);
    for (auto& partial : partials) {
      merge(accumulator, std::move(*partial));
    }
    return accumulator;
  }

 private:
  struct Job;

  void worker_loop();
  /// Claims and runs chunks of `job` until none remain.
  static void drain(Job& job);

  std::size_t thread_count_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;  ///< guards tasks_ and stopping_
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
};

/// The process-wide pool (EXPLORA_THREADS workers, created on first use).
[[nodiscard]] ThreadPool& global_pool();

/// parallel_for on the global pool.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// parallel_map_reduce on the global pool.
template <typename Acc, typename ChunkFn, typename MergeFn>
Acc parallel_map_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                        Acc init, ChunkFn&& chunk, MergeFn&& merge) {
  return global_pool().parallel_map_reduce(
      begin, end, grain, std::move(init), std::forward<ChunkFn>(chunk),
      std::forward<MergeFn>(merge));
}

}  // namespace explora::common
