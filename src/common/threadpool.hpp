#pragma once
// Fixed-size thread pool with a blocking parallel_for, a dynamically
// scheduled parallel_for_each, and a future-based submit.
//
// The threaded BLAS layer (blas/threaded_backend.hpp) uses this pool to
// partition level-3 kernels across worker threads, mirroring the paper's
// use of multithreaded OpenBLAS in Section IV-A4. The model service
// (service/model_service.hpp) uses the same pool type to fan model
// generation out across (routine, backend, locality, flags) keys. The pool
// is deliberately simple: a shared queue of jobs, condition-variable
// wakeups, and a completion latch per bulk call. It is safe to create a
// pool with more workers than hardware threads (the single-core CI machine
// oversubscribes).

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace dlap {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(index_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] index_t worker_count() const noexcept {
    return static_cast<index_t>(threads_.size());
  }

  /// Runs fn(chunk_begin, chunk_end) over [begin, end) split into roughly
  /// equal contiguous chunks, one per worker; blocks until all complete.
  /// The calling thread participates, so the pool also works when the body
  /// itself is cheap. Exceptions from the body propagate to the caller
  /// (first one wins).
  void parallel_for(index_t begin, index_t end,
                    const std::function<void(index_t, index_t)>& fn);

  /// Runs fn(i) for every i in [0, count) with dynamic self-scheduling:
  /// workers (and the calling thread, which participates) repeatedly claim
  /// the next unclaimed index. Unlike parallel_for's static chunks, this
  /// balances loads whose per-item cost varies wildly -- the model
  /// service's generation tasks. Blocks until all items complete;
  /// exceptions propagate to the caller (first one wins). Safe to call
  /// from a pool worker (nested fan-out): completion is tracked per item,
  /// so the nested caller can finish its batch alone even when every
  /// other worker is parked in a wait of its own -- generation tasks fan
  /// their sample batches out this way (fulfill_batch).
  void parallel_for_each(index_t count,
                         const std::function<void(index_t)>& fn);

  /// Enqueues a callable to run on some worker thread; the returned future
  /// carries its result (or exception).
  template <class F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace dlap
