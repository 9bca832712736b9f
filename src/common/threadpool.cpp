#include "common/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace dlap {

namespace {

// Completion state shared between the caller of a bulk operation and the
// workers executing its pieces.
struct BulkSync {
  std::mutex m;
  std::condition_variable done_cv;
  index_t pending = 0;
  std::exception_ptr error;

  void finish_one(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(m);
    if (e && !error) error = e;
    if (--pending == 0) done_cv.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(m);
    done_cv.wait(lock, [this] { return pending == 0; });
  }
};

}  // namespace

ThreadPool::ThreadPool(index_t workers) {
  index_t n = workers;
  if (n <= 0) {
    n = static_cast<index_t>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
  }
  threads_.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop();
    }
    job();
  }
}

void ThreadPool::parallel_for(
    index_t begin, index_t end,
    const std::function<void(index_t, index_t)>& fn) {
  DLAP_REQUIRE(begin <= end, "empty-or-reversed range");
  const index_t total = end - begin;
  if (total == 0) return;

  const index_t nchunks =
      std::min<index_t>(worker_count() + 1, total);  // +1: caller joins in
  const index_t base = total / nchunks;
  const index_t extra = total % nchunks;

  BulkSync sync;
  sync.pending = nchunks - 1;  // chunks handed to the pool

  index_t cursor = begin;
  // Enqueue all but the last chunk; the caller runs the last one itself so
  // a busy pool can never deadlock the call.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (index_t c = 0; c + 1 < nchunks; ++c) {
      const index_t len = base + (c < extra ? 1 : 0);
      const index_t b = cursor;
      const index_t e = cursor + len;
      queue_.push([&fn, b, e, &sync] {
        std::exception_ptr error;
        try {
          fn(b, e);
        } catch (...) {
          error = std::current_exception();
        }
        sync.finish_one(error);
      });
      cursor += len;
    }
  }
  cv_.notify_all();

  std::exception_ptr my_error;
  try {
    fn(cursor, end);
  } catch (...) {
    my_error = std::current_exception();
  }

  if (nchunks > 1) sync.wait();
  if (my_error) std::rethrow_exception(my_error);
  if (sync.error) std::rethrow_exception(sync.error);
}

void ThreadPool::parallel_for_each(index_t count,
                                   const std::function<void(index_t)>& fn) {
  DLAP_REQUIRE(count >= 0, "negative item count");
  if (count == 0) return;

  // Dynamic self-scheduling: each drainer (pool workers plus the caller)
  // repeatedly claims the next unclaimed index until none remain.
  //
  // Completion is tracked per *item*, not per helper job: the caller
  // returns as soon as every item has finished, even when the enqueued
  // helpers never got a thread (they find no work and discard the shared
  // state when they eventually run). That makes NESTED calls on one pool
  // safe -- a worker that fans out again can always complete the inner
  // batch on its own stack while its siblings are parked in their own
  // waits -- where waiting on the helper jobs themselves would deadlock
  // a pool whose workers all fan out. Generation relies on exactly that
  // (generation tasks fanning sample batches out over the same pool,
  // while sibling tasks wait on the claim of a key being generated).
  struct State {
    std::atomic<index_t> next{0};
    index_t count = 0;
    std::function<void(index_t)> fn;  // owned: helpers may outlive caller
    std::mutex m;
    std::condition_variable done_cv;
    index_t completed = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  state->count = count;
  state->fn = fn;

  const auto drain = [](State& s) {
    for (;;) {
      const index_t i = s.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s.count) return;
      std::exception_ptr error;
      try {
        s.fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(s.m);
      if (error && !s.error) s.error = error;
      if (++s.completed == s.count) s.done_cv.notify_all();
    }
  };

  const index_t helpers = std::min<index_t>(worker_count(), count - 1);
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (index_t h = 0; h < helpers; ++h) {
        queue_.push([state, drain] { drain(*state); });
      }
    }
    cv_.notify_all();
  }

  drain(*state);

  std::unique_lock<std::mutex> lock(state->m);
  state->done_cv.wait(lock,
                      [&] { return state->completed == state->count; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace dlap
