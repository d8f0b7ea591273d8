#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>

namespace sc::util {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::atomic<std::size_t> g_default_threads{0};  // 0 = hardware concurrency

std::mutex& shared_pool_mutex() {
  static std::mutex m;
  return m;
}

std::unique_ptr<ThreadPool>& shared_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  // The thread calling parallel_for is the n-th runner.
  const std::size_t n = resolve_threads(threads) - 1;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_slots(n,
                     [&fn](std::size_t /*slot*/, std::size_t i) { fn(i); });
}

void ThreadPool::parallel_for_slots(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0, 0);
    return;
  }

  // Shared loop state. Heap-allocated (shared_ptr) because helper tasks
  // may still sit in the queue after the caller returns; late runners see
  // next >= n and exit without touching fn.
  struct LoopState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> finished{0};
    std::atomic<bool> aborted{false};
    std::size_t n = 0;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::mutex m;
    std::condition_variable done;
    std::exception_ptr error;
  };
  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->fn = &fn;

  // Each participating thread drives the loop under a distinct slot id
  // (caller 0, helper h -> h + 1), so `fn` may index per-slot scratch
  // state without locks: a slot is never driven concurrently.
  const auto drive = [](const std::shared_ptr<LoopState>& s,
                        std::size_t slot) {
    for (;;) {
      const std::size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->n) break;
      if (!s->aborted.load(std::memory_order_relaxed)) {
        try {
          (*s->fn)(slot, i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(s->m);
          if (!s->error) s->error = std::current_exception();
          s->aborted.store(true, std::memory_order_relaxed);
        }
      }
      // Every index is claimed exactly once, so `finished` hits n exactly
      // once; that claimant wakes the caller.
      if (s->finished.fetch_add(1, std::memory_order_acq_rel) + 1 == s->n) {
        std::lock_guard<std::mutex> lock(s->m);
        s->done.notify_all();
      }
    }
  };

  const std::size_t helpers =
      std::min(workers_.size(), n - 1);  // caller drives too
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([state, drive, h] { drive(state, h + 1); });
  }
  drive(state, 0);

  std::unique_lock<std::mutex> lock(state->m);
  state->done.wait(lock, [&] {
    return state->finished.load(std::memory_order_acquire) == state->n;
  });
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::shared() {
  std::lock_guard<std::mutex> lock(shared_pool_mutex());
  auto& slot = shared_pool_slot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>(g_default_threads.load());
  }
  return *slot;
}

void ThreadPool::set_default_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(shared_pool_mutex());
  g_default_threads.store(threads);
  auto& slot = shared_pool_slot();
  if (slot && slot->thread_count() != resolve_threads(threads)) {
    slot.reset();  // rebuilt lazily by the next shared() call
  }
}

std::size_t ThreadPool::default_threads() {
  return resolve_threads(g_default_threads.load());
}

}  // namespace sc::util
