#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sc::util {
namespace {

TEST(ThreadPool, ResolvesThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  ThreadPool auto_pool(0);
  EXPECT_GE(auto_pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitRunsTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  // The destructor drains the queue; poll a little first so the test
  // also exercises concurrent execution.
  for (int spin = 0; spin < 1000 && counter.load() < 100; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForEmptyRangeReturnsImmediately) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForSingleIterationRunsInline) {
  ThreadPool pool(2);
  std::size_t seen = 99;
  pool.parallel_for(1, [&](std::size_t i) { seen = i; });
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                          executed.fetch_add(1);
                        }),
      std::runtime_error);
  // The loop aborts remaining unstarted iterations, so not all 999
  // non-throwing indices need to have run; the pool stays usable.
  EXPECT_LE(executed.load(), 999);
  std::atomic<int> after{0};
  pool.parallel_for(64, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPool, ParallelForNestsWithoutDeadlock) {
  ThreadPool pool(2);  // fewer workers than outer iterations
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(50, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 50);
}

TEST(ThreadPool, ParallelForRunsAtMostThreadCountAtOnce) {
  // The calling thread is one of the pool's three runners, so no more
  // than three iterations may ever overlap.
  ThreadPool pool(3);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  pool.parallel_for(64, [&](std::size_t) {
    const int now = in_flight.fetch_add(1) + 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    in_flight.fetch_sub(1);
  });
  EXPECT_GE(max_in_flight.load(), 1);
  EXPECT_LE(max_in_flight.load(), 3);
}

TEST(ThreadPool, SingleThreadPoolRunsEverythingOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);

  int submitted = 0;
  pool.submit([&submitted] { ++submitted; });
  EXPECT_EQ(submitted, 1);

  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::size_t kN = 100;
  std::vector<int> visits(kN, 0);
  bool off_caller = false;
  pool.parallel_for(kN, [&](std::size_t i) {
    ++visits[i];
    off_caller |= std::this_thread::get_id() != caller;
  });
  EXPECT_FALSE(off_caller);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, SharedPoolIsReusedAndResizable) {
  ThreadPool::set_default_threads(2);
  ThreadPool& a = ThreadPool::shared();
  EXPECT_EQ(a.thread_count(), 2u);
  EXPECT_EQ(&a, &ThreadPool::shared());
  ThreadPool::set_default_threads(3);
  EXPECT_EQ(ThreadPool::shared().thread_count(), 3u);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  ThreadPool::set_default_threads(0);  // restore auto sizing
}

}  // namespace
}  // namespace sc::util
