#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"

namespace foresight {
namespace {

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(8);
  constexpr size_t kItems = 10000;
  std::vector<std::atomic<int>> visits(kItems);
  pool.ParallelFor(0, kItems, 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ChunkBoundariesRespectGrain) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(3, 50, 10, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  // [3, 50) with grain 10 -> fixed chunk boundaries regardless of threads.
  std::vector<std::pair<size_t, size_t>> expected = {
      {3, 13}, {13, 23}, {23, 33}, {33, 43}, {43, 50}};
  EXPECT_EQ(chunks, expected);
}

TEST(ThreadPoolTest, SumMatchesSerial) {
  ThreadPool pool(8);
  constexpr size_t kItems = 100000;
  std::vector<double> values(kItems);
  std::iota(values.begin(), values.end(), 1.0);
  std::atomic<long long> total{0};
  pool.ParallelFor(0, kItems, 1024, [&](size_t begin, size_t end) {
    long long partial = 0;
    for (size_t i = begin; i < end; ++i) {
      partial += static_cast<long long>(values[i]);
    }
    total.fetch_add(partial, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), static_cast<long long>(kItems) * (kItems + 1) / 2);
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.ParallelFor(0, 5, 1, [&](size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<size_t> order;
  pool.ParallelFor(0, 10, 3, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) order.push_back(i);
  });
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // Inline execution preserves chunk order.
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(4);
  bool invoked = false;
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { invoked = true; });
  pool.ParallelFor(7, 3, 1, [&](size_t, size_t) { invoked = true; });
  EXPECT_FALSE(invoked);
}

TEST(ThreadPoolTest, SingleItemAndOversizedGrain) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(41, 42, 100, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 41u);
    EXPECT_EQ(end, 42u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
  pool.ParallelFor(0, 10, 0, [&](size_t begin, size_t end) {
    // Grain 0 is clamped to 1.
    EXPECT_EQ(end, begin + 1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 11);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  auto throwing = [&](size_t begin, size_t end) {
    if (begin <= 50 && 50 < end) {
      throw std::runtime_error("chunk failed");
    }
    completed.fetch_add(static_cast<int>(end - begin));
  };
  EXPECT_THROW(pool.ParallelFor(0, 100, 10, throwing), std::runtime_error);
  // The pool must remain fully usable after an exception.
  std::atomic<int> after{0};
  pool.ParallelFor(0, 1000, 10, [&](size_t begin, size_t end) {
    after.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(after.load(), 1000);
}

TEST(ThreadPoolTest, LowestChunkExceptionWins) {
  ThreadPool pool(8);
  // Several chunks throw; the rethrown message must always be the one from
  // the lowest-numbered throwing chunk (deterministic across timings).
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      pool.ParallelFor(0, 64, 1, [&](size_t begin, size_t) {
        if (begin % 2 == 1) {
          throw std::runtime_error("chunk " + std::to_string(begin));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 1");
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForMakesProgress) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 8, 1, [&](size_t, size_t) {
    pool.ParallelFor(0, 100, 10, [&](size_t begin, size_t end) {
      total.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPoolTest, MetricsRegistryOutlivesCallerForDrainingTasks) {
  // Regression (ASan/TSAN): workers count every task through raw Counter*/
  // Gauge* hooks into the registry the pool was built with. The pool shares
  // ownership of that registry, so a caller dropping its reference while
  // submitted tasks are still queued must not free the metrics under them.
  std::atomic<int> ran{0};
  int submitted = 0;
  for (int round = 0; round < 100; ++round) {
    auto registry = std::make_shared<MetricsRegistry>();
    std::weak_ptr<MetricsRegistry> watch = registry;
    {
      ThreadPool pool(4, std::move(registry));
      for (int i = 0; i < 32; ++i) {
        if (pool.Submit([&] { ran.fetch_add(1); })) ++submitted;
      }
      EXPECT_FALSE(watch.expired()) << "round " << round;
      // Destruction drains the queue against the pool-owned registry.
    }
    EXPECT_TRUE(watch.expired()) << "round " << round;
  }
  EXPECT_EQ(ran.load(), submitted);
  EXPECT_EQ(submitted, 100 * 32);
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int call = 0; call < 500; ++call) {
    pool.ParallelFor(0, 16, 2, [&](size_t begin, size_t end) {
      total.fetch_add(static_cast<int>(end - begin));
    });
  }
  EXPECT_EQ(total.load(), 500 * 16);
}

}  // namespace
}  // namespace foresight
