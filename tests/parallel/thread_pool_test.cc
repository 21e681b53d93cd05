#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mcirbm::parallel {
namespace {

// Restores the default global pool after each test so tests don't leak
// width settings into each other.
class ThreadPoolTest : public ::testing::Test {
 protected:
  ~ThreadPoolTest() override { SetNumThreads(0); }
};

TEST_F(ThreadPoolTest, PoolLifecycleRunsEveryTaskOnce) {
  for (int width : {1, 2, 4}) {
    ThreadPool pool(width);
    EXPECT_GE(pool.num_threads(), 1);
    std::vector<std::atomic<int>> hits(100);
    pool.Run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST_F(ThreadPoolTest, ConcurrentRunFromExternalThreads) {
  // A persistent service (serve::MicroBatcher's flusher plus its client
  // threads) shares the pool with the rest of the process: Run entered
  // from several external threads at once must keep every region's tasks
  // isolated and complete.
  ThreadPool pool(3);
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 10;
  constexpr std::size_t kTasks = 64;
  std::vector<std::thread> submitters;
  std::vector<int> failures(kSubmitters, 0);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kTasks);
        pool.Run(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto& h : hits) {
          if (h.load() != 1) ++failures[s];
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  for (int s = 0; s < kSubmitters; ++s) EXPECT_EQ(failures[s], 0);
}

TEST_F(ThreadPoolTest, DestructorJoinsIdleWorkers) {
  // Construct and immediately destroy; must not hang or leak threads.
  for (int round = 0; round < 5; ++round) {
    ThreadPool pool(4);
  }
}

TEST_F(ThreadPoolTest, SetNumThreadsRebuildsGlobalPool) {
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
}

TEST_F(ThreadPoolTest, EnvVarSetsDefaultWidth) {
  ::setenv("MCIRBM_THREADS", "2", /*overwrite=*/1);
  SetNumThreads(0);
  EXPECT_EQ(NumThreads(), 2);
  ::unsetenv("MCIRBM_THREADS");
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1);
}

TEST_F(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(hits.size(), 7, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ThreadPoolTest, ParallelForPropagatesExceptions) {
  SetNumThreads(4);
  EXPECT_THROW(
      ParallelFor(100, 1,
                  [](std::size_t begin, std::size_t) {
                    if (begin == 42) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> count{0};
  ParallelFor(10, 1,
              [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST_F(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  ParallelFor(64, 1, [&](std::size_t b0, std::size_t e0) {
    for (std::size_t i = b0; i < e0; ++i) {
      EXPECT_TRUE(InParallelRegion());
      ParallelFor(64, 8, [&](std::size_t b1, std::size_t e1) {
        for (std::size_t j = b1; j < e1; ++j) hits[i * 64 + j].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(InParallelRegion());
}

TEST_F(ThreadPoolTest, SerialFallbackStillMarksParallelRegion) {
  // A width-1 pool must answer InParallelRegion() the same way a worker
  // would, or kernels branching on it become thread-count dependent.
  ThreadPool pool(1);
  bool seen_in_region = false;
  pool.Run(4, [&](std::size_t) { seen_in_region = InParallelRegion(); });
  EXPECT_TRUE(seen_in_region);
  EXPECT_FALSE(InParallelRegion());
  // ...including when a task throws.
  EXPECT_THROW(pool.Run(4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  EXPECT_FALSE(InParallelRegion());
  // A single task is not a region at any width.
  pool.Run(1, [&](std::size_t) { seen_in_region = InParallelRegion(); });
  EXPECT_FALSE(seen_in_region);
}

TEST_F(ThreadPoolTest, ShardedReduceIsThreadCountInvariant) {
  // A sum whose result depends on the reduction tree: catching a
  // thread-count-dependent schedule would show up as a bit difference.
  std::vector<double> values(10001);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  const auto sum = [&] {
    return ShardedSum(values.size(), 128,
                      [&](std::size_t begin, std::size_t end) {
                        double s = 0;
                        for (std::size_t i = begin; i < end; ++i) {
                          s += values[i];
                        }
                        return s;
                      });
  };
  SetNumThreads(1);
  const double serial = sum();
  for (int width : {2, 8}) {
    SetNumThreads(width);
    EXPECT_EQ(serial, sum()) << "width " << width;
  }
}

TEST_F(ThreadPoolTest, ShardedReduceCombinesInShardOrder) {
  SetNumThreads(8);
  const auto concat = ShardedReduce(
      10, 2, std::vector<std::size_t>{},
      [](std::size_t begin, std::size_t) {
        return std::vector<std::size_t>{begin};
      },
      [](std::vector<std::size_t> acc, std::vector<std::size_t> part) {
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  EXPECT_EQ(concat, (std::vector<std::size_t>{0, 2, 4, 6, 8}));
}

TEST_F(ThreadPoolTest, ShardRngIsDeterministicAndDecorrelated) {
  rng::Rng a = ShardRng(7, 0);
  rng::Rng b = ShardRng(7, 0);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  rng::Rng c = ShardRng(7, 1);
  rng::Rng d = ShardRng(8, 0);
  const std::uint64_t base = ShardRng(7, 0).NextUint64();
  EXPECT_NE(base, c.NextUint64());
  EXPECT_NE(base, d.NextUint64());
}

}  // namespace
}  // namespace mcirbm::parallel
