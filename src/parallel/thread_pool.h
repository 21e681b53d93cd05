// Parallel execution engine: a lazily constructed global thread pool plus
// deterministic data-parallel primitives built on top of it.
//
// Design goals, in priority order:
//   1. Bit-identical results at any thread count. Work is partitioned into
//      *fixed-size shards* whose boundaries depend only on the problem size
//      and the grain — never on how many workers happen to exist — and
//      reductions combine shard partials in shard order. A kernel written
//      against ParallelFor/ShardedReduce therefore produces the same
//      floating-point result serial and parallel (see tests/parallel/).
//   2. Safety under composition. ParallelFor called from inside a parallel
//      region (a worker thread, or the caller participating in one)
//      executes inline and serially instead of re-entering the pool, so
//      coarse-grained fan-out (ensemble voters, experiment repeats) can
//      freely call into fine-grained parallel kernels.
//   3. Zero cost when cheap. Regions smaller than one grain never touch
//      the pool; a pool of width 1 never spawns threads.
//
// The pool width defaults to std::thread::hardware_concurrency() and can be
// overridden by the MCIRBM_THREADS environment variable or SetNumThreads()
// (the CLI's --threads flag). Exceptions thrown by shard functions are
// captured and rethrown on the calling thread (first one wins).
#ifndef MCIRBM_PARALLEL_THREAD_POOL_H_
#define MCIRBM_PARALLEL_THREAD_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "rng/rng.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcirbm::parallel {

/// Fixed-width pool of worker threads executing enqueued jobs. Most code
/// should use the free functions below rather than the pool directly.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 resolves to hardware concurrency.
  /// A width of 1 creates no threads (all work runs on the caller).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads participating in a region (workers + caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(task) for every task in [0, num_tasks), distributing tasks
  /// dynamically over the workers and the calling thread. Blocks until all
  /// tasks finish. Rethrows the first exception any task threw. Must not
  /// be called from a worker thread (callers use ParallelFor, which
  /// degrades to inline execution there).
  ///
  /// Run may be entered concurrently from any number of *external*
  /// threads: each call is an independent region and the shared queue is
  /// internally synchronized. This is what lets a persistent service
  /// (serve::MicroBatcher's flusher, plus its client threads) share one
  /// pool with the rest of the process instead of spawning its own
  /// workers. The pool's lifetime is the caveat — SetNumThreads replaces
  /// the global pool and must not race live regions, so long-lived
  /// services pick the width at startup and leave it alone.
  void Run(std::size_t num_tasks, const std::function<void(std::size_t)>& fn);

  /// The process-wide pool. Created on first use with the width given by
  /// MCIRBM_THREADS (else hardware concurrency).
  static ThreadPool& Global();

 private:
  struct Region;  // one Run() invocation

  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_cv_;
  std::deque<std::shared_ptr<Region>> queue_ MCIRBM_GUARDED_BY(mu_);
  bool shutdown_ MCIRBM_GUARDED_BY(mu_) = false;
};

/// Width of the global pool (>= 1).
int NumThreads();

/// Rebuilds the global pool with `num_threads` workers (0 = auto). Not
/// thread-safe with respect to concurrently running parallel regions; call
/// at startup or between phases.
void SetNumThreads(int num_threads);

/// True while the current thread is executing inside a parallel region;
/// nested ParallelFor/ShardedReduce calls then run inline and serially.
bool InParallelRegion();

/// Always true: every kernel reproduces the serial reference bit for bit
/// at any thread count. Kept only because perfbench reports it.
bool Deterministic();

/// Splits [0, n) into ceil(n/grain) fixed-size shards and runs
/// fn(begin, end) for each. Shard boundaries depend only on (n, grain), so
/// any side effects that are disjoint per shard are deterministic across
/// thread counts. Runs serially when there is one shard, the pool has
/// width 1, or the caller is already inside a parallel region.
void ParallelFor(std::size_t n, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn);

/// Deterministic map-reduce over [0, n): shard s covers
/// [s*grain, min((s+1)*grain, n)) and produces map(begin, end); partials
/// are combined *in shard order* into `init`, so the floating-point
/// summation tree is fixed by (n, grain) alone — identical at 1 or N
/// threads.
template <typename T, typename MapFn, typename CombineFn>
T ShardedReduce(std::size_t n, std::size_t grain, T init, const MapFn& map,
                const CombineFn& combine) {
  if (n == 0) return init;
  if (grain == 0) grain = 1;
  const std::size_t shards = (n + grain - 1) / grain;
  std::vector<T> partials(shards);
  ParallelFor(n, grain, [&](std::size_t begin, std::size_t end) {
    partials[begin / grain] = map(begin, end);
  });
  T acc = std::move(init);
  for (std::size_t s = 0; s < shards; ++s) {
    acc = combine(std::move(acc), std::move(partials[s]));
  }
  return acc;
}

/// Sum-reduction convenience: Σ map(begin, end) over fixed shards.
template <typename MapFn>
double ShardedSum(std::size_t n, std::size_t grain, const MapFn& map) {
  return ShardedReduce(
      n, grain, 0.0, map,
      [](double a, double b) { return a + b; });
}

/// Statistically independent RNG substream for shard `shard` of a
/// computation seeded with `seed`. Thread-count independent by
/// construction: the stream depends only on (seed, shard).
rng::Rng ShardRng(std::uint64_t seed, std::uint64_t shard);

}  // namespace mcirbm::parallel

#endif  // MCIRBM_PARALLEL_THREAD_POOL_H_
