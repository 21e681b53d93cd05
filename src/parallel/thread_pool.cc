#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "util/check.h"

namespace mcirbm::parallel {
namespace {

// Set while a thread executes shard work (worker threads always; the
// calling thread while it participates in a region). Guards against
// re-entering the pool from nested parallel calls.
thread_local bool tls_in_parallel_region = false;

int ResolveWidth(int num_threads) {
  if (num_threads <= 0) {
    if (const char* env = std::getenv("MCIRBM_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && v > 0) num_threads = static_cast<int>(v);
    }
  }
  if (num_threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  return num_threads;
}

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

Mutex& GlobalMutex() {
  static Mutex mu;
  return mu;
}

}  // namespace

// One Run() invocation: tasks are claimed with an atomic counter; the last
// finisher signals the caller. Workers holding a Region outlive neither
// the counter nor the callback because the caller blocks until
// `completed == num_tasks`.
struct ThreadPool::Region {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t num_tasks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  Mutex mu;
  CondVar done_cv;
  std::exception_ptr error MCIRBM_GUARDED_BY(mu);  // first exception

  // Claims and runs tasks until none remain. Returns after contributing
  // its completions to `completed`.
  void Drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) break;
      try {
        (*fn)(i);
      } catch (...) {
        MutexLock lock(mu);
        if (!error) error = std::current_exception();
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_tasks) {
        // Wake the caller (it may already be draining; harmless).
        MutexLock lock(mu);
        done_cv.NotifyAll();
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads) {
  const int width = ResolveWidth(num_threads);
  workers_.reserve(width - 1);
  for (int t = 0; t < width - 1; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_region = true;
  for (;;) {
    std::shared_ptr<Region> region;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) work_cv_.Wait(mu_);
      if (shutdown_ && queue_.empty()) return;
      region = queue_.front();
      queue_.pop_front();
    }
    region->Drain();
  }
}

void ThreadPool::Run(std::size_t num_tasks,
                     const std::function<void(std::size_t)>& fn) {
  if (num_tasks == 0) return;
  MCIRBM_CHECK(!tls_in_parallel_region)
      << "ThreadPool::Run re-entered from a parallel region";
  if (num_tasks == 1) {
    // A single task runs inline at every pool width; it is not a region.
    fn(0);
    return;
  }
  if (workers_.empty()) {
    // Width-1 serial fallback. Mark the region anyway so nested calls see
    // the same InParallelRegion() answer they would on a worker thread —
    // otherwise kernels that branch on it would become thread-count
    // dependent.
    tls_in_parallel_region = true;
    try {
      for (std::size_t i = 0; i < num_tasks; ++i) fn(i);
    } catch (...) {
      tls_in_parallel_region = false;
      throw;
    }
    tls_in_parallel_region = false;
    return;
  }

  auto region = std::make_shared<Region>();
  region->fn = &fn;
  region->num_tasks = num_tasks;

  // One queue entry per helper; each drains the shared counter, so idle
  // helpers exit immediately once tasks run out.
  const std::size_t helpers =
      std::min(workers_.size(), num_tasks - 1);
  {
    MutexLock lock(mu_);
    for (std::size_t h = 0; h < helpers; ++h) queue_.push_back(region);
  }
  if (helpers == 1) {
    work_cv_.NotifyOne();
  } else {
    work_cv_.NotifyAll();
  }

  // The caller participates, then waits for stragglers.
  tls_in_parallel_region = true;
  region->Drain();
  tls_in_parallel_region = false;
  {
    MutexLock lock(region->mu);
    while (region->completed.load(std::memory_order_acquire) !=
           region->num_tasks) {
      region->done_cv.Wait(region->mu);
    }
    if (region->error) std::rethrow_exception(region->error);
  }
}

ThreadPool& ThreadPool::Global() {
  MutexLock lock(GlobalMutex());
  std::unique_ptr<ThreadPool>& slot = GlobalSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(0);
  return *slot;
}

int NumThreads() { return ThreadPool::Global().num_threads(); }

void SetNumThreads(int num_threads) {
  MutexLock lock(GlobalMutex());
  GlobalSlot() = std::make_unique<ThreadPool>(num_threads);
}

bool InParallelRegion() { return tls_in_parallel_region; }

bool Deterministic() { return true; }

void ParallelFor(std::size_t n, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t shards = (n + grain - 1) / grain;
  if (shards == 1 || tls_in_parallel_region) {
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = s * grain;
      fn(begin, std::min(begin + grain, n));
    }
    return;
  }
  ThreadPool::Global().Run(shards, [&](std::size_t s) {
    const std::size_t begin = s * grain;
    fn(begin, std::min(begin + grain, n));
  });
}

rng::Rng ShardRng(std::uint64_t seed, std::uint64_t shard) {
  // Mix the shard index into the seed with two odd 64-bit constants
  // (SplitMix64-style) so adjacent shards land in distant seed states;
  // rng::Rng's own SplitMix64 expansion does the rest.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (shard + 1);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  return rng::Rng(z);
}

}  // namespace mcirbm::parallel
