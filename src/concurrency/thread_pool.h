#pragma once

// Process-wide worker pool for the shared-memory parallel cell loops and
// BLAS-1 sweeps. One pool serves the whole process; parallel regions are
// handed out cooperatively:
//
//  * run_chunks(n, fn) executes fn(0..n-1) on the caller plus up to
//    n_threads()-1 workers. Chunks are grabbed from a shared atomic counter,
//    so the assignment of chunks to threads is nondeterministic — every
//    caller must make the RESULT independent of that assignment (disjoint
//    write ranges, fixed reduction order). All users in this codebase are
//    bitwise deterministic under this contract (see docs/DEVELOPING.md,
//    "Shared-memory parallel loops").
//  * Only one parallel region runs at a time. A caller that finds the pool
//    busy — another thread's region, or a nested call from inside a chunk —
//    simply runs its chunks inline on its own thread. Because of the
//    determinism contract this fallback is bitwise identical, so vmpi
//    ranks-as-threads can race for the pool without affecting results.
//  * The fork-join handoff takes no lock: the caller publishes the job (on
//    its own stack) through an atomic epoch, workers spin on the epoch for
//    spin_window after their last region and only then park on a condition
//    variable, and the caller spins until every chunk has reported. Regions
//    a few microseconds long therefore start in well under a microsecond
//    while the solver issues them back to back, and idle workers still
//    sleep. A count of active workers guards the job's lifetime (see
//    run_chunks).
//  * async(task) enqueues fire-and-forget work on a dedicated FIFO service
//    thread (the asynchronous checkpoint writer's disk lane) — strictly
//    ordered, drained on destruction, separate from the fork-join workers.
//  * set_external_concurrency(n_ranks) caps worker participation while
//    vmpi::run has n_ranks rank threads alive, so ranks x threads never
//    oversubscribes beyond max(n_threads, n_ranks) runnable threads.
//
// The pool width comes from DGFLOW_THREADS (strict common/env.h parsing,
// default 1 = serial; a malformed value throws instead of silently running
// serial) or programmatically via set_n_threads(). Workers are spawned
// lazily on first use and joined in the destructor.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/exceptions.h"

namespace dgflow::concurrency
{
/// Pool width requested via the environment: DGFLOW_THREADS in [1, 1024],
/// unset means 1 (serial). Parsing is strict: "0", "banana" or "4x" throw
/// EnvVarError naming the variable rather than degrading to serial.
inline unsigned int configured_threads_from_env()
{
  return static_cast<unsigned int>(env_integer("DGFLOW_THREADS", 1, 1, 1024));
}

/// One iteration of a busy-wait loop: tells the core that this hardware
/// thread spins (frees pipeline resources for a sibling, avoids the
/// memory-order mis-speculation penalty on loop exit).
inline void cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

class ThreadPool
{
public:
  /// How long an idle worker spins on the job epoch before it parks. Waking
  /// a parked thread costs a futex round trip — hundreds of microseconds on
  /// a virtualized host without a cpuidle driver, and the woken thread tends
  /// to land on the caller's core — while the solver's regions are 2-500 us
  /// long and follow each other within microseconds. The window spans the
  /// gap between consecutive regions of a solve, and after it the worker
  /// gives its core back.
  static constexpr std::chrono::microseconds spin_window{500};

  /// The process-wide pool, sized from DGFLOW_THREADS on first use.
  static ThreadPool &instance()
  {
    static ThreadPool pool(configured_threads_from_env());
    return pool;
  }

  explicit ThreadPool(const unsigned int n_threads)
  {
    set_n_threads(n_threads);
  }

  ~ThreadPool()
  {
    join_service_thread();
    join_workers();
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned int n_threads() const
  {
    return n_threads_.load(std::memory_order_relaxed);
  }

  /// Resizes the pool (joins existing workers; new ones spawn lazily).
  /// Blocks until any running parallel region has finished.
  void set_n_threads(const unsigned int n)
  {
    acquire_region();
    join_workers();
    n_threads_.store(std::max(1u, n), std::memory_order_relaxed);
    release_region();
  }

  /// Declares @p n_ranks external compute threads (vmpi ranks) alive; while
  /// more than one is registered, at most n_threads() - n_ranks workers join
  /// a region so the process never runs more than max(n_threads, n_ranks)
  /// compute threads, and idle workers park at once instead of spinning on
  /// cores the ranks need. Pass 1 to lift the cap.
  void set_external_concurrency(const unsigned int n_ranks)
  {
    external_.store(std::max(1u, n_ranks), std::memory_order_relaxed);
  }

  /// Executes fn(c) for every c in [0, n_chunks), returning when all chunks
  /// are done. The caller participates; if the pool is busy or capped the
  /// caller runs every chunk inline in ascending order. The first exception
  /// thrown by any chunk is rethrown on the caller after the region drains.
  void run_chunks(const unsigned int n_chunks,
                  const std::function<void(unsigned int)> &fn)
  {
    if (n_chunks == 0)
      return;
    if (n_chunks == 1 || in_parallel_region() || !try_acquire_region())
    {
      run_inline(n_chunks, fn);
      return;
    }
    // region held from here on
    const unsigned int nt = n_threads();
    const unsigned int ext = external_.load(std::memory_order_relaxed);
    const unsigned int workers_allowed =
      ext <= 1 ? nt - 1 : (nt > ext ? nt - ext : 0u);
    if (workers_allowed == 0)
    {
      release_region();
      run_inline(n_chunks, fn);
      return;
    }
    ensure_workers();
    Job job;
    job.fn = &fn;
    job.n = n_chunks;
    job.workers_allowed = workers_allowed;
    job_.store(&job);
    epoch_.fetch_add(1);
    if (parked_.load() > 0)
    {
      // a parked worker checked the epoch under park_mutex_ before it went
      // to sleep, so notifying under the same lock cannot be lost
      std::lock_guard<std::mutex> lock(park_mutex_);
      park_cv_.notify_all();
    }
    in_parallel_region() = true;
    execute(job);
    in_parallel_region() = false;
    spin_until(
      [&] { return job.done.load(std::memory_order_acquire) == job.n; });
    // Lifetime of the stack-allocated job: a worker increments active_
    // before it loads job_ and decrements it when it no longer touches the
    // job. Both sides use sequentially consistent operations, so either the
    // worker's load comes after the store of nullptr below (it sees no job,
    // or a later region's), or its increment comes before the caller reads
    // active_ and the caller waits for it.
    job_.store(nullptr);
    spin_until([&] { return active_.load() == 0; });
    release_region();
    if (job.error)
      std::rethrow_exception(job.error);
  }

  /// Enqueues @p task on the pool's background service thread — the fire-
  /// and-forget counterpart to the fork-join regions above, used by the
  /// asynchronous checkpoint writer to take disk I/O off the solver thread.
  /// Tasks run strictly FIFO on ONE dedicated thread (spawned lazily, and
  /// separate from the fork-join workers so a long disk write never steals
  /// a compute lane), so two async submissions never race each other: the
  /// ordering guarantee the multi-generation checkpoint ring's monotonic
  /// HEAD depends on. The destructor drains the queue before joining — an
  /// enqueued task always runs. A task must not throw; escaped exceptions
  /// are swallowed after a stderr note (there is no caller left to rethrow
  /// to).
  void async(std::function<void()> task)
  {
    std::lock_guard<std::mutex> lock(async_mutex_);
    async_queue_.push_back(std::move(task));
    if (!service_thread_.joinable())
      service_thread_ = std::thread([this] { service_loop(); });
    async_cv_.notify_one();
  }

  /// Elementwise parallel sweep: f(begin, end) over a contiguous split of
  /// [0, n) into at most n_threads() chunks. Small sweeps (and a serial
  /// pool) run inline as a single f(0, n). Only safe for operations whose
  /// result does not depend on the split (disjoint elementwise updates).
  template <typename F>
  void parallel_for(const std::size_t n, F &&f)
  {
    constexpr std::size_t grain = 1 << 16;
    const unsigned int nt = n_threads();
    if (n < 2 * grain || nt <= 1)
    {
      f(std::size_t(0), n);
      return;
    }
    const unsigned int n_chunks =
      static_cast<unsigned int>(std::min<std::size_t>(nt, n / grain));
    const std::size_t q = n / n_chunks, r = n % n_chunks;
    run_chunks(n_chunks, [&](const unsigned int c) {
      const std::size_t begin = std::size_t(c) * q + std::min<std::size_t>(c, r);
      f(begin, begin + q + (c < r ? 1 : 0));
    });
  }

private:
  /// One parallel region. Lives on the dispatching caller's stack; workers
  /// reach it through job_ only while they are counted in active_.
  struct Job
  {
    const std::function<void(unsigned int)> *fn = nullptr;
    unsigned int n = 0;
    unsigned int workers_allowed = 0;
    std::atomic<unsigned int> next{0};
    std::atomic<unsigned int> done{0};
    std::atomic<unsigned int> participants{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error; ///< written once, by the first failing chunk
  };

  /// True while this thread executes chunks of some region — a nested
  /// run_chunks must run inline (only one region runs at a time).
  static bool &in_parallel_region()
  {
    thread_local bool flag = false;
    return flag;
  }

  static void run_inline(const unsigned int n_chunks,
                         const std::function<void(unsigned int)> &fn)
  {
    for (unsigned int c = 0; c < n_chunks; ++c)
      fn(c);
  }

  /// Spins with cpu_relax until @p ready holds, yielding the core now and
  /// then so a preempted worker the caller waits for can run.
  template <typename Ready>
  static void spin_until(Ready &&ready)
  {
    for (unsigned int i = 1; !ready(); ++i)
    {
      cpu_relax();
      if (i % 1024 == 0)
        std::this_thread::yield();
    }
  }

  bool try_acquire_region()
  {
    return !region_busy_.exchange(true, std::memory_order_acquire);
  }

  void acquire_region()
  {
    spin_until([this] { return try_acquire_region(); });
  }

  void release_region()
  {
    region_busy_.store(false, std::memory_order_release);
  }

  /// Grabs and runs chunks until the job's counter is exhausted. The first
  /// exception is stored before the chunk reports done, so the caller's
  /// acquire load of done == n also publishes it.
  static void execute(Job &job)
  {
    while (true)
    {
      const unsigned int c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.n)
        return;
      try
      {
        (*job.fn)(c);
      }
      catch (...)
      {
        if (!job.failed.exchange(true, std::memory_order_relaxed))
          job.error = std::current_exception();
      }
      job.done.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  void service_loop()
  {
    while (true)
    {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(async_mutex_);
        async_cv_.wait(lock,
                       [&] { return async_stop_ || !async_queue_.empty(); });
        if (async_queue_.empty())
          return; // stop requested and the queue is drained
        task = std::move(async_queue_.front());
        async_queue_.pop_front();
      }
      try
      {
        task();
      }
      catch (const std::exception &e)
      {
        std::fprintf(stderr, "ThreadPool::async task threw: %s\n", e.what());
      }
      catch (...)
      {
        std::fprintf(stderr, "ThreadPool::async task threw\n");
      }
    }
  }

  void join_service_thread()
  {
    {
      std::lock_guard<std::mutex> lock(async_mutex_);
      async_stop_ = true;
      async_cv_.notify_all();
    }
    if (service_thread_.joinable())
      service_thread_.join();
    async_stop_ = false;
  }

  /// Waits until the epoch moves past @p seen or the pool stops: spins for
  /// spin_window (not at all while external rank threads are registered),
  /// then parks on park_cv_. Returns the epoch observed.
  std::uint64_t wait_for_job(const std::uint64_t seen)
  {
    using Clock = std::chrono::steady_clock;
    const auto moved = [&] {
      return stop_.load() || epoch_.load() != seen;
    };
    if (external_.load(std::memory_order_relaxed) <= 1)
    {
      const auto deadline = Clock::now() + spin_window;
      for (unsigned int i = 1; !moved(); ++i)
      {
        cpu_relax();
        if (i % 64 == 0 && Clock::now() > deadline)
          break;
      }
    }
    if (!moved())
    {
      std::unique_lock<std::mutex> lock(park_mutex_);
      parked_.fetch_add(1);
      park_cv_.wait(lock, moved);
      parked_.fetch_sub(1);
    }
    return epoch_.load();
  }

  void worker_loop(std::uint64_t seen)
  {
    while (true)
    {
      seen = wait_for_job(seen);
      if (stop_.load())
        return;
      active_.fetch_add(1);
      Job *job = job_.load();
      if (job != nullptr &&
          job->participants.fetch_add(1, std::memory_order_relaxed) <
            job->workers_allowed) // else the concurrency cap: sit it out
      {
        in_parallel_region() = true;
        execute(*job);
        in_parallel_region() = false;
      }
      active_.fetch_sub(1);
    }
  }

  // callers hold the region: run_chunks and set_n_threads
  void ensure_workers()
  {
    const unsigned int nt = n_threads();
    if (!workers_.empty() || nt <= 1)
      return;
    // workers start from the current epoch, so the region about to be
    // published is the first they see
    const std::uint64_t epoch = epoch_.load();
    workers_.reserve(nt - 1);
    for (unsigned int t = 0; t + 1 < nt; ++t)
      workers_.emplace_back([this, epoch] { worker_loop(epoch); });
  }

  void join_workers()
  {
    if (workers_.empty())
      return;
    stop_.store(true);
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      park_cv_.notify_all();
    }
    for (auto &w : workers_)
      w.join();
    workers_.clear();
    stop_.store(false);
  }

  std::atomic<unsigned int> n_threads_{1};
  std::atomic<unsigned int> external_{1};
  std::atomic<bool> region_busy_{false}; ///< serializes parallel regions

  // fork-join handoff: the current job, its epoch, the workers touching it
  std::atomic<Job *> job_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<unsigned int> active_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;

  // parking of workers whose spin window ran out
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<unsigned int> parked_{0};

  // background service thread (async()): FIFO queue, drained before join
  std::mutex async_mutex_;
  std::condition_variable async_cv_;
  std::deque<std::function<void()>> async_queue_;
  std::thread service_thread_;
  bool async_stop_ = false;
};

} // namespace dgflow::concurrency
