#pragma once
/// \file runtime.hpp
/// The asynchronous many-task runtime (our HPX stand-in).
///
/// A fixed pool of worker threads, each owning a Chase–Lev deque.  Tasks
/// spawned from a worker go to that worker's deque (LIFO, cache-hot — this is
/// the property the paper exploits with one-task kernel launches, §VII-C);
/// idle workers steal FIFO from victims; external threads inject through a
/// mutex-protected queue.  Blocking waits from worker threads *help-execute*
/// pending tasks instead of parking, so nested `future::get()` cannot
/// deadlock the pool even with a single OS thread.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "amt/unique_function.hpp"
#include "amt/ws_deque.hpp"

namespace octo::amt {

using task_fn = unique_function<void()>;

/// Aggregate scheduler statistics (monotonic counters).
struct runtime_stats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t failed_steals = 0;
  std::uint64_t external_posts = 0;
  std::uint64_t helping_runs = 0;      ///< tasks run inside blocking waits
  std::uint64_t idle_ns = 0;           ///< summed worker time with no work
  std::uint64_t queue_high_water = 0;  ///< deepest local deque observed
  std::uint64_t max_pending = 0;       ///< high-water of in-flight tasks
};

class runtime {
 public:
  /// Create a pool with \p num_threads workers (>= 1).  Throws octo::error,
  /// before any worker starts, when the environment holds an OCTO_*
  /// variable config::env_registry() does not declare.
  explicit runtime(unsigned num_threads);
  ~runtime();

  runtime(const runtime&) = delete;
  runtime& operator=(const runtime&) = delete;

  /// Schedule \p f for execution.  From a worker thread the task goes to the
  /// local deque; from outside, to the injection queue.
  void post(task_fn f);

  unsigned concurrency() const { return static_cast<unsigned>(workers_.size()); }

  /// True if the calling thread is one of this runtime's workers.
  bool on_worker_thread() const;

  /// Index of the calling worker, or -1 when called from outside the pool.
  int worker_index() const;

  /// Execute at most one pending task on the calling thread.
  /// Used by helping waits.  Returns false when nothing was found.
  bool try_run_one();

  /// The helping wait: run pending tasks on the calling thread, yielding
  /// when none is found, until \p pred() holds.  Every blocking wait in
  /// amt/ is this loop, so a wait never parks a thread the pool needs.
  template <typename Pred>
  void help_until(Pred&& pred) {
    while (!pred())
      if (!try_run_one()) std::this_thread::yield();
  }

  runtime_stats stats() const;

  /// Publish the stats delta since the last export as apex counters
  /// (`amt.tasks_executed`, `amt.steals`, ... — the HPX/APEX performance
  /// counters of the paper's §VIII).  Idempotent across repeated calls:
  /// each increment is exported exactly once.
  void export_apex_counters();

  /// Process-wide default runtime; created on first use with
  /// hardware_concurrency() workers (override with set_global()).
  static runtime& global();

  /// Replace the global runtime (tests use this to control thread counts).
  /// Pass nullptr to revert to the lazily-created default.
  static void set_global(runtime* rt);

 private:
  struct worker {
    explicit worker(int idx) : index(idx) {}
    int index;
    ws_deque<task_fn> deque;
    // Owner-written, sampled concurrently by stats(): relaxed atomics.
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> failed_steals{0};
    std::atomic<std::uint64_t> idle_ns{0};
    std::atomic<std::uint64_t> queue_high_water{0};
    std::uint64_t rng_state = 0;
  };

  void worker_loop(worker& me);
  task_fn* find_task(worker* me);
  task_fn* pop_injected();
  void notify_workers();

  std::vector<std::unique_ptr<worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex inject_mutex_;
  std::deque<task_fn*> injected_;
  std::atomic<std::uint64_t> external_posts_{0};
  std::atomic<std::uint64_t> external_executed_{0};  ///< helping-wait runs
  std::atomic<std::uint64_t> max_pending_{0};

  std::mutex export_mutex_;       ///< guards last_exported_
  runtime_stats last_exported_{};  ///< snapshot at last apex export

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> pending_{0};  ///< tasks posted but not yet run
};

/// RAII helper: installs \p rt as the global runtime for the current scope.
class scoped_global_runtime {
 public:
  explicit scoped_global_runtime(runtime& rt) { runtime::set_global(&rt); }
  ~scoped_global_runtime() { runtime::set_global(nullptr); }
  scoped_global_runtime(const scoped_global_runtime&) = delete;
  scoped_global_runtime& operator=(const scoped_global_runtime&) = delete;
};

}  // namespace octo::amt
