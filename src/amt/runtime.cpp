#include "amt/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "apex/apex.hpp"
#include "apex/trace.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/random.hpp"

namespace octo::amt {

namespace {

/// Per-thread identity: which runtime and worker the current thread is.
thread_local runtime* tls_runtime = nullptr;
thread_local int tls_worker_index = -1;

std::atomic<runtime*> g_global{nullptr};
std::mutex g_global_mutex;

}  // namespace

runtime::runtime(unsigned num_threads) {
  OCTO_CHECK(num_threads >= 1);
  // Reject undeclared OCTO_* variables, then bootstrap the trace
  // (OCTO_TRACE, OCTO_TRACE_BUFFER) on this thread: a bad environment
  // throws here rather than terminating a worker.
  config::check_environment();
  (void)apex::trace::instance();
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<worker>(static_cast<int>(i)));
    std::uint64_t seed = 0x9E3779B97F4A7C15ULL * (i + 1);
    workers_.back()->rng_state = splitmix64(seed);
  }
  threads_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(*workers_[i]); });
  }
}

runtime::~runtime() {
  stopping_.store(true, std::memory_order_release);
  notify_workers();
  for (auto& t : threads_) t.join();
  // Drain anything left (tasks own resources; just destroy them).
  while (task_fn* t = pop_injected()) delete t;
  for (auto& w : workers_) {
    while (task_fn* t = w->deque.pop()) delete t;
  }
  if (g_global.load() == this) g_global.store(nullptr);
  // Re-flush the trace now that the workers are joined: the atexit writer
  // may already have run (atexit order vs. static runtime destruction is
  // unspecified), which would drop every span recorded after it.  A no-op
  // without an OCTO_TRACE path; idempotent otherwise.
  apex::trace::instance().write_to_file();
}

void runtime::post(task_fn f) {
  OCTO_ASSERT(f);
  auto* t = new task_fn(std::move(f));
  const auto pending =
      pending_.fetch_add(1, std::memory_order_relaxed) + 1;
  // High-water of posted-but-not-yet-run tasks (queue-occupancy telemetry).
  std::uint64_t hw = max_pending_.load(std::memory_order_relaxed);
  const auto up = static_cast<std::uint64_t>(pending > 0 ? pending : 0);
  while (up > hw && !max_pending_.compare_exchange_weak(
                        hw, up, std::memory_order_relaxed))
    ;
  if (tls_runtime == this && tls_worker_index >= 0) {
    workers_[tls_worker_index]->deque.push(t);
    auto& w = *workers_[tls_worker_index];
    const auto depth =
        static_cast<std::uint64_t>(w.deque.size_estimate());
    if (depth > w.queue_high_water.load(std::memory_order_relaxed))
      w.queue_high_water.store(depth, std::memory_order_relaxed);
  } else {
    {
      const std::lock_guard<std::mutex> lock(inject_mutex_);
      injected_.push_back(t);
    }
    external_posts_.fetch_add(1, std::memory_order_relaxed);
  }
  if (sleepers_.load(std::memory_order_acquire) > 0) notify_workers();
}

bool runtime::on_worker_thread() const { return tls_runtime == this; }

int runtime::worker_index() const {
  return tls_runtime == this ? tls_worker_index : -1;
}

task_fn* runtime::pop_injected() {
  const std::lock_guard<std::mutex> lock(inject_mutex_);
  if (injected_.empty()) return nullptr;
  task_fn* t = injected_.front();
  injected_.pop_front();
  return t;
}

task_fn* runtime::find_task(worker* me) {
  // 1. Own deque (only meaningful for workers).
  if (me != nullptr) {
    if (task_fn* t = me->deque.pop()) return t;
  }
  // 2. Injection queue.
  if (task_fn* t = pop_injected()) return t;
  // 3. Steal from a random victim, then sweep all.
  const int n = static_cast<int>(workers_.size());
  if (n > 1 || me == nullptr) {
    std::uint64_t rng = me ? me->rng_state : 0x2545F4914F6CDD1DULL;
    const int start = static_cast<int>(splitmix64(rng) % n);
    if (me) me->rng_state = rng;
    for (int k = 0; k < n; ++k) {
      const int v = (start + k) % n;
      if (me != nullptr && v == me->index) continue;
      if (task_fn* t = workers_[v]->deque.steal()) {
        if (me) {
          me->steals.fetch_add(1, std::memory_order_relaxed);
          if (apex::trace::enabled())
            apex::trace::instance().record_instant("amt.steal");
        }
        return t;
      }
    }
    if (me) me->failed_steals.fetch_add(1, std::memory_order_relaxed);
  }
  return nullptr;
}

bool runtime::try_run_one() {
  worker* me = (tls_runtime == this && tls_worker_index >= 0)
                   ? workers_[tls_worker_index].get()
                   : nullptr;
  task_fn* t = find_task(me);
  if (t == nullptr) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  if (me) {
    me->executed.fetch_add(1, std::memory_order_relaxed);
  } else {
    external_executed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (apex::trace::enabled()) {
    // One span per task execution; helping-wait runs (a blocked thread
    // executing someone else's task, see future::wait) get their own name
    // so starvation-fill work is distinguishable in the timeline.
    const apex::scoped_trace_span span(me ? "amt.task" : "amt.helping_run");
    (*t)();
  } else {
    (*t)();
  }
  delete t;
  return true;
}

void runtime::worker_loop(worker& me) {
  tls_runtime = this;
  tls_worker_index = me.index;
  apex::trace::instance().set_thread_name("amt.worker." +
                                          std::to_string(me.index));
  using clock = std::chrono::steady_clock;
  int idle_spins = 0;
  clock::time_point idle_since{};
  bool idle = false;
  const auto leave_idle = [&] {
    if (!idle) return;
    idle = false;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        clock::now() - idle_since)
                        .count();
    me.idle_ns.fetch_add(static_cast<std::uint64_t>(ns),
                         std::memory_order_relaxed);
  };
  while (!stopping_.load(std::memory_order_acquire)) {
    if (try_run_one()) {
      leave_idle();
      idle_spins = 0;
      continue;
    }
    // Idle-time telemetry: clock reads only on busy<->idle transitions, so
    // the hot (saturated) path stays clock-free.
    if (!idle) {
      idle = true;
      idle_since = clock::now();
    }
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    // Nothing to do for a while: sleep with a bounded timeout.  The timeout
    // (rather than relying purely on notifications) makes missed wakeups
    // impossible to deadlock on.
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleepers_.fetch_add(1, std::memory_order_acq_rel);
    sleep_cv_.wait_for(lock, std::chrono::microseconds(500), [this] {
      return stopping_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_acq_rel);
    idle_spins = 0;
  }
  leave_idle();
  tls_runtime = nullptr;
  tls_worker_index = -1;
}

void runtime::notify_workers() {
  const std::lock_guard<std::mutex> lock(sleep_mutex_);
  sleep_cv_.notify_all();
}

runtime_stats runtime::stats() const {
  runtime_stats s;
  for (const auto& w : workers_) {
    s.tasks_executed += w->executed.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.failed_steals += w->failed_steals.load(std::memory_order_relaxed);
    s.idle_ns += w->idle_ns.load(std::memory_order_relaxed);
    s.queue_high_water =
        std::max(s.queue_high_water,
                 w->queue_high_water.load(std::memory_order_relaxed));
  }
  s.helping_runs = external_executed_.load(std::memory_order_relaxed);
  s.tasks_executed += s.helping_runs;
  s.external_posts = external_posts_.load(std::memory_order_relaxed);
  s.max_pending = max_pending_.load(std::memory_order_relaxed);
  return s;
}

void runtime::export_apex_counters() {
  struct counter_ids {
    apex::metric_id executed =
        apex::registry::instance().counter("amt.tasks_executed");
    apex::metric_id steals = apex::registry::instance().counter("amt.steals");
    apex::metric_id failed =
        apex::registry::instance().counter("amt.failed_steals");
    apex::metric_id posts =
        apex::registry::instance().counter("amt.external_posts");
    apex::metric_id helping =
        apex::registry::instance().counter("amt.helping_runs");
    apex::metric_id idle_us =
        apex::registry::instance().counter("amt.worker_idle_us");
    apex::metric_id queue_hw =
        apex::registry::instance().counter("amt.queue_high_water");
    apex::metric_id max_pending =
        apex::registry::instance().counter("amt.max_pending");
  };
  static const counter_ids ids;

  const std::lock_guard<std::mutex> lock(export_mutex_);
  const runtime_stats now = stats();
  auto& reg = apex::registry::instance();
  const auto delta = [](std::uint64_t cur, std::uint64_t last) {
    return cur > last ? cur - last : 0;
  };
  reg.add(ids.executed, delta(now.tasks_executed, last_exported_.tasks_executed));
  reg.add(ids.steals, delta(now.steals, last_exported_.steals));
  reg.add(ids.failed, delta(now.failed_steals, last_exported_.failed_steals));
  reg.add(ids.posts, delta(now.external_posts, last_exported_.external_posts));
  reg.add(ids.helping, delta(now.helping_runs, last_exported_.helping_runs));
  reg.add(ids.idle_us,
          delta(now.idle_ns, last_exported_.idle_ns) / 1000);
  // High-water marks only grow; export the increase so the apex counter
  // tracks the current maximum.
  reg.add(ids.queue_hw,
          delta(now.queue_high_water, last_exported_.queue_high_water));
  reg.add(ids.max_pending, delta(now.max_pending, last_exported_.max_pending));
  last_exported_ = now;
}

runtime& runtime::global() {
  runtime* rt = g_global.load(std::memory_order_acquire);
  if (rt != nullptr) return *rt;
  const std::lock_guard<std::mutex> lock(g_global_mutex);
  rt = g_global.load(std::memory_order_acquire);
  if (rt == nullptr) {
    const unsigned hc = std::thread::hardware_concurrency();
    static runtime default_rt(hc == 0 ? 2 : hc);
    g_global.store(&default_rt, std::memory_order_release);
    rt = &default_rt;
  }
  return *rt;
}

void runtime::set_global(runtime* rt) {
  g_global.store(rt, std::memory_order_release);
}

}  // namespace octo::amt
