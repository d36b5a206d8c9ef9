#pragma once
/// \file future.hpp
/// Futures and promises with continuations, in the HPX style.
///
/// Differences from std::future that matter for an AMT runtime:
///   * `future::then(f)` attaches a continuation that is *posted as a task*
///     when the value arrives — this is how Octo-Tiger chains "launch Kokkos
///     kernel, then send boundary" without fork-join barriers (§IV-B);
///   * `get()`/`wait()` called from a worker thread help-execute pending
///     tasks instead of blocking, so nested waits cannot starve the pool;
///   * `when_all` composes vectors of futures into one;
///   * `shared_future` is the copyable handle used as a dependency edge in
///     task graphs (many readers of one producer);
///   * `dataflow(f, deps)` schedules `f` as a task the moment every
///     dependency resolves, *without* parking a worker on a wait — the
///     primitive behind the per-leaf dependency-driven time step (the
///     paper's Fig. 9 lesson, expressed as dependencies instead of
///     barriers).  A dependency that carries an exception is propagated to
///     the task's future without running `f`, scanning deps in order so the
///     surfaced error is deterministic.
///
/// Observability: `amt.tasks_deferred` counts dataflow attachments that
/// found at least one unresolved input (the graph genuinely deferred work);
/// `amt.continuations_inline` counts continuations run inline on the thread
/// that produced the value (then_inline / dataflow bookkeeping).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "amt/runtime.hpp"
#include "amt/unique_function.hpp"
#include "apex/apex.hpp"
#include "apex/dag.hpp"
#include "apex/race_audit.hpp"
#include "apex/trace.hpp"
#include "common/error.hpp"

namespace octo::amt {

template <typename T>
class future;
template <typename T>
class promise;
template <typename T>
class shared_future;

namespace detail {

struct unit {};

/// Combinator counters (lazily registered; apex is linked below amt).
struct combinator_counters {
  apex::metric_id tasks_deferred =
      apex::registry::instance().counter("amt.tasks_deferred");
  apex::metric_id continuations_inline =
      apex::registry::instance().counter("amt.continuations_inline");
};
inline combinator_counters& counters() {
  static combinator_counters c;
  return c;
}

/// Result type of a continuation F applied to a future<T>'s value
/// (F() for T == void).  Lazily evaluated so only the valid branch is
/// instantiated.
template <typename F, typename T>
struct cont_result {
  using type = std::invoke_result_t<F, T>;
};
template <typename F>
struct cont_result<F, void> {
  using type = std::invoke_result_t<F>;
};
template <typename F, typename T>
using cont_result_t = typename cont_result<F, T>::type;

template <typename T>
using storage_of = std::conditional_t<std::is_void_v<T>, unit, T>;

/// State shared by one promise and one (or more, via shared_future) futures.
template <typename T>
class shared_state {
  using storage_t = storage_of<T>;

 public:
  bool ready() const {
    const std::lock_guard<std::mutex> lock(m_);
    return ready_unlocked();
  }

  void set_value(storage_t v) {
    std::vector<unique_function<void()>> conts;
    {
      const std::lock_guard<std::mutex> lock(m_);
      OCTO_CHECK_MSG(!ready_unlocked(), "promise already satisfied");
      value_.emplace(std::move(v));
      conts.swap(continuations_);
    }
    for (auto& c : conts) c();
  }

  void set_exception(std::exception_ptr e) {
    std::vector<unique_function<void()>> conts;
    {
      const std::lock_guard<std::mutex> lock(m_);
      OCTO_CHECK_MSG(!ready_unlocked(), "promise already satisfied");
      eptr_ = std::move(e);
      conts.swap(continuations_);
    }
    for (auto& c : conts) c();
  }

  /// Attach a continuation; runs immediately (on the caller) if already
  /// ready, otherwise runs on whichever thread satisfies the promise.
  void add_continuation(unique_function<void()> c) {
    {
      const std::lock_guard<std::mutex> lock(m_);
      if (!ready_unlocked()) {
        continuations_.push_back(std::move(c));
        return;
      }
    }
    c();
  }

  /// Block until ready, helping the runtime if called from a worker thread.
  void wait(runtime* rt) {
    if (ready()) return;
    if (rt != nullptr && rt->on_worker_thread()) {
      while (!ready()) {
        if (!rt->try_run_one()) std::this_thread::yield();
      }
      return;
    }
    // External thread: also try to help the global pool rather than spin.
    runtime* helper = rt;
    while (!ready()) {
      if (helper == nullptr || !helper->try_run_one())
        std::this_thread::yield();
    }
  }

  /// Like wait(), but gives up at \p deadline.  Returns true when the state
  /// became ready, false on timeout.  Helping semantics match wait(): a
  /// worker thread executes pending tasks while it waits, so a timed wait
  /// cannot starve the pool either.
  bool wait_until(runtime* rt,
                  std::chrono::steady_clock::time_point deadline) {
    while (!ready()) {
      if (std::chrono::steady_clock::now() >= deadline) return ready();
      if (rt == nullptr || !rt->try_run_one()) std::this_thread::yield();
    }
    return true;
  }

  /// Move the value out (call once, after wait()).
  storage_t take() {
    const std::lock_guard<std::mutex> lock(m_);
    OCTO_ASSERT(ready_unlocked());
    if (eptr_) std::rethrow_exception(eptr_);
    storage_t v = std::move(*value_);
    value_.reset();
    taken_ = true;
    return v;
  }

  /// Copy the value (shared_future semantics).
  const storage_t& peek() const {
    const std::lock_guard<std::mutex> lock(m_);
    OCTO_ASSERT(ready_unlocked());
    if (eptr_) std::rethrow_exception(eptr_);
    return *value_;
  }

  bool has_exception() const {
    const std::lock_guard<std::mutex> lock(m_);
    return static_cast<bool>(eptr_);
  }

 private:
  bool ready_unlocked() const {
    return value_.has_value() || eptr_ != nullptr || taken_;
  }

  mutable std::mutex m_;
  std::optional<storage_t> value_;
  std::exception_ptr eptr_;
  bool taken_ = false;
  std::vector<unique_function<void()>> continuations_;
};

}  // namespace detail

template <typename T>
class promise {
 public:
  promise() : state_(std::make_shared<detail::shared_state<T>>()) {}

  future<T> get_future();

  template <typename U = T, typename = std::enable_if_t<!std::is_void_v<U>>>
  void set_value(U v) {
    state_->set_value(std::move(v));
  }

  template <typename U = T, typename = std::enable_if_t<std::is_void_v<U>>>
  void set_value() {
    state_->set_value(detail::unit{});
  }

  void set_exception(std::exception_ptr e) {
    state_->set_exception(std::move(e));
  }

  std::shared_ptr<detail::shared_state<T>> state() const { return state_; }

 private:
  std::shared_ptr<detail::shared_state<T>> state_;
};

template <typename T>
class future {
 public:
  future() = default;
  explicit future(std::shared_ptr<detail::shared_state<T>> s)
      : state_(std::move(s)) {}

  future(future&&) noexcept = default;
  future& operator=(future&&) noexcept = default;
  future(const future&) = delete;
  future& operator=(const future&) = delete;

  bool valid() const { return state_ != nullptr; }
  bool is_ready() const { return state_ && state_->ready(); }

  void wait(runtime& rt = runtime::global()) const {
    OCTO_ASSERT(valid());
    state_->wait(&rt);
  }

  /// Wait until \p deadline; true when the future became ready (the value
  /// is NOT consumed — call get() to take it), false on timeout.  This is
  /// the deadline primitive under dist::transport's ack waits — a lost
  /// message costs one timeout window instead of hanging the exchange.
  bool wait_until(std::chrono::steady_clock::time_point deadline,
                  runtime& rt = runtime::global()) const {
    OCTO_ASSERT(valid());
    return state_->wait_until(&rt, deadline);
  }

  /// Wait and retrieve; consumes the future's value.
  T get(runtime& rt = runtime::global()) {
    OCTO_ASSERT(valid());
    state_->wait(&rt);
    auto s = std::move(state_);
    if constexpr (std::is_void_v<T>) {
      s->take();
      return;
    } else {
      return s->take();
    }
  }

  /// Attach a continuation `f(T)` (or `f()` for void); the continuation is
  /// posted to \p rt as a fresh task.  Returns the continuation's future.
  template <typename F>
  auto then(F&& f, runtime& rt = runtime::global())
      -> future<detail::cont_result_t<F, T>> {
    return then_impl(std::forward<F>(f), rt, /*inline_continuation=*/false);
  }

  /// Like then(), but the continuation runs inline on the thread that makes
  /// the value ready (cheap glue code only — do not block in it).
  template <typename F>
  auto then_inline(F&& f, runtime& rt = runtime::global())
      -> future<detail::cont_result_t<F, T>> {
    return then_impl(std::forward<F>(f), rt, /*inline_continuation=*/true);
  }

  std::shared_ptr<detail::shared_state<T>> state() const { return state_; }

 private:
  template <typename F>
  auto then_impl(F&& f, runtime& rt, bool inline_continuation) {
    using R = detail::cont_result_t<F, T>;
    OCTO_ASSERT(valid());
    promise<R> p;
    auto result = p.get_future();
    auto state = std::move(state_);
    auto run = [state, p, fn = std::forward<F>(f)]() mutable {
      try {
        if constexpr (std::is_void_v<T>) {
          state->take();
          if constexpr (std::is_void_v<R>) {
            fn();
            p.set_value();
          } else {
            p.set_value(fn());
          }
        } else {
          if constexpr (std::is_void_v<R>) {
            fn(state->take());
            p.set_value();
          } else {
            p.set_value(fn(state->take()));
          }
        }
      } catch (...) {
        p.set_exception(std::current_exception());
      }
    };
    if (inline_continuation) {
      state->add_continuation([run = std::move(run)]() mutable {
        apex::registry::instance().add(detail::counters().continuations_inline);
        run();
      });
    } else {
      auto* rt_ptr = &rt;
      state->add_continuation(
          [rt_ptr, run = std::move(run)]() mutable {
            rt_ptr->post(std::move(run));
          });
    }
    return result;
  }

  std::shared_ptr<detail::shared_state<T>> state_;
};

template <typename T>
future<T> promise<T>::get_future() {
  return future<T>(state_);
}

/// Copyable view of a future — the dependency-edge handle of a task graph.
/// Many consumers may hold the same shared_future; none consumes the value
/// (get() copies via peek()).  Constructed by moving from a future, which
/// shares (not duplicates) the underlying state.
template <typename T>
class shared_future {
 public:
  shared_future() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): future -> shared is the
  // natural decay, mirroring std::future::share().
  shared_future(future<T>&& f) : state_(f.state()) {}
  explicit shared_future(std::shared_ptr<detail::shared_state<T>> s)
      : state_(std::move(s)) {}

  bool valid() const { return state_ != nullptr; }
  bool is_ready() const { return state_ && state_->ready(); }
  bool has_exception() const { return state_ && state_->has_exception(); }

  void wait(runtime& rt = runtime::global()) const {
    OCTO_ASSERT(valid());
    state_->wait(&rt);
  }

  /// Wait and read.  Non-void: returns a const reference to the stored
  /// value (many readers — nobody takes it).  Rethrows a stored exception.
  decltype(auto) get(runtime& rt = runtime::global()) const {
    OCTO_ASSERT(valid());
    state_->wait(&rt);
    if constexpr (std::is_void_v<T>) {
      (void)state_->peek();  // rethrows a stored exception
      return;
    } else {
      return state_->peek();
    }
  }

  std::shared_ptr<detail::shared_state<T>> state() const { return state_; }

 private:
  std::shared_ptr<detail::shared_state<T>> state_;
};

// ---------------------------------------------------------------------------
// factories and combinators
// ---------------------------------------------------------------------------

template <typename T>
future<std::decay_t<T>> make_ready_future(T&& v) {
  promise<std::decay_t<T>> p;
  p.set_value(std::forward<T>(v));
  return p.get_future();
}

inline future<void> make_ready_future() {
  promise<void> p;
  p.set_value();
  return p.get_future();
}

/// Spawn `f()` as a task; returns the future of its result.
template <typename F>
auto async(F&& f, runtime& rt = runtime::global())
    -> future<std::invoke_result_t<F>> {
  using R = std::invoke_result_t<F>;
  promise<R> p;
  auto result = p.get_future();
  rt.post([p, fn = std::forward<F>(f)]() mutable {
    try {
      if constexpr (std::is_void_v<R>) {
        fn();
        p.set_value();
      } else {
        p.set_value(fn());
      }
    } catch (...) {
      p.set_exception(std::current_exception());
    }
  });
  return result;
}

/// All futures ready -> future<void>.  Exceptions: the first one observed
/// wins; the rest are dropped (matching HPX's when_all().get() behaviour
/// closely enough for our use).
template <typename T>
future<void> when_all(std::vector<future<T>> futures,
                      runtime& rt = runtime::global()) {
  (void)rt;
  if (futures.empty()) return make_ready_future();
  struct join_state {
    std::atomic<std::size_t> remaining;
    std::mutex m;
    std::exception_ptr first_error;
    promise<void> done;
    explicit join_state(std::size_t n) : remaining(n) {}
  };
  auto js = std::make_shared<join_state>(futures.size());
  auto result = js->done.get_future();
  for (auto& f : futures) {
    auto state = f.state();
    OCTO_ASSERT(state != nullptr);
    state->add_continuation([js, state] {
      if (state->has_exception()) {
        const std::lock_guard<std::mutex> lock(js->m);
        if (!js->first_error) {
          try {
            state->take();
          } catch (...) {
            js->first_error = std::current_exception();
          }
        }
      }
      if (js->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (js->first_error)
          js->done.set_exception(js->first_error);
        else
          js->done.set_value();
      }
    });
  }
  return result;
}

/// Wait for every future in the vector (helping the scheduler).
template <typename T>
void wait_all(std::vector<future<T>>& futures,
              runtime& rt = runtime::global()) {
  for (auto& f : futures) f.wait(rt);
}

/// Wait for every future, then rethrow the first exception any of them
/// holds.  Unlike wait_all(), a task failure is not silently dropped —
/// fault-detection paths (e.g. ghost-slab checksum mismatches) use this so
/// corruption fails the whole exchange loudly.  All futures are drained
/// before the rethrow, so channels and other shared structures are left in
/// a consistent state for a post-rollback retry.
template <typename T>
void get_all(std::vector<future<T>>& futures,
             runtime& rt = runtime::global()) {
  for (auto& f : futures) f.wait(rt);
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get(rt);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

// ---------------------------------------------------------------------------
// dataflow: dependency-driven task scheduling
// ---------------------------------------------------------------------------

namespace detail {

/// Exception stored in a void shared state, or nullptr.  (peek() rethrows;
/// this captures instead, for deterministic first-error scans.)
inline std::exception_ptr stored_exception(
    const std::shared_ptr<shared_state<void>>& s) {
  if (!s->has_exception()) return nullptr;
  try {
    (void)s->peek();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

/// First exception held by \p deps, scanned in order (deterministic no
/// matter which dependency failed first in wall-clock time).
inline std::exception_ptr first_dep_error(
    const std::vector<shared_future<void>>& deps) {
  for (const auto& d : deps)
    if (auto e = stored_exception(d.state())) return e;
  return nullptr;
}

}  // namespace detail

/// Schedule `f()` as a task once every dependency in \p deps has resolved.
/// No worker blocks while inputs are pending: a join counter decrements on
/// each dependency's completion (inline on the producing thread) and the
/// last one posts the task.  If any dependency carries an exception, `f` is
/// *not* run and the returned future carries the first exception in \p deps
/// order.  Invalid (default-constructed) entries in \p deps are ignored, so
/// callers can keep optional edges in fixed-shape arrays.
///
/// \p name is the node's kernel class for task-graph profiling
/// (apex/dag.hpp): when a step recording is active the node's dependency
/// edges, ready/start/end times, and executing worker are captured under
/// that label.  Off, the cost is one relaxed load.  The timing writes go
/// into the node's private slot and are ordered by the scheduler's own
/// happens-before chain (registration -> last decrement -> post -> run),
/// so the recording adds no synchronization of its own.
namespace detail {

template <typename F>
auto dataflow_node(const char* name, apex::access_set* fp, F&& f,
                   std::vector<shared_future<void>> deps, runtime& rt)
    -> future<std::invoke_result_t<F>> {
  using R = std::invoke_result_t<F>;
  // Drop invalid edges up front so the join counter is exact.
  deps.erase(std::remove_if(deps.begin(), deps.end(),
                            [](const shared_future<void>& d) {
                              return !d.valid();
                            }),
             deps.end());

  struct node_state {
    std::atomic<std::size_t> remaining;
    std::vector<shared_future<void>> deps;  ///< kept for the error scan
    promise<R> done;
    std::decay_t<F> fn;
    runtime* rt;
    apex::dag_node* dag = nullptr;  ///< profile slot, or null
    node_state(std::size_t n, std::vector<shared_future<void>> d, F&& func,
               runtime* r)
        : remaining(n), deps(std::move(d)), fn(std::forward<F>(func)), rt(r) {}

    void fire() {
      // Last dependency just resolved (or creation found all ready).
      if (dag != nullptr) dag->ready_ns = apex::trace::now_ns();
      rt->post([self = this->self.lock()] {
        apex::dag_node* const dag = self->dag;
        if (dag != nullptr) {
          dag->start_ns = apex::trace::now_ns();
          dag->worker = self->rt->worker_index();
        }
        if (auto e = detail::first_dep_error(self->deps)) {
          if (dag != nullptr) {
            dag->end_ns = dag->start_ns;  // body never ran
            dag->failed = true;
          }
          self->done.set_exception(e);
          return;
        }
        try {
          if constexpr (std::is_void_v<R>) {
            self->fn();
            if (dag != nullptr) dag->end_ns = apex::trace::now_ns();
            self->done.set_value();
          } else {
            auto v = self->fn();
            if (dag != nullptr) dag->end_ns = apex::trace::now_ns();
            self->done.set_value(std::move(v));
          }
        } catch (...) {
          if (dag != nullptr) {
            dag->end_ns = apex::trace::now_ns();
            dag->failed = true;
          }
          self->done.set_exception(std::current_exception());
        }
      });
    }
    std::weak_ptr<node_state> self;
  };

  auto deps_copy = deps;  // continuation registration iterates the original
  auto ns = std::make_shared<node_state>(deps.size() + 1, std::move(deps),
                                         std::forward<F>(f), &rt);
  ns->self = ns;
  auto result = ns->done.get_future();

  if (apex::dag_recorder::enabled()) {
    std::vector<const void*> dep_states;
    dep_states.reserve(ns->deps.size());
    for (const auto& d : ns->deps) dep_states.push_back(d.state().get());
    ns->dag = apex::dag_recorder::instance().on_create(
        name, ns->done.state().get(), dep_states.data(), dep_states.size());
    // Baseline: overwritten in fire() (which happens-after this write via
    // the continuation registrations below).
    if (ns->dag != nullptr) {
      ns->dag->ready_ns = apex::trace::now_ns();
      // Declared footprint for the race audit; the slot is private until
      // end_step(), so a plain move is safe here.
      if (fp != nullptr) ns->dag->footprint = fp->take();
    }
  }

  bool deferred = false;
  for (auto& d : deps_copy) {
    if (!d.is_ready()) deferred = true;
    d.state()->add_continuation([ns] {
      if (ns->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        ns->fire();
    });
  }
  if (deferred)
    apex::registry::instance().add(detail::counters().tasks_deferred);
  // The +1 creation token: fires the task here when every dependency was
  // already satisfied (or the list was empty).
  if (ns->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) ns->fire();
  return result;
}

}  // namespace detail

template <typename F>
auto dataflow(const char* name, F&& f, std::vector<shared_future<void>> deps,
              runtime& rt = runtime::global())
    -> future<std::invoke_result_t<F>> {
  return detail::dataflow_node(name, nullptr, std::forward<F>(f),
                               std::move(deps), rt);
}

/// Footprint-annotated dataflow: like the named overload, but attaches the
/// task's declared read/write regions to the recorded dag node so
/// apex/race_audit.hpp can verify every conflicting pair of tasks is
/// ordered by the graph.  The access_set builds nothing (and this costs
/// nothing extra) unless a dag recording is active.
template <typename F>
auto dataflow(const char* name, apex::access_set fp, F&& f,
              std::vector<shared_future<void>> deps,
              runtime& rt = runtime::global())
    -> future<std::invoke_result_t<F>> {
  return detail::dataflow_node(name, &fp, std::forward<F>(f), std::move(deps),
                               rt);
}

/// Unnamed dataflow: same scheduling, profiled under the generic "task"
/// kernel class.
template <typename F>
auto dataflow(F&& f, std::vector<shared_future<void>> deps,
              runtime& rt = runtime::global())
    -> future<std::invoke_result_t<F>> {
  return dataflow("task", std::forward<F>(f), std::move(deps), rt);
}

/// All shared dependencies resolved -> future<void>, resolved *inline* on
/// the last producer (no task posted): the cheap pure-join node of a task
/// graph.  Exceptions: first one in \p deps order wins.
inline future<void> when_all(std::vector<shared_future<void>> deps,
                             runtime& rt = runtime::global()) {
  (void)rt;
  deps.erase(std::remove_if(deps.begin(), deps.end(),
                            [](const shared_future<void>& d) {
                              return !d.valid();
                            }),
             deps.end());
  if (deps.empty()) return make_ready_future();
  struct join_state {
    std::atomic<std::size_t> remaining;
    std::vector<shared_future<void>> deps;
    promise<void> done;
    join_state(std::size_t n, std::vector<shared_future<void>> d)
        : remaining(n), deps(std::move(d)) {}
  };
  auto js = std::make_shared<join_state>(deps.size(), deps);
  auto result = js->done.get_future();

  // Profile pure joins as zero-duration "join" nodes so dependency chains
  // that pass through them stay connected in the recorded graph.
  apex::dag_node* dag = nullptr;
  std::uint64_t dag_epoch = 0;
  if (apex::dag_recorder::enabled()) {
    std::vector<const void*> dep_states;
    dep_states.reserve(deps.size());
    for (const auto& d : deps) dep_states.push_back(d.state().get());
    auto& rec = apex::dag_recorder::instance();
    dag = rec.on_create(
        "join", js->done.state().get(), dep_states.data(), dep_states.size());
    dag_epoch = rec.epoch();
    if (dag != nullptr)
      dag->ready_ns = dag->start_ns = dag->end_ns = apex::trace::now_ns();
  }

  for (auto& d : deps) {
    d.state()->add_continuation([js, dag, dag_epoch] {
      if (js->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // A join's result may be a pure forward edge nothing in this step
        // awaits (the solver's free-edges feed the *next* step's zeroing),
        // so this can run concurrently with dag_recorder::end_step();
        // revalidate the slot under the recorder's writer pin.
        auto& rec = apex::dag_recorder::instance();
        const bool pinned = dag != nullptr && rec.pin(dag_epoch);
        if (pinned) {
          dag->ready_ns = dag->start_ns = dag->end_ns = apex::trace::now_ns();
          dag->worker = -1;  // resolved inline on the last producer
        }
        if (auto e = detail::first_dep_error(js->deps)) {
          if (pinned) {
            dag->failed = true;
            rec.unpin();
          }
          js->done.set_exception(e);
        } else {
          if (pinned) rec.unpin();
          js->done.set_value();
        }
      }
    });
  }
  return result;
}

/// get_all over shared edges: wait for every one (helping), then rethrow
/// the first exception in vector order — the deterministic error of a
/// drained task graph.
inline void get_all(const std::vector<shared_future<void>>& futures,
                    runtime& rt = runtime::global()) {
  for (const auto& f : futures)
    if (f.valid()) f.wait(rt);
  for (const auto& f : futures)
    if (f.valid())
      if (auto e = detail::stored_exception(f.state()))
        std::rethrow_exception(e);
}

}  // namespace octo::amt
