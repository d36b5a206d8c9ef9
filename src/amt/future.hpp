#pragma once
/// \file future.hpp
/// One-shot futures and promises for the runtime's fork-join helpers.
///
/// A step's task graph is `amt::task_graph`, which owns its tasks and
/// needs none of this.  What remains is the plain value channel that the
/// transport's acks, `each_leaf`, the checkpoint writer, recovery and
/// rebalance use:
///   * `async(f)` posts `f` as a task and returns the future of its result;
///   * `get()`/`wait()` called from a worker thread help-execute pending
///     tasks instead of blocking, so nested waits cannot starve the pool;
///   * `wait_until()` is the same wait with a deadline;
///   * `get_all()` drains a vector of futures and rethrows the first error.

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
#include "common/error.hpp"

namespace octo::amt {

template <typename T>
class future;

namespace detail {

struct unit {};

template <typename T>
using storage_of = std::conditional_t<std::is_void_v<T>, unit, T>;

/// State shared by one promise and its future.
template <typename T>
class shared_state {
  using storage_t = storage_of<T>;

 public:
  bool ready() const {
    const std::lock_guard<std::mutex> lock(m_);
    return ready_unlocked();
  }

  void set_value(storage_t v) {
    const std::lock_guard<std::mutex> lock(m_);
    OCTO_CHECK_MSG(!ready_unlocked(), "promise already satisfied");
    value_.emplace(std::move(v));
  }

  void set_exception(std::exception_ptr e) {
    const std::lock_guard<std::mutex> lock(m_);
    OCTO_CHECK_MSG(!ready_unlocked(), "promise already satisfied");
    eptr_ = std::move(e);
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

 private:
  bool ready_unlocked() const {
    return value_.has_value() || eptr_ != nullptr || taken_;
  }

  mutable std::mutex m_;
  std::optional<storage_t> value_;
  std::exception_ptr eptr_;
  bool taken_ = false;
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

 private:
  std::shared_ptr<detail::shared_state<T>> state_;
};

template <typename T>
future<T> promise<T>::get_future() {
  return future<T>(state_);
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

/// Wait for every future (helping the scheduler), then rethrow the first
/// exception any of them holds, so a task failure is never silently
/// dropped — fault-detection paths (e.g. ghost-slab checksum mismatches)
/// rely on this to fail the whole exchange loudly.  All futures are drained
/// before the rethrow, so shared structures are left in a consistent
/// state for a post-rollback retry.
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

}  // namespace octo::amt
