#pragma once
/// \file future.hpp
/// One-shot futures and promises: a value channel between two tasks.
///
/// A batch of tasks is an `amt::task_graph` (or its fork-join form,
/// `amt::run_each`), which owns its tasks and needs none of this.  What
/// remains is the transport's ack promise, and the spawn-and-get probe of
/// the benchmark drivers and runtime tests:
///   * `async(f)` posts `f` as a task and returns the future of its result;
///   * `get()`/`wait()` help-execute pending tasks instead of blocking, so
///     nested waits cannot starve the pool;
///   * `wait_until()` is the same wait with a deadline.

#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>

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

  /// Block until ready, helping \p rt (runtime::help_until).
  void wait(runtime& rt) {
    rt.help_until([this] { return ready(); });
  }

  /// Like wait(), but gives up at \p deadline.  Returns true when the state
  /// became ready, false on timeout.  Helping semantics match wait(), so a
  /// timed wait cannot starve the pool either.
  bool wait_until(runtime& rt,
                  std::chrono::steady_clock::time_point deadline) {
    rt.help_until([&] {
      return ready() || std::chrono::steady_clock::now() >= deadline;
    });
    return ready();
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
    state_->wait(rt);
  }

  /// Wait until \p deadline; true when the future became ready (the value
  /// is NOT consumed — call get() to take it), false on timeout.  This is
  /// the deadline primitive under dist::transport's ack waits — a lost
  /// message costs one timeout window instead of hanging the exchange.
  bool wait_until(std::chrono::steady_clock::time_point deadline,
                  runtime& rt = runtime::global()) const {
    OCTO_ASSERT(valid());
    return state_->wait_until(rt, deadline);
  }

  /// Wait and retrieve; consumes the future's value.
  T get(runtime& rt = runtime::global()) {
    OCTO_ASSERT(valid());
    state_->wait(rt);
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

}  // namespace octo::amt
