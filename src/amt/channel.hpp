#pragma once
/// \file channel.hpp
/// Asynchronous channels in the HPX style: `send(v)` pairs with a
/// `receive()` that returns a future.  Octo-Tiger uses exactly this shape
/// for ghost-layer exchange: the receiver asks for the boundary *before*
/// it arrives and attaches the unpack continuation to the future.
///
/// Values and receivers may arrive in either order; pairing is FIFO.
///
/// A channel can be `close()`d: every pending and future `receive()` fails
/// with `broken_channel` instead of hanging forever — the primitive that
/// turns a lost message or a dead sender locality into a detectable error
/// (dist recovery closes and rebuilds all boundary channels when the
/// cluster shrinks).  Sends to a closed channel are silently dropped, so a
/// straggler in-flight delivery cannot resurrect a torn-down exchange.

#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>

#include "amt/future.hpp"
#include "common/error.hpp"

namespace octo::amt {

/// Thrown by receives on a closed channel.
class broken_channel : public error {
 public:
  broken_channel() : error("broken_channel: channel closed") {}
};

template <typename T>
class channel {
 public:
  channel() = default;
  channel(const channel&) = delete;
  channel& operator=(const channel&) = delete;

  /// Deliver a value; completes the oldest pending receive if any.
  /// Dropped silently when the channel is closed.
  void send(T value) {
    promise<T> waiter;
    bool have_waiter = false;
    {
      const std::lock_guard<std::mutex> lock(m_);
      if (closed_) return;
      if (!receivers_.empty()) {
        waiter = std::move(receivers_.front());
        receivers_.pop_front();
        have_waiter = true;
      } else {
        values_.push_back(std::move(value));
      }
    }
    if (have_waiter) waiter.set_value(std::move(value));
  }

  /// Future for the next value (FIFO with respect to other receives).
  /// Already-failed if the channel is closed; a later close() fails every
  /// still-pending receive with broken_channel.
  future<T> receive() {
    promise<T> p;
    auto f = p.get_future();
    std::optional<T> ready_value;
    bool broken = false;
    {
      const std::lock_guard<std::mutex> lock(m_);
      if (!values_.empty()) {
        ready_value.emplace(std::move(values_.front()));
        values_.pop_front();
      } else if (closed_) {
        broken = true;
      } else {
        receivers_.push_back(p);
      }
    }
    if (ready_value)
      p.set_value(std::move(*ready_value));
    else if (broken)
      p.set_exception(std::make_exception_ptr(broken_channel{}));
    return f;
  }

  /// Close the channel: every pending receive fails with broken_channel
  /// now, every future receive fails immediately, sends are dropped.
  /// Buffered but unreceived values are discarded.  Idempotent.
  void close() {
    std::deque<promise<T>> pending;
    {
      const std::lock_guard<std::mutex> lock(m_);
      if (closed_) return;
      closed_ = true;
      pending.swap(receivers_);
      values_.clear();
    }
    for (auto& w : pending)
      w.set_exception(std::make_exception_ptr(broken_channel{}));
  }

  bool is_closed() const {
    const std::lock_guard<std::mutex> lock(m_);
    return closed_;
  }

  /// Number of values buffered and waiting for a receiver.
  std::size_t buffered() const {
    const std::lock_guard<std::mutex> lock(m_);
    return values_.size();
  }

  /// Number of receivers waiting for a value.
  std::size_t waiting() const {
    const std::lock_guard<std::mutex> lock(m_);
    return receivers_.size();
  }

 private:
  mutable std::mutex m_;
  std::deque<T> values_;
  std::deque<promise<T>> receivers_;  ///< pending receives, FIFO
  bool closed_ = false;
};

}  // namespace octo::amt
