#pragma once
/// \file sync.hpp
/// Lightweight synchronization helpers that cooperate with the helping
/// scheduler: waits never park a worker thread without letting it run tasks.

#include <atomic>
#include <cstdint>

#include "amt/runtime.hpp"

namespace octo::amt {

/// Countdown latch whose wait() helps the runtime drain tasks.
class latch {
 public:
  explicit latch(std::int64_t count) : count_(count) {}

  void count_down(std::int64_t n = 1) {
    count_.fetch_sub(n, std::memory_order_acq_rel);
  }

  bool ready() const { return count_.load(std::memory_order_acquire) <= 0; }

  void wait(runtime& rt = runtime::global()) const {
    rt.help_until([this] { return ready(); });
  }

 private:
  std::atomic<std::int64_t> count_;
};

/// One-shot event (binary latch).
class event {
 public:
  void set() { flag_.store(true, std::memory_order_release); }
  bool is_set() const { return flag_.load(std::memory_order_acquire); }

  void wait(runtime& rt = runtime::global()) const {
    rt.help_until([this] { return is_set(); });
  }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace octo::amt
