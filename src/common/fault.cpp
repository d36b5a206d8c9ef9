#include "common/fault.hpp"

#include <string>

#include "common/error.hpp"

namespace octo::fault {

namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

injector& injector::instance() {
  static injector inst;
  return inst;
}

void injector::reset() {
  ghost_corrupt_ = 0;
  ghost_truncate_ = 0;
  ckpt_budget_ = no_budget;
  ckpt_bitflip_ = 0;
  fail_step_ = 0;
  msg_drop_ = 0;
  msg_delay_us_ = 0;
  msg_dup_ = 0;
  msg_reorder_ = 0;
  kill_locality_ = -1;
  kill_step_ = 0;
  kill_fired_ = false;
  arm_state_bitflip(bitflip_spec{});
  arm_moment_bitflip(bitflip_spec{});
  ghost_slabs_seen_ = 0;
  steps_seen_ = 0;
  injected_ = 0;
}

std::uint64_t injector::next_rand() {
  std::uint64_t s =
      rng_.fetch_add(0x9E3779B97F4A7C15ull, std::memory_order_relaxed);
  return splitmix64(s);
}

bool injector::ghost_slab_hook(std::vector<std::uint8_t>& bytes) {
  const std::uint64_t corrupt = ghost_corrupt_.load();
  const std::uint64_t truncate = ghost_truncate_.load();
  if ((corrupt == 0 && truncate == 0) || bytes.empty()) return false;
  const std::uint64_t nth =
      ghost_slabs_seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (corrupt != 0 && nth == corrupt) {
    const std::uint64_t r = next_rand();
    bytes[r % bytes.size()] ^=
        static_cast<std::uint8_t>(1u << ((r >> 32) % 8));
    injected_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (truncate != 0 && nth == truncate) {
    bytes.resize(bytes.size() / 2);
    injected_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::uint64_t injector::ckpt_write_budget(std::uint64_t stream_pos,
                                          std::uint64_t want) {
  const std::uint64_t budget = ckpt_budget_.load();
  if (budget == no_budget) return want;
  if (stream_pos >= budget) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  const std::uint64_t room = budget - stream_pos;
  if (want > room) injected_.fetch_add(1, std::memory_order_relaxed);
  return want < room ? want : room;
}

bool injector::ckpt_corrupt_hook(std::uint8_t* data, std::uint64_t n,
                                 std::uint64_t stream_pos) {
  const std::uint64_t flip = ckpt_bitflip_.load();
  if (flip == 0) return false;
  const std::uint64_t off = flip - 1;
  if (off < stream_pos || off >= stream_pos + n) return false;
  data[off - stream_pos] ^=
      static_cast<std::uint8_t>(1u << (next_rand() % 8));
  injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool injector::next_bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  // 53-bit uniform in [0, 1) from the deterministic stream.
  const double u =
      static_cast<double>(next_rand() >> 11) * 0x1.0p-53;
  return u < p;
}

bool injector::msg_drop_hook() {
  if (!next_bernoulli(msg_drop_.load(std::memory_order_relaxed)))
    return false;
  injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t injector::msg_delay_hook() {
  const std::uint64_t max_us = msg_delay_us_.load(std::memory_order_relaxed);
  if (max_us == 0) return 0;
  injected_.fetch_add(1, std::memory_order_relaxed);
  return next_rand() % (max_us + 1);
}

bool injector::msg_dup_hook() {
  if (!next_bernoulli(msg_dup_.load(std::memory_order_relaxed)))
    return false;
  injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool injector::msg_reorder_hook() {
  if (!next_bernoulli(msg_reorder_.load(std::memory_order_relaxed)))
    return false;
  injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

int injector::locality_kill_hook(std::uint64_t step) {
  const std::uint64_t armed = kill_step_.load(std::memory_order_relaxed);
  if (armed == 0 || step != armed) return -1;
  bool expected = false;
  if (!kill_fired_.compare_exchange_strong(expected, true)) return -1;
  injected_.fetch_add(1, std::memory_order_relaxed);
  return kill_locality_.load(std::memory_order_relaxed);
}

bool injector::locality_alive(int loc) const {
  return !(kill_fired_.load(std::memory_order_relaxed) &&
           kill_locality_.load(std::memory_order_relaxed) == loc);
}

bool injector::bitflip_hook(std::uint64_t step, bitflip_plan* plan,
                            flip_state& fs,
                            std::atomic<std::uint64_t>& count) {
  const std::uint64_t armed = fs.step.load(std::memory_order_relaxed);
  if (armed == 0 || step != armed) return false;
  // Claim one unit of fire budget; count > 1 re-fires on retry attempts.
  std::uint64_t c = count.load(std::memory_order_relaxed);
  while (c != 0 &&
         !count.compare_exchange_weak(c, c - 1, std::memory_order_relaxed)) {
  }
  if (c == 0) return false;
  plan->random = fs.random.load(std::memory_order_relaxed);
  if (plan->random) {
    plan->loc = next_rand();
    plan->leaf = next_rand();
    plan->field = next_rand();
  } else {
    plan->loc = fs.loc.load(std::memory_order_relaxed);
    plan->leaf = fs.leaf.load(std::memory_order_relaxed);
    plan->field = fs.field.load(std::memory_order_relaxed);
  }
  plan->cell = next_rand();
  plan->bit = next_rand();
  injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool injector::state_bitflip_hook(std::uint64_t step, bitflip_plan* plan) {
  return bitflip_hook(step, plan, state_flip_, state_flip_count_);
}

bool injector::moment_bitflip_hook(std::uint64_t step, bitflip_plan* plan) {
  return bitflip_hook(step, plan, moment_flip_, moment_flip_count_);
}

void injector::maybe_fail_step() {
  const std::uint64_t armed = fail_step_.load();
  if (armed == 0) return;
  const std::uint64_t nth =
      steps_seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (nth == armed) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    throw error("injected fault: step failure at armed step " +
                std::to_string(armed));
  }
}

}  // namespace octo::fault
