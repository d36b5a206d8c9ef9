#include "common/fault.hpp"

#include <cstdlib>
#include <string>
#include <utility>

#include "common/config.hpp"
#include "common/error.hpp"

namespace octo::fault {

namespace {

[[noreturn]] void reject(const char* name, const char* value,
                         const char* expected) {
  throw error(std::string("malformed fault spec ") + name + "='" + value +
              "' — expected " + expected +
              " (a typo'd injection must fail loudly, not arm nothing)");
}

/// Strict u64 field parse: consumes digits from \p p, advances past them.
/// Returns false on no digits or overflow.
bool eat_u64(const char*& p, std::uint64_t& out) {
  if (*p < '0' || *p > '9') return false;
  std::uint64_t v = 0;
  while (*p >= '0' && *p <= '9') {
    const std::uint64_t d = static_cast<std::uint64_t>(*p - '0');
    if (v > (~std::uint64_t(0) - d) / 10) return false;
    v = v * 10 + d;
    ++p;
  }
  out = v;
  return true;
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t parse_fault_u64(const char* name, const char* value,
                              std::uint64_t dflt) {
  if (value == nullptr || *value == '\0') return dflt;
  const char* p = value;
  std::uint64_t v = 0;
  if (!eat_u64(p, v) || *p != '\0')
    reject(name, value, "an unsigned base-10 integer");
  return v;
}

std::uint64_t parse_positive_u64(const char* name, const char* value,
                                 std::uint64_t dflt, std::uint64_t max) {
  if (value == nullptr || *value == '\0') return dflt;
  const char* p = value;
  std::uint64_t v = 0;
  if (!eat_u64(p, v) || *p != '\0' || v == 0 || v > max)
    throw error(std::string(name) + "='" + value +
                "' is not a positive base-10 integer (at most " +
                std::to_string(max) + ")");
  return v;
}

double parse_fault_prob(const char* name, const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const double p = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(p >= 0) || !(p <= 1))
    reject(name, value, "a probability in [0, 1]");
  return p;
}

std::pair<int, std::uint64_t> parse_locality_kill(const char* name,
                                                  const char* value) {
  if (value == nullptr || *value == '\0') return {-1, 0};
  const char* p = value;
  std::uint64_t loc = 0, step = 0;
  const bool ok = eat_u64(p, loc) && *p == ':' && (++p, eat_u64(p, step)) &&
                  *p == '\0' && step != 0 && loc <= 0x7FFFFFFFull;
  if (!ok) reject(name, value, "\"<loc>:<step>\" with step >= 1");
  return {static_cast<int>(loc), step};
}

bitflip_spec parse_bitflip_spec(const char* name, const char* value) {
  bitflip_spec spec;
  if (value == nullptr || *value == '\0') return spec;
  const char* expected =
      "\"<loc>:<step>:<leaf>:<field>[:<count>]\" or "
      "\"random:<step>[:<count>]\" with step >= 1, count >= 1";
  const char* p = value;
  if (std::string(value).rfind("random:", 0) == 0) {
    spec.random = true;
    p = value + 7;
    if (!eat_u64(p, spec.step)) reject(name, value, expected);
  } else {
    const bool ok = eat_u64(p, spec.loc) && *p == ':' &&
                    (++p, eat_u64(p, spec.step)) && *p == ':' &&
                    (++p, eat_u64(p, spec.leaf)) && *p == ':' &&
                    (++p, eat_u64(p, spec.field));
    if (!ok) reject(name, value, expected);
  }
  if (*p == ':') {
    ++p;
    if (!eat_u64(p, spec.count)) reject(name, value, expected);
  }
  if (*p != '\0' || spec.step == 0 || spec.count == 0)
    reject(name, value, expected);
  return spec;
}

injector& injector::instance() {
  static injector inst;
  return inst;
}

namespace {
/// Registered-env read in parser-friendly form: the parsers take
/// nullptr/empty as "disarmed", which config::env folds into nullopt.
std::string env_str(const char* name) {
  return config::env(name).value_or(std::string{});
}
std::uint64_t env_u64(const char* name, std::uint64_t dflt) {
  return parse_fault_u64(name, env_str(name).c_str(), dflt);
}
double env_prob(const char* name) {
  return parse_fault_prob(name, env_str(name).c_str());
}
}  // namespace

injector::injector()
    : rng_(env_u64("OCTO_FAULT_SEED", 0x0C70F4A57ull)) {
  ghost_corrupt_ = env_u64("OCTO_FAULT_GHOST_CORRUPT", 0);
  ghost_truncate_ = env_u64("OCTO_FAULT_GHOST_TRUNCATE", 0);
  ckpt_budget_ = env_u64("OCTO_FAULT_CKPT_SHORT_WRITE", no_budget);
  const auto flip = env_u64("OCTO_FAULT_CKPT_BITFLIP", no_budget);
  ckpt_bitflip_ = flip == no_budget ? 0 : flip + 1;
  fail_step_ = env_u64("OCTO_FAULT_STEP", 0);
  msg_drop_ = env_prob("OCTO_FAULT_MSG_DROP");
  msg_delay_us_ = env_u64("OCTO_FAULT_MSG_DELAY_US", 0);
  msg_dup_ = env_prob("OCTO_FAULT_MSG_DUP");
  msg_reorder_ = env_prob("OCTO_FAULT_MSG_REORDER");
  const auto [kloc, kstep] =
      parse_locality_kill("OCTO_FAULT_LOCALITY_KILL",
                          env_str("OCTO_FAULT_LOCALITY_KILL").c_str());
  kill_locality_ = kloc;
  kill_step_ = kstep;
  arm_state_bitflip(parse_bitflip_spec(
      "OCTO_FAULT_STATE_BITFLIP", env_str("OCTO_FAULT_STATE_BITFLIP").c_str()));
  arm_moment_bitflip(
      parse_bitflip_spec("OCTO_FAULT_MOMENT_BITFLIP",
                         env_str("OCTO_FAULT_MOMENT_BITFLIP").c_str()));
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
