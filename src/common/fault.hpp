#pragma once
/// \file fault.hpp
/// Fault-injection hooks for resilience testing.
///
/// At Fugaku scale (1024 nodes x 48 cores) a run survives node budgets and
/// hardware failures only through checkpoint/restart, so the failure paths
/// must be exercisable on demand.  This singleton arms deterministic faults
/// that the communication and checkpoint layers consult at well-defined
/// points:
///
///   * ghost slabs — corrupt (bit-flip) or truncate the nth *serialized*
///     boundary slab of a `dist::cluster` exchange; the receiver's archive
///     checksum must detect it and fail loudly;
///   * checkpoint stream — stop writing after N bytes (a crash mid-write;
///     the atomic temp-file+rename protocol must keep the previous
///     checkpoint intact) or flip one bit at a byte offset (the per-record
///     CRCs must reject the file);
///   * step failure — throw `octo::error` when a driver reaches the nth
///     step, the trigger for `dist::run_with_checkpoints` rollback;
///   * message faults — the unreliable-transport knobs consulted by
///     `dist::transport` on every delivery attempt: drop a frame with
///     probability p, delay it by a uniform-random time in [0, max_us],
///     duplicate it with probability p, or hold it back so it arrives
///     after the next frame (reorder) with probability p;
///   * locality kill — declare locality `loc` dead when a cluster reaches
///     integration step `step`: `locality_alive(loc)` turns false, which
///     the cluster checks at that step's entry, its in-memory leaf state is
///     scrubbed, and `dist` recovery must shrink the cluster and restore
///     the lost leaves from a buddy replica or checkpoint.
///   * silent data corruption — flip one bit inside a conserved-field array
///     (`arm_state_bitflip`) or a multipole-moment array
///     (`arm_moment_bitflip`) at a chosen integration step, modeling
///     a DRAM/register soft error at rest.  The step drivers consult the
///     hooks once per execution attempt of the armed step, so a `count`
///     greater than one re-fires on the SDC retry path and forces the
///     escalation to checkpoint rollback.  The `app::invariant_auditor`
///     must detect every such flip within one audit interval.
///
/// Arming: only through the `arm_*` calls below (tests, and the
/// `kill_loc=` / `ckpt_dir=` sections of `distributed_demo`); the injector
/// reads no environment variable.  All counts are 1-based; 0 disarms;
/// probabilities are clamped to [0, 1].  A stale `OCTO_*` knob left in the
/// environment is rejected by `config::check_environment` when a runtime
/// starts, so a typo'd injection fails loudly instead of passing
/// vacuously.  Every random decision (which bit flips, whether a frame
/// drops) is drawn from a splitmix64 stream with a fixed seed, so a
/// failing run is reproducible.
///
/// This header lives in common and must not depend on apex; call sites
/// mirror injections into the `fault.injected` apex counter themselves.

#include <atomic>
#include <cstdint>
#include <vector>

namespace octo::fault {

/// Armed state/moment bit flip.  `step == 0` means disarmed.  In random
/// mode loc/leaf/field are drawn from the seeded stream when the flip
/// fires instead of being taken from the spec.
struct bitflip_spec {
  bool random = false;
  std::uint64_t loc = 0;    ///< target locality
  std::uint64_t step = 0;   ///< 1-based integration step; 0 disarms
  std::uint64_t leaf = 0;   ///< SFC ordinal among loc's owned leaves
  std::uint64_t field = 0;  ///< conserved-field / moment-coefficient index
  std::uint64_t count = 1;  ///< executions of the armed step that flip
};

/// Target of one state / moment bit flip.  In deterministic mode
/// loc/leaf/field are the armed values; in random mode they are raw draws
/// the caller reduces modulo its locality / leaf / field counts.  `cell`
/// and `bit` are always raw draws to reduce modulo the cell count and the
/// bits per value.
struct bitflip_plan {
  std::uint64_t loc = 0;
  std::uint64_t leaf = 0;
  std::uint64_t field = 0;
  std::uint64_t cell = 0;
  std::uint64_t bit = 0;
  bool random = false;
};

class injector {
 public:
  static injector& instance();

  // --- arming ------------------------------------------------------------
  /// Bit-flip the \p nth serialized ghost slab (1-based; 0 disarms).
  void arm_ghost_corrupt(std::uint64_t nth) { ghost_corrupt_ = nth; }
  /// Truncate the \p nth serialized ghost slab to half its size.
  void arm_ghost_truncate(std::uint64_t nth) { ghost_truncate_ = nth; }
  /// Simulate a crash: checkpoint streams stop after \p bytes total.
  void arm_ckpt_short_write(std::uint64_t bytes) { ckpt_budget_ = bytes; }
  /// Flip one bit of the checkpoint byte at stream offset \p offset.
  void arm_ckpt_bitflip(std::uint64_t offset) {
    ckpt_bitflip_ = offset + 1;  // stored 1-based so 0 can mean "off"
  }
  /// Throw from maybe_fail_step() at the \p nth call (1-based).
  void arm_step_failure(std::uint64_t nth) { fail_step_ = nth; }

  // Message-level transport faults (dist::transport consults these on every
  // delivery attempt; probabilities in [0, 1], 0 disarms).
  void arm_msg_drop(double p) { msg_drop_ = clamp01(p); }
  void arm_msg_delay_us(std::uint64_t max_us) { msg_delay_us_ = max_us; }
  void arm_msg_dup(double p) { msg_dup_ = clamp01(p); }
  void arm_msg_reorder(double p) { msg_reorder_ = clamp01(p); }

  /// Declare locality \p loc dead when a cluster reaches integration step
  /// \p step (1-based; step 0 disarms).
  void arm_locality_kill(int loc, std::uint64_t step) {
    kill_locality_ = loc;
    kill_step_ = step;
    kill_fired_ = false;  // re-arming resets the one-shot latch
  }

  /// Flip one bit of conserved field `spec.field` in the `spec.leaf`th
  /// owned leaf of locality `spec.loc` on the first `spec.count`
  /// execution attempts of integration step `spec.step` (1-based; step 0
  /// disarms).  count > 1 re-fires on the step-retry path.
  void arm_state_bitflip(const bitflip_spec& spec) {
    store_bitflip(spec, state_flip_, state_flip_count_);
  }
  /// Same, but the target is a multipole-moment coefficient of the
  /// gravity solver (`spec.leaf` = leaf ordinal, `spec.field` = moment
  /// component index).
  void arm_moment_bitflip(const bitflip_spec& spec) {
    store_bitflip(spec, moment_flip_, moment_flip_count_);
  }

  /// Disarm everything and zero all counters (tests call this in SetUp).
  void reset();

  // --- hook points -------------------------------------------------------
  /// Every serialized ghost slab passes through here; returns true if the
  /// buffer was corrupted or truncated in place.
  bool ghost_slab_hook(std::vector<std::uint8_t>& bytes);

  /// How many of the next \p want checkpoint-stream bytes may be written;
  /// anything less than \p want means the armed crash point was reached.
  std::uint64_t ckpt_write_budget(std::uint64_t stream_pos,
                                  std::uint64_t want);

  /// Corrupt the checkpoint bytes about to be written at \p stream_pos;
  /// returns true if a bit was flipped.
  bool ckpt_corrupt_hook(std::uint8_t* data, std::uint64_t n,
                         std::uint64_t stream_pos);

  /// Step-failure trigger: increments the step counter and throws
  /// octo::error when the armed step is reached.
  void maybe_fail_step();

  /// Should this transport delivery attempt be dropped in transit?
  bool msg_drop_hook();
  /// Artificial transit delay for this delivery attempt (microseconds,
  /// uniform in [0, armed max]; 0 when disarmed).
  std::uint64_t msg_delay_hook();
  /// Should this frame additionally be delivered twice?
  bool msg_dup_hook();
  /// Should this frame be held back and delivered after the next one?
  bool msg_reorder_hook();

  /// Locality-kill trigger: returns the armed locality if it must die at
  /// integration step \p step (1-based), -1 otherwise.  One-shot: fires at
  /// most once per arming.
  int locality_kill_hook(std::uint64_t step);
  /// False once locality \p loc has been declared dead by the hook above.
  bool locality_alive(int loc) const;

  /// State-bitflip trigger, consulted once per execution attempt of each
  /// integration step (1-based) by the step drivers: returns true and
  /// fills \p plan while the armed step still has fire budget.
  bool state_bitflip_hook(std::uint64_t step, bitflip_plan* plan);
  /// Moment-bitflip trigger; identical semantics for the gravity moments.
  bool moment_bitflip_hook(std::uint64_t step, bitflip_plan* plan);

  // --- introspection -----------------------------------------------------
  std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  bool armed() const {
    return ghost_corrupt_ || ghost_truncate_ || ckpt_bitflip_ ||
           fail_step_ || ckpt_budget_ != no_budget || msg_faults_armed() ||
           kill_step_ != 0 || state_flip_.step != 0 ||
           moment_flip_.step != 0;
  }
  bool msg_faults_armed() const {
    return msg_drop_.load() > 0 || msg_delay_us_.load() > 0 ||
           msg_dup_.load() > 0 || msg_reorder_.load() > 0;
  }

 private:
  injector() = default;

  /// Armed state/moment-bitflip target; all-atomic so arming from a test
  /// thread never races a step driver consulting the hook.
  struct flip_state {
    std::atomic<bool> random{false};
    std::atomic<std::uint64_t> loc{0};
    std::atomic<std::uint64_t> step{0};  ///< 1-based; 0 = off
    std::atomic<std::uint64_t> leaf{0};
    std::atomic<std::uint64_t> field{0};
  };

  void store_bitflip(const bitflip_spec& spec, flip_state& fs,
                     std::atomic<std::uint64_t>& count) {
    fs.random = spec.random;
    fs.loc = spec.loc;
    fs.leaf = spec.leaf;
    fs.field = spec.field;
    count = spec.step == 0 ? 0 : spec.count;
    fs.step = spec.step;
  }
  bool bitflip_hook(std::uint64_t step, bitflip_plan* plan, flip_state& fs,
                    std::atomic<std::uint64_t>& count);

  /// Next value of the deterministic corruption-position stream.
  std::uint64_t next_rand();
  /// Deterministic Bernoulli draw with probability \p p.
  bool next_bernoulli(double p);

  static double clamp01(double p) { return p < 0 ? 0 : (p > 1 ? 1 : p); }

  static constexpr std::uint64_t no_budget = ~std::uint64_t(0);

  std::atomic<std::uint64_t> ghost_corrupt_{0};
  std::atomic<std::uint64_t> ghost_truncate_{0};
  std::atomic<std::uint64_t> ckpt_budget_{no_budget};
  std::atomic<std::uint64_t> ckpt_bitflip_{0};  ///< offset + 1; 0 = off
  std::atomic<std::uint64_t> fail_step_{0};

  std::atomic<double> msg_drop_{0};
  std::atomic<std::uint64_t> msg_delay_us_{0};
  std::atomic<double> msg_dup_{0};
  std::atomic<double> msg_reorder_{0};

  std::atomic<int> kill_locality_{-1};
  std::atomic<std::uint64_t> kill_step_{0};  ///< 1-based; 0 = off
  std::atomic<bool> kill_fired_{false};

  flip_state state_flip_;
  flip_state moment_flip_;
  std::atomic<std::uint64_t> state_flip_count_{0};
  std::atomic<std::uint64_t> moment_flip_count_{0};

  std::atomic<std::uint64_t> ghost_slabs_seen_{0};
  std::atomic<std::uint64_t> steps_seen_{0};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> rng_{0x0C70F4A57ull};  ///< splitmix64 state
};

}  // namespace octo::fault
