#pragma once
/// \file recovery.hpp
/// Live locality-failure detection and recovery for the in-process cluster.
///
/// At Fugaku scale a 1024-node run loses nodes mid-flight; the batch system
/// restarts the job, but HPX's resilience direction (task replay /
/// replication APIs) points at surviving *online*.  This module gives the
/// cluster that shape:
///
///   * `heartbeat_monitor` — every live locality beats once per step;
///     `overdue()` waits up to a per-step deadline for the beats and names
///     the localities that stayed silent (a killed locality stops beating,
///     so it is detected within one step deadline);
///   * `locality_failure` — the error a step throws when the monitor
///     declares localities dead; carries the victim list;
///   * `cluster::recover_locality_failure` (implemented here) — shrinks
///     the partition over the survivors (tree::partition_shrink), restores
///     the dead localities' leaves from the in-memory buddy replica kept on
///     the SFC-neighbor locality — or, when a replica is unavailable, rolls
///     the whole cluster back to the newest valid checkpoint — rebuilds
///     every boundary channel and the transport layer, then re-derives
///     ghosts/gravity/dt so the run continues with correct physics;
///   * `run_with_recovery` — the driver: step to target, recover in place
///     on every locality_failure, give up after 4 recoveries.
///
/// Kill injection: `OCTO_FAULT_LOCALITY_KILL=<loc>:<step>` (or
/// `fault::injector::arm_locality_kill`).  Observability: apex counters
/// `recovery.localities_lost`, `recovery.leaves_migrated`, timer+span
/// `recovery.recover`.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace octo::dist {

class cluster;

/// Thrown by cluster::step() when the heartbeat deadline expires with one
/// or more localities silent.
class locality_failure : public error {
 public:
  explicit locality_failure(std::vector<int> locs)
      : error(describe(locs)), localities_(std::move(locs)) {}

  const std::vector<int>& localities() const { return localities_; }

 private:
  static std::string describe(const std::vector<int>& locs);

  std::vector<int> localities_;
};

/// Per-step liveness tracking: arm a window, collect beats, wait for
/// stragglers up to a deadline.  Thread-safe.
///
/// The deadline adapts: a fixed per-step budget misdeclares a locality
/// dead whenever a step is legitimately slow (the first step after a
/// migration re-derives ghosts and gravity; TSan builds run 10-20x
/// slower), so `observe_step_ms` keeps an EWMA of recent step times and
/// `overdue` enforces max(base deadline, deadline_scale x EWMA).  A
/// rebalance or recovery additionally calls `suspend_next_window()`:
/// beats are still recorded, but the next window declares nobody dead —
/// the cluster was deliberately quiescent, not failing.
class heartbeat_monitor {
 public:
  /// Start tracking \p num_localities, all alive, no beats recorded, no
  /// step-time history.
  void reset(int num_localities);

  /// Open a new heartbeat window (call at the top of every step).
  /// Consumes a pending suspend_next_window().
  void arm_step();

  /// Record locality \p loc's beat for the current window.
  void beat(int loc);

  /// Stop expecting beats from \p loc (post-recovery).
  void mark_dead(int loc);

  int num_live() const;

  /// Fold one completed step's wall time into the deadline EWMA.
  void observe_step_ms(double step_ms);

  /// Skip deadline enforcement for the next armed window (call when a
  /// rebalance/recovery makes the next step legitimately slow or silent).
  void suspend_next_window();

  double ewma_step_ms() const;
  bool window_suspended() const;

  /// Wait (sleeping in short slices) until every live locality has beaten
  /// in the current window or the effective deadline —
  /// max(\p deadline_ms, deadline_scale x step-time EWMA) — expires;
  /// returns the localities still silent: dead by deadline.  A suspended
  /// window returns empty immediately.
  std::vector<int> overdue(double deadline_ms) const;

  /// Multiplier on the step-time EWMA in the effective deadline.
  static constexpr double deadline_scale = 4.0;

 private:
  std::vector<int> silent_unlocked() const;

  mutable std::mutex m_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> beat_epoch_;
  std::vector<bool> alive_;
  double ewma_step_ms_ = 0;
  bool suspend_pending_ = false;
  bool window_suspended_ = false;
};

struct recovery_options {
  /// Checkpoint directory for the rollback fallback when a buddy replica
  /// is unavailable (empty: replicas are the only recovery source).
  std::string ckpt_dir;
};

struct recovery_result {
  int steps = 0;             ///< cluster.steps_taken() at exit
  int recoveries = 0;        ///< locality failures survived
  int localities_lost = 0;   ///< total dead localities across recoveries
};

/// Step \p cl until steps_taken() == \p target_steps, recovering in place
/// from every detected locality failure.  Throws the last failure after 4
/// recoveries, and any non-failure error unchanged.
recovery_result run_with_recovery(cluster& cl, int target_steps,
                                  const recovery_options& opt = {});

}  // namespace octo::dist
