#pragma once
/// \file recovery.hpp
/// Live locality-failure detection and recovery for the in-process cluster.
///
/// At Fugaku scale a 1024-node run loses nodes mid-flight; the batch system
/// restarts the job, but HPX's resilience direction (task replay /
/// replication APIs) points at surviving *online*.  This module gives the
/// cluster that shape:
///
///   * detection — a locality dies only through the fault injector, so
///     `cluster::step` checks the injector's liveness at step entry, before
///     any state mutation, and fails the step at once (no deadline);
///   * `locality_failure` — the error that step throws; carries the victim
///     list;
///   * `cluster::recover_locality_failure` (implemented here) — shrinks
///     the partition over the survivors (tree::partition_shrink), restores
///     the dead localities' leaves from the in-memory buddy replica kept on
///     the SFC-neighbor locality — or, when a replica is unavailable, rolls
///     the whole cluster back to the newest valid checkpoint — opens a
///     fresh transport epoch, then re-derives ghosts/gravity/dt so the run continues with correct physics;
///   * `run_with_recovery` — the driver: step to target, recover in place
///     on every locality_failure, give up after 4 recoveries.
///
/// Kill injection: `fault::injector::arm_locality_kill(loc, step)`
/// (`distributed_demo kill_loc= kill_step=`).  Observability: apex counters
/// `recovery.localities_lost`, `recovery.leaves_migrated`, timer+span
/// `recovery.recover`.

#include <string>
#include <vector>

#include "common/error.hpp"

namespace octo::dist {

class cluster;

/// Thrown by cluster::step() at step entry when one or more localities
/// still counted alive are dead.
class locality_failure : public error {
 public:
  explicit locality_failure(std::vector<int> locs)
      : error(describe(locs)), localities_(std::move(locs)) {}

  const std::vector<int>& localities() const { return localities_; }

 private:
  static std::string describe(const std::vector<int>& locs);

  std::vector<int> localities_;
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
