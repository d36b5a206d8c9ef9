#include "dist/recovery.hpp"

#include <sstream>

#include "amt/task_graph.hpp"
#include "apex/apex.hpp"
#include "apex/trace.hpp"
#include "common/log.hpp"
#include "dist/checkpoint.hpp"
#include "dist/cluster.hpp"

namespace octo::dist {

namespace {

/// run_with_recovery gives up (rethrows locality_failure) after this many
/// recoveries.
constexpr int max_recoveries = 4;

struct recovery_counters {
  apex::metric_id localities_lost =
      apex::registry::instance().counter("recovery.localities_lost");
  apex::metric_id leaves_migrated =
      apex::registry::instance().counter("recovery.leaves_migrated");
  apex::metric_id recover_timer =
      apex::registry::instance().timer("recovery.recover");
};
recovery_counters& counters() {
  static recovery_counters c;
  return c;
}

}  // namespace

std::string locality_failure::describe(const std::vector<int>& locs) {
  std::ostringstream os;
  os << "locality failure: " << (locs.size() == 1 ? "locality" : "localities");
  for (std::size_t i = 0; i < locs.size(); ++i)
    os << (i == 0 ? " " : ", ") << locs[i];
  os << (locs.size() == 1 ? " is dead" : " are dead");
  return os.str();
}

void cluster::recover_locality_failure(const std::vector<int>& dead,
                                       const std::string& ckpt_dir) {
  const apex::scoped_trace_span trace_span("recovery.recover");
  const apex::scoped_timer timer(counters().recover_timer);
  OCTO_CHECK_MSG(initialized_, "call initialize() first");
  OCTO_CHECK_MSG(!dead.empty(), "recover_locality_failure: empty dead list");

  // 1. Mark the victims dead.
  for (const int d : dead) {
    OCTO_CHECK_MSG(d >= 0 && d < dopt_.num_localities,
                   "recover_locality_failure: locality " << d
                                                         << " out of range");
    locality_alive_[static_cast<std::size_t>(d)] = 0;
  }
  std::vector<int> dead_all;  // cumulative across successive failures
  for (int l = 0; l < dopt_.num_localities; ++l)
    if (!locality_alive_[static_cast<std::size_t>(l)]) dead_all.push_back(l);
  OCTO_CHECK_MSG(static_cast<int>(dead_all.size()) < dopt_.num_localities,
                 "recover_locality_failure: no surviving localities");

  // 2. Snapshot the lost leaves under the *old* partition, then shrink the
  // partition over the survivors (Morton-contiguous, cost-balanced,
  // original survivor ids preserved).
  std::vector<index_t> lost;
  for (const int d : dead)
    for (const index_t l :
         part_.leaves_of_locality[static_cast<std::size_t>(d)])
      lost.push_back(l);
  // Shrink over the same cost model the rebalancer uses: measured per-leaf
  // costs once any step has been observed, the static estimate before that
  // (an empty cost vector here silently degraded to equal-count splits).
  part_ = tree::partition_shrink(*topo_, part_, dead_all,
                                 current_leaf_costs());

  // 3. Renumbered links, a fresh transport epoch: no frame still in flight
  // to or from the dead localities may land in a later exchange.
  reset_links();

  // 4. Restore the lost leaf state.  Preferred source: the in-memory buddy
  // replica, valid only while its holder survives — it carries the exact
  // end-of-previous-step fields, so the continued run matches an
  // uninterrupted one bitwise.  Fallback: roll the WHOLE cluster back to
  // the newest valid checkpoint (mixing an old-step leaf into a
  // current-step cluster would corrupt the physics).
  bool replicas_ok = dopt_.buddy_replication && !replicas_.empty();
  if (replicas_ok) {
    for (const index_t l : lost) {
      const int holder =
          replica_holder_[static_cast<std::size_t>(leaf_slot_[l])];
      if (!locality_alive_[static_cast<std::size_t>(holder)]) {
        replicas_ok = false;
        break;
      }
    }
  }
  if (replicas_ok) {
    amt::run_each(space_.runtime(), "recovery.restore.leaf", lost.size(),
                  [&](std::size_t i) {
                    const index_t l = lost[i];
                    grids_[l].load_owned(replicas_.data() +
                                         leaf_slot_[l] *
                                             grid::subgrid::owned_size);
                  });
    // Derived state over the shrunk partition from the restored owned
    // cells: ghosts, gravity, dt.
    rederive_state();
    OCTO_LOG_INFO("recovery: restored " << lost.size()
                                        << " leaves from buddy replicas; "
                                        << live_localities()
                                        << " localities live");
  } else {
    OCTO_CHECK_MSG(!ckpt_dir.empty(),
                   "recovery: no live buddy replica for a lost leaf and no "
                   "checkpoint directory to roll back to");
    const std::string newest = newest_valid_checkpoint(ckpt_dir);
    OCTO_CHECK_MSG(!newest.empty(),
                   "recovery: no live buddy replica and no valid checkpoint "
                   "in '" << ckpt_dir << "'");
    restore_checkpoint(*this, app::read_checkpoint(newest));
    OCTO_LOG_INFO("recovery: rolled the cluster back to "
                  << newest << "; " << live_localities()
                  << " localities live");
  }

  // 5. Re-seed replicas over the survivor set and account the recovery.
  update_replicas();
  // Recovered fields (replica or checkpoint) are the trusted state now:
  // retake the SDC seals so the next step's verify doesn't misread the
  // restoration as corruption.  (The checkpoint path resealed inside
  // restore_state already; the replica path must too.)
  if (auditor_.enabled()) {
    auditor_.reset_history();
    sdc_seal_all();
  }
  auto& reg = apex::registry::instance();
  reg.add(counters().localities_lost, dead.size());
  reg.add(counters().leaves_migrated, lost.size());
  pending_localities_lost_ += dead.size();
  pending_leaves_migrated_ += lost.size();
}

recovery_result run_with_recovery(cluster& cl, int target_steps,
                                  const recovery_options& opt) {
  recovery_result res;
  while (cl.steps_taken() < target_steps) {
    try {
      cl.step();
    } catch (const locality_failure& f) {
      if (++res.recoveries > max_recoveries) {
        OCTO_LOG_WARN("run_with_recovery: giving up after "
                      << res.recoveries - 1 << " recoveries: " << f.what());
        throw;
      }
      res.localities_lost += static_cast<int>(f.localities().size());
      OCTO_LOG_INFO("run_with_recovery: " << f.what() << " at step "
                                          << cl.steps_taken() + 1
                                          << ", recovering in place");
      cl.recover_locality_failure(f.localities(), opt.ckpt_dir);
    }
  }
  res.steps = cl.steps_taken();
  return res;
}

}  // namespace octo::dist
