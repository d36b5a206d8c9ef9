#pragma once
/// \file invariants.hpp
/// Silent-data-corruption (SDC) defense: cheap per-step physics-invariant
/// audits plus CRC32 seals over at-rest state.
///
/// At Fugaku scale a bit flip inside a conserved-field array or a multipole
/// moment is a statistical certainty over a production campaign, and —
/// unlike the fail-stop and transport faults of the checkpoint/recovery
/// layers — it propagates silently into every subsequent step.  The
/// `invariant_auditor` closes that gap with two complementary detectors:
///
///   * **CRC32 seals.**  At the end of every step each leaf's conserved
///     block (and the gravity solver's moment arrays) is sealed with a
///     CRC32; the seal is re-verified at the start of the next step, before
///     the state is next read.  Any at-rest flip — a single bit anywhere in
///     the block — is therefore detected within one step, deterministically.
///   * **Physics invariants** (at `audit_options::every` cadence): global
///     mass / momentum / energy conservation drift against a self-
///     calibrating EWMA tolerance, density / entropy-tracer positivity,
///     NaN/Inf scans over all conserved fields, and CFL-dt sanity (finite,
///     positive, bounded step-over-step growth).  These catch in-flight
///     corruption that lands between a seal and its verify.
///
/// A tripped detector throws `sdc_detected` (an `octo::error`, so the
/// checkpoint-rollback driver's escalation path applies unchanged).  The
/// step drivers (`app::simulation::step`, `dist::cluster::step`) contain
/// the fault first: they retry the step from an in-memory pre-step snapshot
/// and confirm the retry with a dual-execution compare-vote; only a second
/// trip escalates to checkpoint rollback.  Either way the completed run is
/// bitwise identical to an uninterrupted one — the auditor only ever reads
/// the state it guards.
///
/// Observability: `sdc.audits`, `sdc.detected`, `sdc.retries`,
/// `sdc.rollbacks` counters and the `sdc.audit` timer, mirrored into the
/// per-step metrics columns `sdc_audits`/`sdc_detected`/`sdc_retries`/
/// `sdc_rollbacks`.

#include <cstdint>
#include <string>
#include <vector>

#include "apex/apex.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "grid/subgrid.hpp"

namespace octo::app {

struct ledger;  // step_core.hpp

/// A detector tripped: the state failed a physics invariant or a CRC seal.
/// Derives from octo::error so `dist::run_with_checkpoints` escalates it to
/// a rollback when the containment retry cannot repair it.
class sdc_detected : public error {
 public:
  explicit sdc_detected(const std::string& what)
      : error("sdc detected: " + what) {}
};

struct audit_options {
  /// Master switch (env `OCTO_AUDIT=0|1`; default on).
  bool enabled = default_audit_enabled();
  /// Physics-invariant cadence in steps (env `OCTO_AUDIT_EVERY`; the CRC
  /// seals are per-step regardless — a stale seal cannot be re-verified
  /// once the state legitimately evolves).
  int every = default_audit_every();
  /// Conservation drift trips when one step's drift exceeds
  /// `drift_ratio * max(EWMA drift, drift_floor)`.
  double drift_ratio = 100.0;
  double drift_floor = 1e-12;
  double ewma_alpha = 0.3;
  /// Audited steps that only feed the EWMA before drift checks arm.
  int warmup = 3;
  /// CFL-dt sanity: dt may not grow by more than this factor per step.
  double dt_growth = 8.0;

  static bool default_audit_enabled();
  static int default_audit_every();
};

/// Ids of the sdc.* apex metrics (shared by the auditor and the step
/// drivers that implement retry / escalation).
struct sdc_metric_ids {
  apex::metric_id audits;
  apex::metric_id detected;
  apex::metric_id retries;
  apex::metric_id rollbacks;
  apex::metric_id audit_timer;
};
const sdc_metric_ids& sdc_metrics();

/// In-memory pre-step snapshot the containment retry restores from: deep
/// copies of every owned leaf's raw block plus the integration clock and
/// the auditor's drift history.
struct sdc_snapshot {
  std::vector<index_t> nodes;
  std::vector<std::vector<real>> data;  ///< raw() copy per node
  real time = 0;
  real dt = 0;
  std::int64_t steps = 0;
  struct auditor_history {
    bool have_prev = false;
    double prev[5] = {0, 0, 0, 0, 0};
    double ewma[5] = {0, 0, 0, 0, 0};
    double prev_dt = 0;
    int audited = 0;
  } history;
};

class invariant_auditor {
 public:
  explicit invariant_auditor(audit_options opt = {});

  const audit_options& options() const { return opt_; }
  bool enabled() const { return opt_.enabled; }
  /// True when the physics-invariant audit runs for (completed) step
  /// \p step (1-based; seals are verified and retaken every step).
  bool invariants_due(std::int64_t step) const {
    return opt_.enabled && opt_.every > 0 && step % opt_.every == 0;
  }

  /// Resize the seal store for a (re)built topology; drops all seals.
  void resize(index_t num_nodes);
  void clear_seals();
  void drop_seal(index_t node);
  bool sealed(index_t node) const {
    return node < static_cast<index_t>(sealed_.size()) &&
           sealed_[static_cast<std::size_t>(node)] != 0;
  }

  /// CRC32 of a leaf's owned conserved cells (all fields; the ghost shell
  /// is derived state the exchange regenerates, so it is not sealed).
  static std::uint32_t leaf_crc(const grid::subgrid& g);

  /// Seal / re-verify one leaf.  Verification of an unsealed node is a
  /// no-op; a mismatch throws sdc_detected naming the leaf.  Both are safe
  /// to call concurrently for distinct nodes.
  void seal_leaf(index_t node, const grid::subgrid& g);
  void verify_leaf(index_t node, const grid::subgrid& g) const;
  std::uint32_t seal_of(index_t node) const {
    return seals_[static_cast<std::size_t>(node)];
  }

  /// Seal / re-verify the gravity solver's multipole-moment arrays (the
  /// caller supplies the solver's moments_crc()).
  void seal_moments(std::uint32_t crc) {
    moment_crc_ = crc;
    moment_sealed_ = true;
  }
  void drop_moment_seal() { moment_sealed_ = false; }
  bool moments_sealed() const { return moment_sealed_; }
  std::uint32_t moment_seal() const { return moment_crc_; }
  void verify_moments(std::uint32_t crc) const;

  /// NaN/Inf scan + positivity over one leaf's owned cells; throws
  /// sdc_detected naming leaf, field and cell.
  void audit_leaf(index_t node, const grid::subgrid& g) const;

  /// Conservation-drift (EWMA tolerance) and CFL-dt sanity for one
  /// completed step.  Call at invariants_due() cadence, after the step's
  /// state is final.  Throws sdc_detected on a trip.
  void audit_step(const ledger& now, real dt, std::int64_t step);

  /// Drift-history save/restore for the containment retry, and a full
  /// reset for checkpoint rollback (warmup re-applies; the physics is
  /// untouched either way).
  sdc_snapshot::auditor_history save_history() const { return hist_; }
  void restore_history(const sdc_snapshot::auditor_history& h) { hist_ = h; }
  void reset_history() { hist_ = {}; }

 private:
  [[noreturn]] static void detected(const std::string& what);

  audit_options opt_;
  std::vector<std::uint32_t> seals_;  ///< per node; valid iff sealed_[n]
  std::vector<char> sealed_;
  std::uint32_t moment_crc_ = 0;
  bool moment_sealed_ = false;
  sdc_snapshot::auditor_history hist_;
};

/// Flip one bit of a conserved value in place (the compute-fault injector's
/// state-corruption primitive; deterministic given field/cell/bit).  `cell`
/// indexes the owned N^3 cells, `bit` the 64 bits of the IEEE double.
void apply_state_bitflip(grid::subgrid& g, std::uint64_t field,
                         std::uint64_t cell, std::uint64_t bit);

}  // namespace octo::app
