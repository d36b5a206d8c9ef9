#pragma once
/// \file step_core.hpp
/// The one step driver: AMR octree + hydrodynamics + FMM gravity, stepped
/// with SSP-RK3 in the rotating frame, parallelized on the AMT runtime with
/// one task per sub-grid kernel (the paper's default launch configuration).
/// app::simulation is this core on one locality; dist::cluster is the same
/// core plus the hooks one locality lacks (SFC partition, leaf-face links,
/// liveness, buddy replicas, rebalancing and recovery), just as a
/// single-node Octo-Tiger run is one HPX locality of the same driver.
///
/// Like Octo-Tiger, *every* node carries a sub-grid: leaves hold the evolved
/// state, interior nodes hold the conservative restriction of their
/// children (used as same-level ghost sources across refinement
/// boundaries).  Ghost exchange runs in three phases per RK stage, over
/// the six face ghosts of each leaf only (the hydro stencil steps along one
/// axis at a time, so no kernel reads an edge or corner ghost):
///   1. restrict children into interior sub-grids (bottom-up),
///   2. same-level direct copies + physical-boundary outflow fills into
///      leaves (no task reads an interior node's ghosts),
///   3. coarse-to-fine prolongation into leaves whose face neighbor is
///      coarser (ascending level order so prolongation sources are
///      complete).
/// A face the driver reports as linked (linked(), false on one locality)
/// is delivered by the driver's own send/unpack tasks instead of the copy
/// task; that is the only place the two drivers' step graphs differ.
///
/// One builder, step_graph(), emits every step in both step modes (see
/// step_mode); initialize, restore, regrid, rebalance and recovery re-derive
/// ghosts, gravity and dt with a hydro-less barrier graph of the same
/// builder.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "amt/task_graph.hpp"
#include "apex/cost_model.hpp"
#include "apex/critical_path.hpp"
#include "apex/metrics.hpp"
#include "app/invariants.hpp"
#include "common/types.hpp"
#include "exec/execution_space.hpp"
#include "gravity/solver.hpp"
#include "grid/subgrid.hpp"
#include "hydro/kernel.hpp"
#include "scenarios/scenarios.hpp"
#include "tree/topology.hpp"

namespace octo::app {

/// How a step executes its phases (the Fig. 9 ablation, kept as an A/B
/// toggle).  Both build the same task graph (amt/task_graph.hpp):
/// `dataflow` derives each task's edges from the regions the tasks declare
/// they read and write, so the only global join is the end-of-step drain;
/// `barrier` gives every task the previous phase join as its only edge and
/// the driving thread waits on each join before it builds the next phase.
/// Both produce bitwise-identical state.
enum class step_mode { barrier, dataflow };

/// Default mode from the environment: OCTO_STEP_MODE=barrier|dataflow
/// (unset -> barrier; any other value throws octo::error naming it).
step_mode default_step_mode();

/// Default for sim_options::audit_races: OCTO_RACE_AUDIT=0|1 (unset -> 0;
/// any other value throws octo::error naming it).
bool default_audit_races();

struct sim_options {
  int max_level = 2;
  real cfl = real(0.4);
  bool self_gravity = true;
  hydro::hydro_options hydro{};
  gravity::gravity_options gravity{};
  /// Fixed time step; 0 = derive from the CFL condition, re-evaluated
  /// after every step (and after regrid/restore) so dt tracks the evolving
  /// signal speeds instead of staying frozen at its initialize() value.
  real fixed_dt = 0;
  /// Density threshold for dynamic regridding ("AMR is based on the
  /// density field", §IV-C): regrid() refines every region whose density
  /// exceeds this value, up to max_level.
  // option kept: ExtEnv.RegridRefinesWhereDense
  real rho_refine = real(1e-3);
  /// Step execution mode (see step_mode; default honors OCTO_STEP_MODE).
  step_mode mode = default_step_mode();
  /// Race auditing (see apex/race_audit.hpp): record each step's task
  /// graph + declared footprints and verify every conflicting pair is
  /// happens-before ordered, throwing on the first unordered conflict.
  /// Either step mode (a barrier step is ordered by its recorded joins).
  /// Default honors OCTO_RACE_AUDIT.
  bool audit_races = default_audit_races();
  /// Measure per-leaf task wall time (hydro, density refresh) into a
  /// leaf_cost_model (EWMA across steps) — the single-locality view of the
  /// cost signal dist::cluster's dynamic rebalancing partitions on.  Off:
  /// the per-task overhead is one null-pointer branch.
  bool measure_leaf_costs = false;
  /// Silent-data-corruption auditing (CRC32 leaf/moment seals every step,
  /// physics invariants at `audit.every` cadence) with automatic
  /// contain-and-retry; see app/invariants.hpp.  Defaults honor OCTO_AUDIT
  /// and OCTO_AUDIT_EVERY.
  audit_options audit{};
};

/// Global conserved quantities, including gravitational energy.
struct ledger {
  real mass = 0;
  rvec3 momentum{0, 0, 0};
  rvec3 ang_momentum{0, 0, 0};
  real gas_energy = 0;   ///< kinetic + internal
  real pot_energy = 0;   ///< 1/2 sum rho phi
  real total_energy() const { return gas_energy + pot_energy; }
};

class step_core {
 public:
  step_core(const step_core&) = delete;
  step_core& operator=(const step_core&) = delete;
  virtual ~step_core() = default;

  /// Build the tree, fill initial data, prime ghosts and gravity, seal the
  /// state.  Calling it again restarts from scratch: the clock, the step
  /// count and the SDC counters are reset too.
  void initialize();

  /// Advance one SSP-RK3 step; returns the dt used.
  real step();

  int steps_taken() const { return steps_; }
  real time() const { return time_; }
  real dt() const { return dt_; }

  const exec::amt_space& space() const { return space_; }
  const tree::topology& topo() const { return *topo_; }

  /// Evolved sub-grid of a leaf node (by topology node index).
  grid::subgrid& leaf(index_t node);
  const grid::subgrid& leaf(index_t node) const;

  ledger measure() const;

  /// Restore hook for checkpointing (app/checkpoint.hpp): overwrite the
  /// clock (leaf fields must already hold the state), then rebuild derived
  /// state — re-exchange ghosts, re-solve gravity, recompute the CFL dt —
  /// and retake the seals, bitwise identical to what an uninterrupted run
  /// carries at this point.
  void restore_state(real time, std::int64_t step);

  /// Attach a metrics sink: every step() then emits one structured record
  /// (per-phase wall times, processed sub-grid cells/second).  The sink
  /// must outlive the driver; pass nullptr to detach.
  void set_metrics_sink(apex::metrics_sink* sink) { metrics_ = sink; }

  /// Observability record of the most recent step() (valid once
  /// steps_taken() > 0), whether or not a sink is attached.
  const apex::step_record& last_step_metrics() const { return last_metrics_; }

  /// Per-leaf measured-cost EWMA (slots follow topo().leaves() order).
  const apex::leaf_cost_model& cost_model() const { return cost_model_; }

  /// The SDC auditor guarding this driver (seals + invariants; see
  /// app/invariants.hpp).  Inactive when the audit is disabled.
  const invariant_auditor& auditor() const { return auditor_; }

  /// Cumulative SDC counters (mirrored into the metrics columns).
  std::uint64_t sdc_audits() const { return sdc_audits_; }
  std::uint64_t sdc_detections() const { return sdc_detected_; }
  std::uint64_t sdc_retries() const { return sdc_retries_; }
  std::uint64_t sdc_rollbacks() const { return sdc_rollbacks_; }

 protected:
  /// \p measure_costs switches on the per-leaf cost model (EWMA weight
  /// 0.3, leaf_cost_model's default).
  step_core(const scen::scenario& sc, sim_options opt, exec::amt_space space,
            bool measure_costs);

  // --- driver hooks (no-ops on one locality) -----------------------------
  /// initialize(): the topology and leaf slots exist, no state yet.
  virtual void on_layout() {}
  /// initialize(): the initial state, ghosts, gravity and dt are derived.
  virtual void on_initialized() {}
  /// step(): before the entry pass (the u0 copy) and any state mutation.
  virtual void before_step() {}
  /// step(): the clock has advanced past the completed step.
  virtual void after_step() {}
  /// step(): add the driver's columns to the step's record.
  virtual void finish_step_record(apex::step_record& /*rec*/) {}
  /// SDC step entry (the scalar snapshot) taken / restored: save or roll
  /// back driver counters.
  virtual void save_step_entry() {}
  virtual void restore_step_entry() {}
  /// Locality count and leaf owner (the bitflip injector's target pool).
  virtual int num_localities() const { return 1; }
  virtual int leaf_owner(index_t /*leaf*/) const { return 0; }

  // --- leaf-face link hooks (no-ops on one locality) ----------------------
  /// True when the face of node \p n towards its same-level neighbor \p nb
  /// is a link: the driver's send/unpack tasks fill it, the copy task
  /// skips it.
  virtual bool linked(index_t /*n*/, index_t /*nb*/) const { return false; }
  /// Before a graph is built / once it drained (\p ok: no task failed).
  virtual void open_links() {}
  virtual void close_links(bool /*ok*/) {}
  /// Add this stage's send and unpack tasks for the linked faces to \p g,
  /// between the copy and the prolongation phases (barriered: the sends a
  /// phase, the unpacks the next, each joined only when it has a task).
  /// Like every task they declare their footprints — the owned cells and
  /// ghost faces they touch, a send the message slots of its outbound
  /// links, an unpack its own link's slot — and \p g derives their edges.
  virtual void add_link_tasks(amt::task_graph& /*g*/) {}

  // --- shared machinery for the drivers -----------------------------------
  /// Leaf slots, stage-0 blocks, per-level leaf lists, gravity solver and
  /// cost model for the current topology.
  void build_layout();
  /// Ghosts, gravity and dt from the current leaf fields.
  void rederive_state();
  void sdc_seal_all();
  apex::leaf_cost_model* cost_model_ptr() {
    return cost_model_.active() ? &cost_model_ : nullptr;
  }
  /// Leaf \p leaf's u0 block in stage0_.
  std::span<real> stage0(index_t leaf) {
    return {stage0_.data() + leaf_slot_[leaf] * grid::subgrid::owned_size,
            static_cast<std::size_t>(grid::subgrid::owned_size)};
  }

  scen::scenario scenario_;
  sim_options opt_;
  exec::amt_space space_;

  std::unique_ptr<tree::topology> topo_;
  std::unique_ptr<gravity::fmm_solver> grav_;  ///< null without self_gravity
  std::vector<grid::subgrid> grids_;       ///< one per node (all nodes)
  /// RK3 u0 copies, one owned-cell block (grid::subgrid::save_owned) per
  /// leaf slot; also the SDC retry's restore source.
  std::vector<real> stage0_;
  std::vector<index_t> leaf_slot_;         ///< node -> stage0 slot

  real time_ = 0;
  real dt_ = 0;
  int steps_ = 0;
  bool initialized_ = false;

  apex::leaf_cost_model cost_model_;
  invariant_auditor auditor_;

 private:
  // --- per-node kernel tasks (the only copies) ---------------------------
  void hydro_leaf(index_t l, real dt, real ca, real cb);
  void restrict_node(index_t n);
  void copy_faces(index_t n);
  void prolong_leaf(index_t l);
  void set_density(index_t l);
  /// Max signal speed over cell width: leaf l's CFL bound.
  real signal_speed(index_t l) const;

  /// Build and run one step graph in \p mode: the three RK stages with
  /// step \p dt when \p advance (the u0 copies are step_attempt's), else
  /// one hydro-less stage; each stage is hydro -> restrict -> copy -> links
  /// -> prolong -> set-density + FMM (build_solve), then the dt reduction
  /// and one deterministic drain.  Sets dt_; barrier mode also adds the
  /// phase wall times.  With \p record the graph records itself and, once
  /// it drained without a failure, its record is moved into *record.
  void step_graph(step_mode mode, real dt, bool advance,
                  apex::graph_profile* record = nullptr);

  // --- SDC containment (see app/invariants.hpp) --------------------------
  /// One execution attempt of the step: the entry pass (per leaf: u0 copy,
  /// armed state bitflip, seal verify), the physics, the audit, fresh
  /// seals.  Throws sdc_detected on a tripped detector.
  void step_attempt(real dt);
  /// Retry a tripped step from the u0 copies and \p snap with a
  /// dual-execution compare-vote; rethrows sdc_detected (the
  /// checkpoint-rollback escalation) when a u0 copy fails its pre-step
  /// seal, the retry trips again or the two executions disagree.
  void sdc_retry(const sdc_snapshot& snap, real dt);
  sdc_snapshot sdc_take_snapshot();
  void sdc_restore(const sdc_snapshot& snap);
  void sdc_audit_and_seal(real dt_next, std::int64_t step);
  /// Order-independent digest of the evolved state (leaf seals + dt), the
  /// dual-execution vote's ballot.
  std::uint64_t sdc_state_signature() const;

  const bool measure_costs_;

  apex::metrics_sink* metrics_ = nullptr;
  apex::step_record last_metrics_{};
  /// Critical-path analysis of the most recent step_attempt's recorded DAG
  /// (member state so a retried attempt reports its own recording).
  apex::critical_path_result last_crit_{};
  bool have_crit_ = false;
  std::uint64_t sdc_audits_ = 0;
  std::uint64_t sdc_detected_ = 0;
  std::uint64_t sdc_retries_ = 0;
  std::uint64_t sdc_rollbacks_ = 0;
  /// Barrier-mode wall seconds per phase of the current step attempt, from
  /// consecutive join stamps (zeroed when an attempt starts, so a retried
  /// step reports the attempt whose state it kept).
  double phase_exchange_s_ = 0;
  double phase_gravity_s_ = 0;
  double phase_hydro_s_ = 0;
};

}  // namespace octo::app
