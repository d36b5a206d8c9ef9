#include "app/step_core.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "apex/apex.hpp"
#include "apex/dag.hpp"
#include "apex/race_audit.hpp"
#include "apex/trace.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"

namespace octo::app {

using grid::subgrid;

step_mode default_step_mode() {
  const auto v = config::env("OCTO_STEP_MODE");
  if (!v || *v == "barrier") return step_mode::barrier;
  if (*v == "dataflow") return step_mode::dataflow;
  throw error("OCTO_STEP_MODE='" + *v +
              "' is not a step mode (expected barrier or dataflow)");
}

bool default_audit_races() {
  return config::env_switch("OCTO_RACE_AUDIT", false);
}

step_core::step_core(const scen::scenario& sc, sim_options opt,
                     exec::amt_space space, bool measure_costs)
    : scenario_(sc), opt_(opt), space_(space), measure_costs_(measure_costs) {}

void step_core::initialize() {
  topo_ = std::make_unique<tree::topology>(scenario_.domain_half,
                                           opt_.max_level, scenario_.refine);
  opt_.hydro.omega = scenario_.omega;
  grids_.clear();
  grids_.reserve(static_cast<std::size_t>(topo_->num_nodes()));
  for (index_t n = 0; n < topo_->num_nodes(); ++n)
    grids_.emplace_back(topo_->center(n), topo_->cell_width(n));
  build_layout();
  on_layout();

  // One-time scenario preparation (e.g. the SCF solve) runs on this
  // thread, outside the task pool (see scenario::prepare).
  if (scenario_.prepare) scenario_.prepare();

  // Initial data (parallel over leaves; the scenario init may be costly).
  const auto& leaves = topo_->leaves();
  amt::run_each(space_.runtime(), "app.init.leaf", leaves.size(),
                [&](std::size_t i) { scenario_.init(grids_[leaves[i]]); });

  // Reset the integration clock: re-initialize() is the from-scratch
  // restart path (run_with_checkpoints when no valid checkpoint exists).
  time_ = 0;
  steps_ = 0;
  rederive_state();
  initialized_ = true;
  on_initialized();

  // Arm the SDC auditor: seal the initial state so the very first step can
  // already verify it was read back uncorrupted.
  auditor_ = invariant_auditor(opt_.audit);
  sdc_audits_ = sdc_detected_ = sdc_retries_ = sdc_rollbacks_ = 0;
  if (auditor_.enabled()) {
    auditor_.resize(topo_->num_nodes());
    sdc_seal_all();
  }
}

void step_core::build_layout() {
  // The FMM's moments, expansions and outputs exist only with gravity.
  grav_.reset();
  if (opt_.self_gravity)
    grav_ = std::make_unique<gravity::fmm_solver>(*topo_, opt_.gravity);
  const auto& leaves = topo_->leaves();
  leaf_slot_.assign(static_cast<std::size_t>(topo_->num_nodes()), -1);
  for (std::size_t s = 0; s < leaves.size(); ++s)
    leaf_slot_[static_cast<std::size_t>(leaves[s])] =
        static_cast<index_t>(s);
  stage0_.assign(leaves.size() *
                     static_cast<std::size_t>(grid::subgrid::owned_size),
                 0);
  // Leaf slots changed identity: measured history no longer lines up.
  cost_model_.reset(measure_costs_ ? leaves.size() : 0);
}

void step_core::rederive_state() {
  step_graph(step_mode::barrier, 0, /*advance=*/false);
}

grid::subgrid& step_core::leaf(index_t node) {
  OCTO_ASSERT(topo_->node(node).leaf);
  return grids_[node];
}

const grid::subgrid& step_core::leaf(index_t node) const {
  OCTO_ASSERT(topo_->node(node).leaf);
  return grids_[node];
}

namespace {
/// APEX phase timers for the step loop (registered once; see apex/apex.hpp).
struct phase_timers {
  apex::metric_id exchange = apex::registry::instance().timer("app.exchange_ghosts");
  apex::metric_id gravity = apex::registry::instance().timer("app.solve_gravity");
  apex::metric_id hydro = apex::registry::instance().timer("app.hydro_stage");
  apex::metric_id step = apex::registry::instance().timer("app.step");
  apex::metric_id steps_counter = apex::registry::instance().counter("app.steps");
};
phase_timers& timers() {
  static phase_timers t;
  return t;
}
}  // namespace

// ---------------------------------------------------------------------------
// Per-node kernel tasks
// ---------------------------------------------------------------------------

void step_core::hydro_leaf(index_t l, real dt, real ca, real cb) {
  const apex::cost_scope cost(cost_model_ptr(),
                              static_cast<std::size_t>(leaf_slot_[l]));
#if OCTO_EOS_GUARDS
  hydro::eos_guard().leaf = static_cast<long>(l);
#endif
  static thread_local hydro::workspace ws;
  static thread_local std::vector<real> dudt;
  dudt.assign(static_cast<std::size_t>(hydro::dudt_size), 0);
  subgrid& u = grids_[l];
  hydro::flux_divergence(u, opt_.hydro, ws, dudt);
  if (opt_.self_gravity) {
    hydro::add_sources(u, opt_.hydro, grav_->gx(l).data(),
                       grav_->gy(l).data(), grav_->gz(l).data(), dudt);
  } else {
    hydro::add_sources(u, opt_.hydro, nullptr, nullptr, nullptr, dudt);
  }
  hydro::apply_dudt(u, dudt, dt);
  if (cb != 1) hydro::stage_blend(u, stage0(l), ca, cb);
  hydro::apply_floors_and_sync_tau(u, opt_.hydro.gas);
}

void step_core::restrict_node(index_t n) {
  const auto& nd = topo_->node(n);
  for (int oct = 0; oct < NCHILD; ++oct)
    grid::restrict_to_coarse(grids_[nd.children[oct]], oct, grids_[n]);
}

void step_core::copy_faces(index_t n) {
  for (int d = 0; d < NFACE; ++d) {
    const index_t nb = topo_->neighbor(n, d);
    if (nb != tree::invalid_node) {
      if (!linked(n, nb)) grids_[n].copy_ghost_direct(d, grids_[nb]);
    } else {
      const auto ncode =
          tree::code_neighbor(topo_->node(n).code, tree::directions()[d]);
      if (!ncode) grids_[n].fill_ghost_outflow(d);
      // else: coarser neighbor, handled by prolongation (leaves).
    }
  }
}

void step_core::prolong_leaf(index_t l) {
  const auto& nd = topo_->node(l);
  for (int d = 0; d < NFACE; ++d) {
    if (nd.neighbors[d] != tree::invalid_node) continue;
    const index_t host = topo_->neighbor_or_coarser(l, d);
    if (host == tree::invalid_node) continue;  // domain boundary
    grid::fill_ghost_from_coarse(grids_[l], tree::code_coords(nd.code), d,
                                 grids_[host],
                                 tree::code_coords(topo_->node(host).code));
  }
}

void step_core::set_density(index_t l) {
  const apex::cost_scope cost(cost_model_ptr(),
                              static_cast<std::size_t>(leaf_slot_[l]));
  grav_->set_leaf_from_subgrid(l, grids_[l]);
}

real step_core::signal_speed(index_t l) const {
  return hydro::max_signal_speed(grids_[l], opt_.hydro) /
         topo_->cell_width(l);
}

// ---------------------------------------------------------------------------
// The step graph (both modes)
// ---------------------------------------------------------------------------

void step_core::step_graph(step_mode mode, real dt, bool advance,
                           apex::graph_profile* record) {
  const bool barrier = mode == step_mode::barrier;
  const auto& leaves = topo_->leaves();
  open_links();

  amt::task_graph tg(space_.runtime(), barrier, record != nullptr);

  // SSP-RK3 (Shu-Osher): u1 = u0 + dt L(u0)
  //                      u2 = 3/4 u0 + 1/4 (u1 + dt L(u1))
  //                      u  = 1/3 u0 + 2/3 (u2 + dt L(u2))
  const real CA[3] = {0, real(0.75), real(1) / 3};
  const real CB[3] = {1, real(0.25), real(2) / 3};
  // A graph that does not advance (rederive_state) has one hydro-less
  // stage: ghosts, gravity and dt from the current leaf fields.
  const std::vector<index_t> no_leaves;
  const auto& hydro_leaves = advance ? leaves : no_leaves;

  // Barrier mode: a phase's wall time runs from the join that opened it to
  // the join that closed it (dataflow phases overlap: the columns stay 0).
  std::uint64_t mark = tg.last_join_ns();
  const auto close_phase = [&](apex::metric_id timer, double& seconds) {
    if (!barrier) return;
    const std::uint64_t now = tg.last_join_ns();
    const double s = static_cast<double>(now - mark) * 1e-9;
    seconds += s;
    apex::registry::instance().sample(timer, s);
    mark = now;
  };

  // Every task below declares the regions it reads and writes; the task
  // graph derives the dataflow edges from those footprints in build order
  // (amt/task_graph.hpp), across stages too.
  for (int s = 0; s < (advance ? 3 : 1); ++s) {
    const real ca = CA[s], cb = CB[s];

    // Hydro: each leaf fires on its *own* ghosts and gravity — interior
    // leaves run while boundary work elsewhere is still in flight.  Stage
    // 0 reads the u0 the entry pass copied.
    for (const index_t l : hydro_leaves) {
      auto fp = tg.footprint();
      fp.w(apex::rgn::field, l)
          .r(apex::rgn::ghost, l)
          .r(apex::rgn::stage0, l);
      if (opt_.self_gravity) fp.r(apex::rgn::gout, l);
      tg.add("app.hydro.leaf", std::move(fp),
             [this, l, dt, ca, cb] { hydro_leaf(l, dt, ca, cb); });
    }
    if (advance) {
      tg.join();
      close_phase(timers().hydro, phase_hydro_s_);
    }

    // Ghost exchange, phase 1 — restriction, deepest level first (one
    // join per level when barriered).
    for (int lvl = topo_->max_depth() - 1; lvl >= 0; --lvl) {
      for (const index_t n : topo_->nodes_at_level(lvl)) {
        if (topo_->node(n).leaf) continue;
        auto fp = tg.footprint();
        fp.w(apex::rgn::field, n);
        for (int oct = 0; oct < NCHILD; ++oct)
          fp.r(apex::rgn::field, topo_->node(n).children[oct]);
        tg.add("app.exchange.restrict", std::move(fp),
               [this, n] { restrict_node(n); });
      }
      tg.join();
    }

    // Phase 2 — same-level ghost copies + outflow fills into the six face
    // ghosts of each leaf: the hydro stencil steps along one axis at a
    // time, so no kernel reads an edge or corner ghost, and no task reads
    // an interior node's ghosts (prolongation hosts are leaves under 2:1
    // balance).  Linked faces (a remote or serialized neighbor in the
    // cluster) are the link tasks' job, a phase of their own; a
    // same-locality neighbor is copied here, straight from its owned
    // cells.  A leaf left with no face to fill gets no task.
    for (const index_t n : leaves) {
      auto fp = tg.footprint();
      bool work = false;
      for (int d = 0; d < NFACE; ++d) {
        const index_t nb = topo_->neighbor(n, d);
        if (nb != tree::invalid_node) {
          if (linked(n, nb)) continue;
          fp.r(apex::rgn::field, nb).w(apex::rgn::ghost, n, d);
          work = true;
        } else if (!tree::code_neighbor(topo_->node(n).code,
                                        tree::directions()[d])) {
          // Outflow fill reads the node's own interior.
          fp.r(apex::rgn::field, n).w(apex::rgn::ghost, n, d);
          work = true;
        }
      }
      if (work)
        tg.add("app.exchange.copy", std::move(fp),
               [this, n] { copy_faces(n); });
    }
    tg.join();
    add_link_tasks(tg);
    tg.join();

    // Phase 3 — coarse-to-fine prolongation into the face ghosts of each
    // leaf whose face neighbor is coarser, from the coarser host leaf's
    // owned cells and face ghosts (the slopes step one axis past the
    // owned range), copied, linked or prolonged (ascending level order, so
    // a host's own prolongation is built first; barriered, one join per
    // level, coarsest first).
    for (int lvl = 0; lvl <= topo_->max_depth(); ++lvl) {
      for (const index_t l : topo_->nodes_at_level(lvl)) {
        if (!topo_->node(l).leaf) continue;
        auto fp = tg.footprint();
        bool work = false;
        for (int d = 0; d < NFACE; ++d) {
          if (topo_->node(l).neighbors[d] != tree::invalid_node) continue;
          const index_t h = topo_->neighbor_or_coarser(l, d);
          if (h == tree::invalid_node) continue;  // domain boundary
          fp.r(apex::rgn::field, h)
              .r(apex::rgn::ghost, h)
              .w(apex::rgn::ghost, l, d);
          work = true;
        }
        if (work)
          tg.add("app.exchange.prolong", std::move(fp),
                 [this, l] { prolong_leaf(l); });
      }
      tg.join();
    }
    close_phase(timers().exchange, phase_exchange_s_);

    // Gravity: per-leaf density refresh feeding the solver's task graph.
    if (opt_.self_gravity) {
      for (const index_t l : leaves)
        tg.add("app.set_density.leaf",
               tg.footprint()
                   .r(apex::rgn::field, l)
                   .w(apex::rgn::moment, l),
               [this, l] { set_density(l); });
      tg.join();
      grav_->build_solve(tg);
      close_phase(timers().gravity, phase_gravity_s_);
    }
  }

  // dt reduction: per-leaf signal speeds fire as each leaf's final state
  // settles; the serial max-reduce below the drain is deterministic.
  std::vector<real> vmax_slots(leaves.size(), 0);
  if (opt_.fixed_dt <= 0) {
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const index_t l = leaves[i];
      tg.add("app.dt.leaf",
             tg.footprint()
                 .r(apex::rgn::field, l)
                 .r(apex::rgn::ghost, l)
                 .w(apex::rgn::dtred, static_cast<index_t>(i)),
             [this, l, i, &vmax_slots] { vmax_slots[i] = signal_speed(l); });
    }
    tg.join();
  }

  // The graph's final join: drain every task, then surface the first error
  // in build order (amt::task_graph::drain).  A failed graph's record goes
  // with it.
  const std::exception_ptr err = tg.drain();
  close_links(!err);
  if (err) std::rethrow_exception(err);
  if (record != nullptr) *record = tg.take_record();

  if (opt_.fixed_dt > 0) {
    dt_ = opt_.fixed_dt;
  } else {
    real vmax = 0;
    for (const real v : vmax_slots) vmax = std::max(vmax, v);
    OCTO_CHECK_MSG(vmax > 0, "zero signal speed — uninitialized state?");
    dt_ = opt_.cfl / vmax;
  }
}

// ---------------------------------------------------------------------------
// The step: attempt, SDC containment, record
// ---------------------------------------------------------------------------

void step_core::step_attempt(real dt) {
  phase_exchange_s_ = phase_gravity_s_ = phase_hydro_s_ = 0;
  const auto step = static_cast<std::uint64_t>(steps_ + 1);
  const auto& leaves = topo_->leaves();

  // Armed compute faults.  A plan's (loc, leaf) maps to a concrete node:
  // leaf index modulo the target locality's owned-leaf count, so the spec
  // stays valid across partition changes (rebalance / shrink-on-failure).
  // On one locality the pool is every leaf.
  auto& inj = fault::injector::instance();
  const auto pick_leaf = [&](const fault::bitflip_plan& p) {
    const int loc = static_cast<int>(
        p.loc % static_cast<std::uint64_t>(num_localities()));
    std::vector<index_t> owned;
    for (const index_t l : leaves)
      if (leaf_owner(l) == loc) owned.push_back(l);
    const auto& pool = owned.empty() ? leaves : owned;
    return pool[static_cast<std::size_t>(p.leaf % pool.size())];
  };
  fault::bitflip_plan flip, mflip;
  index_t flip_leaf = tree::invalid_node;
  if (inj.armed() && inj.state_bitflip_hook(step, &flip)) {
    flip_leaf = pick_leaf(flip);
    OCTO_LOG_WARN("fault: injected state bitflip at step "
                  << step << " locality " << leaf_owner(flip_leaf) << " leaf "
                  << flip_leaf << " field "
                  << flip.field % static_cast<std::uint64_t>(grid::NFIELD)
                  << " bit " << flip.bit % 64);
  }
  if (inj.armed() && inj.moment_bitflip_hook(step, &mflip) &&
      opt_.self_gravity) {
    const index_t l = pick_leaf(mflip);
    grav_->apply_moment_bitflip(l, mflip.field, mflip.cell, mflip.bit);
    OCTO_LOG_WARN("fault: injected moment bitflip at step " << step
                                                            << " node " << l);
  }

  // Entry pass, one task per leaf: the RK u0 copy (also the state the
  // containment retry restores from), then the armed state flip, then the
  // seal verify.  The copy precedes the flip, so u0 stays clean; any
  // at-rest flip since the last step's seals — injected or real — trips
  // the verify before the state is read.
  {
    std::optional<apex::scoped_timer> audit_t;
    if (auditor_.enabled()) audit_t.emplace(sdc_metrics().audit_timer);
    amt::run_each(
        space_.runtime(), "app.entry.leaf", leaves.size(), [&](std::size_t i) {
          const index_t l = leaves[i];
          grids_[l].save_owned(stage0(l).data());
          if (l == flip_leaf)
            apply_state_bitflip(grids_[l], flip.field, flip.cell, flip.bit);
          if (auditor_.enabled()) auditor_.verify_leaf(l, grids_[l]);
        });
    if (opt_.self_gravity && auditor_.moments_sealed())
      auditor_.verify_moments(grav_->moments_crc());
  }

  // The step's task graph records itself only when someone is observing (a
  // trace sink, a metrics sink, or the race auditor); a graph that does
  // not record pays one branch per task.  A barrier step records its joins
  // as "join" nodes, so the audit and the critical path cover both modes.
  const bool record_dag =
      apex::trace::enabled() || metrics_ != nullptr || opt_.audit_races;
  apex::graph_profile graph;
  step_graph(opt_.mode, dt, /*advance=*/true, record_dag ? &graph : nullptr);
  if (record_dag) {
    if (opt_.audit_races) apex::audit_step_or_throw(graph);
    last_crit_ = apex::analyze_critical_path(graph);
    apex::export_critical_path_counters(last_crit_);
    have_crit_ = true;
  }

  // Post-step audit (invariants at cadence) and fresh seals over the
  // evolved state — the seals must be retaken last, after every detector
  // has passed, so a failed attempt leaves the pre-step seals intact.
  if (auditor_.enabled()) {
    const apex::scoped_timer audit_t(sdc_metrics().audit_timer);
    sdc_audit_and_seal(dt_, steps_ + 1);
    ++sdc_audits_;
    apex::registry::instance().add(sdc_metrics().audits);
  }
}

void step_core::sdc_retry(const sdc_snapshot& snap, real dt) {
  ++sdc_retries_;
  apex::registry::instance().add(sdc_metrics().retries);
  try {
    // The u0 copies are the retry's source: they must still match the
    // pre-step seals (retaken only once every detector passed).  A flip
    // that landed before the copy is in them too — escalate.
    const auto& leaves = topo_->leaves();
    amt::run_each(space_.runtime(), "app.u0_verify.leaf", leaves.size(),
                  [&](std::size_t i) {
                    auditor_.verify_leaf(leaves[i], stage0(leaves[i]));
                  });
    // Transient-error path: restore the pre-step state and re-execute.  A
    // deterministic second execution must agree bitwise (dual-execution
    // compare-vote) before the retry is trusted.
    sdc_restore(snap);
    step_attempt(dt);
    const std::uint64_t ballot_a = sdc_state_signature();
    sdc_restore(snap);
    step_attempt(dt);
    if (sdc_state_signature() != ballot_a)
      throw sdc_detected(
          "dual-execution compare-vote mismatch on retry — the two "
          "re-executions disagree, escalating to checkpoint rollback");
  } catch (const sdc_detected&) {
    // The audit tripped again (or the vote failed): escalate to the
    // checkpoint-rollback driver.
    ++sdc_rollbacks_;
    apex::registry::instance().add(sdc_metrics().rollbacks);
    throw;
  }
}

real step_core::step() {
  OCTO_CHECK_MSG(initialized_, "call initialize() first");
  const apex::scoped_timer apex_t(timers().step);
  const apex::scoped_trace_span trace_span(opt_.mode == step_mode::dataflow
                                               ? "app.step.dataflow"
                                               : "app.step");
  apex::registry::instance().add(timers().steps_counter);
  const stopwatch step_watch;
  before_step();
  if (cost_model_.active()) cost_model_.begin_step();
  const real dt = dt_;
  const amt::runtime_stats stats0 = space_.runtime().stats();
  have_crit_ = false;

  if (auditor_.enabled()) {
    const sdc_snapshot snap = sdc_take_snapshot();
    try {
      step_attempt(dt);
    } catch (const sdc_detected&) {
      ++sdc_detected_;
      sdc_retry(snap, dt);
    }
  } else {
    step_attempt(dt);
  }

  time_ += dt;
  ++steps_;
  if (cost_model_.active()) cost_model_.end_step();
  after_step();

  // Structured per-step observability record (the paper's headline
  // "processed sub-grid cells per second" plus the per-phase breakdown
  // from the barrier joins; in dataflow mode phases overlap, so the
  // per-phase columns stay 0 and idle_fraction carries the
  // scheduler-utilization comparison instead).
  const amt::runtime_stats stats1 = space_.runtime().stats();
  apex::step_record rec;
  rec.step = steps_;
  rec.time = static_cast<double>(time_);
  rec.dt = static_cast<double>(dt);
  rec.step_seconds = step_watch.seconds();
  rec.exchange_seconds = phase_exchange_s_;
  rec.gravity_seconds = phase_gravity_s_;
  rec.hydro_seconds = phase_hydro_s_;
  rec.subgrids = static_cast<std::uint64_t>(topo_->num_leaves());
  rec.cells = static_cast<std::uint64_t>(topo_->num_cells());
  const double busy_ns =
      rec.step_seconds * 1e9 * space_.runtime().concurrency();
  if (busy_ns > 0) {
    rec.idle_fraction =
        static_cast<double>(stats1.idle_ns - stats0.idle_ns) / busy_ns;
  }
  if (have_crit_) {
    rec.crit_path_us = static_cast<double>(last_crit_.length_ns) / 1e3;
    rec.crit_path_frac = last_crit_.crit_path_frac();
    rec.imbalance = last_crit_.imbalance;
  }
  rec.sdc_audits = sdc_audits_;
  rec.sdc_detected = sdc_detected_;
  rec.sdc_retries = sdc_retries_;
  rec.sdc_rollbacks = sdc_rollbacks_;
  finish_step_record(rec);
  rec.finalize();
  last_metrics_ = rec;
  if (metrics_ != nullptr) metrics_->emit(rec);
  return dt;
}

void step_core::restore_state(real time, std::int64_t step) {
  OCTO_CHECK_MSG(initialized_, "call initialize() first");
  time_ = time;
  steps_ = static_cast<int>(step);
  // Derived state is not checkpointed: rebuild ghosts and gravity from the
  // restored fields, then recompute dt — bitwise identical to what the
  // uninterrupted run carried at this point.
  rederive_state();
  // The restored fields are the trusted state now: retake the seals (the
  // old ones described the pre-rollback state) and restart the drift
  // history's warmup.  The containment retry re-restores its own history
  // on top of this.
  if (auditor_.enabled()) {
    auditor_.reset_history();
    sdc_seal_all();
  }
}

ledger step_core::measure() const {
  ledger lg;
  for (const index_t l : topo_->leaves()) {
    const auto t = hydro::measure(grids_[l]);
    lg.mass += t.mass;
    lg.momentum += t.momentum;
    lg.ang_momentum += t.ang_momentum;
    lg.gas_energy += t.energy;
  }
  if (opt_.self_gravity) lg.pot_energy = grav_->potential_energy();
  return lg;
}

// ---------------------------------------------------------------------------
// SDC containment (see app/invariants.hpp for the detection model)
// ---------------------------------------------------------------------------

void step_core::sdc_seal_all() {
  const auto& leaves = topo_->leaves();
  amt::run_each(space_.runtime(), "app.seal.leaf", leaves.size(),
                [&](std::size_t i) {
                  auditor_.seal_leaf(leaves[i], grids_[leaves[i]]);
                });
  if (opt_.self_gravity) auditor_.seal_moments(grav_->moments_crc());
}

sdc_snapshot step_core::sdc_take_snapshot() {
  sdc_snapshot snap;
  snap.time = time_;
  snap.dt = dt_;
  snap.steps = steps_;
  snap.history = auditor_.save_history();
  save_step_entry();
  return snap;
}

void step_core::sdc_restore(const sdc_snapshot& snap) {
  for (const index_t l : topo_->leaves())
    grids_[l].load_owned(stage0(l).data());
  // restore_state re-exchanges ghosts, re-solves gravity and recomputes dt
  // from the restored fields — bitwise identical to the pre-attempt state,
  // so the clean re-execution matches the original seals exactly.
  restore_state(snap.time, snap.steps);
  restore_step_entry();
  dt_ = snap.dt;
  auditor_.restore_history(snap.history);
}

std::uint64_t step_core::sdc_state_signature() const {
  // FNV-style fold over the per-leaf seals in leaf order, plus the moment
  // seal and the next dt — the dual-execution vote's ballot.
  std::uint64_t sig = 1469598103934665603ull;
  const auto fold = [&sig](std::uint64_t v) {
    sig = (sig ^ v) * 1099511628211ull;
  };
  for (const index_t l : topo_->leaves()) fold(auditor_.seal_of(l));
  if (auditor_.moments_sealed()) fold(auditor_.moment_seal());
  std::uint64_t dt_bits = 0;
  static_assert(sizeof(real) == sizeof(dt_bits), "real must be 64-bit");
  std::memcpy(&dt_bits, &dt_, sizeof(dt_bits));
  fold(dt_bits);
  return sig;
}

void step_core::sdc_audit_and_seal(real dt_next, std::int64_t step) {
  // NaN/Inf + positivity scans and the conservation/CFL audit run at
  // cadence; the seals are retaken every step (a stale seal cannot verify
  // legitimately evolved state).
  if (auditor_.invariants_due(step)) {
    const auto& leaves = topo_->leaves();
    amt::run_each(space_.runtime(), "app.invariants.leaf", leaves.size(),
                  [&](std::size_t i) {
                    auditor_.audit_leaf(leaves[i], grids_[leaves[i]]);
                  });
    auditor_.audit_step(measure(), dt_next, step);
  }
  sdc_seal_all();
}

}  // namespace octo::app
