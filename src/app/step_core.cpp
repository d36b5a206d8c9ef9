#include "app/step_core.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "amt/channel.hpp"
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
  static const bool on = [] {
    const auto v = config::env("OCTO_RACE_AUDIT");
    return v && *v != "0";
  }();
  return on;
}

step_core::step_core(const scen::scenario& sc, sim_options opt,
                     exec::amt_space space, bool leaf_links,
                     bool measure_costs, double cost_alpha)
    : scenario_(sc),
      opt_(opt),
      space_(space),
      leaf_links_(leaf_links),
      measure_costs_(measure_costs),
      cost_alpha_(cost_alpha) {}

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
  {
    std::vector<amt::future<void>> futs;
    for (const index_t l : topo_->leaves())
      futs.push_back(amt::async([this, l] { scenario_.init(grids_[l]); },
                                space_.runtime()));
    amt::wait_all(futs, space_.runtime());
  }

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
  grav_ = std::make_unique<gravity::fmm_solver>(*topo_, opt_.gravity);
  const auto& leaves = topo_->leaves();
  leaf_slot_.assign(static_cast<std::size_t>(topo_->num_nodes()), -1);
  stage0_.clear();
  stage0_.reserve(leaves.size());
  for (std::size_t s = 0; s < leaves.size(); ++s) {
    leaf_slot_[static_cast<std::size_t>(leaves[s])] =
        static_cast<index_t>(s);
    stage0_.emplace_back(topo_->center(leaves[s]),
                         topo_->cell_width(leaves[s]));
  }
  leaves_by_level_.assign(static_cast<std::size_t>(topo_->max_depth()) + 1,
                          {});
  for (const index_t l : leaves)
    leaves_by_level_[static_cast<std::size_t>(topo_->node(l).level)]
        .push_back(l);
  // Leaf slots changed identity: measured history no longer lines up.
  cost_model_.reset(measure_costs_ ? leaves.size() : 0, cost_alpha_);
}

void step_core::rederive_state() {
  exchange_ghosts();
  if (opt_.self_gravity) solve_gravity();
  dt_ = opt_.fixed_dt > 0 ? opt_.fixed_dt : compute_dt();
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
  const apex::scoped_trace_span span("app.hydro.leaf");
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
  if (cb != 1) hydro::stage_blend(u, stage0_[leaf_slot_[l]], ca, cb);
  hydro::apply_floors_and_sync_tau(u, opt_.hydro.gas);
}

void step_core::restrict_node(index_t n) {
  const apex::scoped_trace_span span("app.exchange.restrict");
  const auto& nd = topo_->node(n);
  for (int oct = 0; oct < NCHILD; ++oct)
    grid::restrict_to_coarse(grids_[nd.children[oct]], oct, grids_[n]);
}

void step_core::copy_faces(index_t n) {
  const apex::scoped_trace_span span("app.exchange.copy");
  for (int d = 0; d < NNEIGHBOR; ++d) {
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
  const apex::scoped_trace_span span("app.exchange.prolong");
  const auto& nd = topo_->node(l);
  for (int d = 0; d < NNEIGHBOR; ++d) {
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
// Barrier mode
// ---------------------------------------------------------------------------

void step_core::exchange_ghosts() {
  const apex::scoped_timer apex_t(timers().exchange);
  const apex::scoped_trace_span trace_span("app.exchange_ghosts");
  const stopwatch phase_watch;
  auto& rt = space_.runtime();

  // Phase 1: restrict into interior sub-grids, deepest level first.
  for (int lvl = topo_->max_depth() - 1; lvl >= 0; --lvl) {
    std::vector<amt::future<void>> futs;
    for (const index_t n : topo_->nodes_at_level(lvl))
      if (!topo_->node(n).leaf)
        futs.push_back(amt::async([this, n] { restrict_node(n); }, rt));
    amt::wait_all(futs, rt);
  }

  // Phase 2: same-level direct copies and physical boundaries, for every
  // node.  Interior sub-grids are filled too: their owned cells (from the
  // phase-1 restriction) serve as same-level ghost sources for leaves
  // adjacent to refined regions.
  {
    std::vector<amt::future<void>> futs;
    for (index_t n = 0; n < topo_->num_nodes(); ++n)
      futs.push_back(amt::async([this, n] { copy_faces(n); }, rt));
    amt::wait_all(futs, rt);
  }
  if (leaf_links_) exchange_leaf_faces();

  // Phase 3: coarse-to-fine prolongation, coarsest target level first.
  for (const auto& level : leaves_by_level_) {
    std::vector<amt::future<void>> futs;
    for (const index_t n : level)
      futs.push_back(amt::async([this, n] { prolong_leaf(n); }, rt));
    amt::wait_all(futs, rt);
  }
  phase_exchange_s_ += phase_watch.seconds();
}

void step_core::solve_gravity() {
  const apex::scoped_timer apex_t(timers().gravity);
  const apex::scoped_trace_span trace_span("app.solve_gravity");
  const stopwatch phase_watch;
  for (const index_t l : topo_->leaves()) set_density(l);
  grav_->solve(space_);
  phase_gravity_s_ += phase_watch.seconds();
}

real step_core::compute_dt() {
  real vmax = 0;
  for (const index_t l : topo_->leaves()) vmax = std::max(vmax, signal_speed(l));
  OCTO_CHECK_MSG(vmax > 0, "zero signal speed — uninitialized state?");
  return opt_.cfl / vmax;
}

void step_core::hydro_stage(real dt, real ca, real cb) {
  const apex::scoped_timer apex_t(timers().hydro);
  const apex::scoped_trace_span trace_span("app.hydro_stage");
  const stopwatch phase_watch;
  auto& rt = space_.runtime();
  std::vector<amt::future<void>> futs;
  for (const index_t l : topo_->leaves())
    futs.push_back(amt::async(
        [this, l, dt, ca, cb] { hydro_leaf(l, dt, ca, cb); }, rt));
  amt::wait_all(futs, rt);
  phase_hydro_s_ += phase_watch.seconds();
}

void step_core::step_barrier(real dt) {
  // Save u0 for the RK combination.
  {
    std::vector<amt::future<void>> futs;
    for (const index_t l : topo_->leaves())
      futs.push_back(amt::async(
          [this, l] { stage0_[leaf_slot_[l]] = grids_[l]; },
          space_.runtime()));
    amt::wait_all(futs, space_.runtime());
  }

  // SSP-RK3 (Shu-Osher): u1 = u0 + dt L(u0)
  //                      u2 = 3/4 u0 + 1/4 (u1 + dt L(u1))
  //                      u  = 1/3 u0 + 2/3 (u2 + dt L(u2))
  hydro_stage(dt, 0, 1);
  exchange_ghosts();
  if (opt_.self_gravity) solve_gravity();

  hydro_stage(dt, real(0.75), real(0.25));
  exchange_ghosts();
  if (opt_.self_gravity) solve_gravity();

  hydro_stage(dt, real(1) / 3, real(2) / 3);
  exchange_ghosts();
  if (opt_.self_gravity) solve_gravity();
}

// ---------------------------------------------------------------------------
// Dataflow mode
// ---------------------------------------------------------------------------

step_core::sf step_core::track(step_graph_state& g, sf f) {
  watch_task(f);
  g.all.push_back(f);
  return f;
}

void step_core::step_graph(real dt) {
  auto& rt = space_.runtime();
  const auto nn = static_cast<std::size_t>(topo_->num_nodes());
  const auto& leaves = topo_->leaves();
  const std::size_t nlinks = leaf_links_ ? leaves.size() * NNEIGHBOR : 0;
  if (leaf_links_) open_links();

  step_graph_state g;
  // Prolongation relations: fine leaf -> distinct coarser leaf hosts, and
  // the reverse (host -> fine clients).  Fixed per topology.
  g.phosts.resize(nn);
  g.pclients.resize(nn);
  for (const index_t l : leaves) {
    const auto& nd = topo_->node(l);
    for (int d = 0; d < NNEIGHBOR; ++d) {
      if (nd.neighbors[d] != tree::invalid_node) continue;
      const index_t host = topo_->neighbor_or_coarser(l, d);
      if (host == tree::invalid_node) continue;  // domain boundary
      auto& hs = g.phosts[static_cast<std::size_t>(l)];
      if (std::find(hs.begin(), hs.end(), host) == hs.end()) {
        hs.push_back(host);
        g.pclients[static_cast<std::size_t>(host)].push_back(l);
      }
    }
  }
  g.all.reserve(nn * 16);

  const real CA[3] = {0, real(0.75), real(1) / 3};
  const real CB[3] = {1, real(0.25), real(2) / 3};

  // u0 snapshot: per-leaf tasks (step entry is a resolved point, no deps).
  std::vector<sf> snap(nn);
  for (const index_t l : leaves)
    snap[static_cast<std::size_t>(l)] = track(
        g, amt::dataflow(
               "snapshot",
               apex::access_set{}.r(apex::rgn::field, l).w(apex::rgn::stage0, l),
               [this, l] { stage0_[leaf_slot_[l]] = grids_[l]; },
               std::vector<sf>{}, rt));

  // Per-stage edges of the previous RK stage (WAR/WAW hazards).
  for (auto* v : {&g.prevH, &g.prevR, &g.prevC, &g.prevP, &g.prevD,
                  &g.prevSend})
    v->assign(nn, sf{});
  g.prevUnp.assign(nlinks, sf{});
  gravity::fmm_solver::solve_graph gprev;
  bool have_gprev = false;

  for (int s = 0; s < 3; ++s) {
    const real ca = CA[s], cb = CB[s];
    g.stage = s;
    for (auto* v : {&g.H, &g.R, &g.C, &g.P, &g.D, &g.SEND}) v->assign(nn, sf{});
    g.UNP.assign(nlinks, sf{});
    // content(n): the task that produced node n's owned cells this stage.
    const auto content = [&](index_t n) {
      return topo_->node(n).leaf ? g.H[static_cast<std::size_t>(n)]
                                 : g.R[static_cast<std::size_t>(n)];
    };

    // Hydro: each leaf fires on its *own* ghost-ready and gravity edges —
    // interior leaves run while boundary work elsewhere is still in flight.
    for (const index_t l : leaves) {
      const auto li = static_cast<std::size_t>(l);
      std::vector<sf> deps;
      if (s == 0) {
        deps.push_back(snap[li]);
      } else {
        deps.push_back(g.prevC[li]);  // own same-level ghosts filled
        if (g.prevP[li].valid()) deps.push_back(g.prevP[li]);  // coarse faces
        if (opt_.self_gravity) deps.push_back(gprev.leaf_out[li]);
        // WAR: last stage's readers of this leaf's owned cells.
        for (int d = 0; d < NNEIGHBOR; ++d) {
          const index_t nb = topo_->neighbor(l, d);
          if (nb == tree::invalid_node) continue;
          if (linked(l, nb)) {
            // Own linked faces arrived and unpacked last stage, and a
            // neighbor whose unpack copies straight from grids_[l] is done.
            deps.push_back(g.prevUnp[link_of(l, d)]);
            if (link_reads_source(l, nb))
              deps.push_back(g.prevUnp[link_of(nb, tree::dir_opposite(d))]);
          } else {
            deps.push_back(g.prevC[static_cast<std::size_t>(nb)]);
          }
        }
        if (g.prevSend[li].valid()) deps.push_back(g.prevSend[li]);
        const index_t par = topo_->node(l).parent;
        if (par != tree::invalid_node)
          deps.push_back(g.prevR[static_cast<std::size_t>(par)]);
        for (const index_t f : g.pclients[li])
          deps.push_back(g.prevP[static_cast<std::size_t>(f)]);
        if (g.prevD[li].valid()) deps.push_back(g.prevD[li]);
      }
      apex::access_set hfp;
      hfp.w(apex::rgn::field, l)
          .r(apex::rgn::ghost, l)
          .r(apex::rgn::stage0, l);
      if (opt_.self_gravity) hfp.r(apex::rgn::gout, l);
      g.H[li] = track(
          g, amt::dataflow(
                 "hydro-RK", std::move(hfp),
                 [this, l, dt, ca, cb] { hydro_leaf(l, dt, ca, cb); },
                 std::move(deps), rt));
    }

    // Restriction: parent-on-children dependencies replace the per-level
    // barrier of exchange_ghosts() phase 1.
    for (int lvl = topo_->max_depth() - 1; lvl >= 0; --lvl) {
      for (const index_t n : topo_->nodes_at_level(lvl)) {
        if (topo_->node(n).leaf) continue;
        const auto ni = static_cast<std::size_t>(n);
        std::vector<sf> deps;
        for (int oct = 0; oct < NCHILD; ++oct)
          deps.push_back(content(topo_->node(n).children[oct]));
        if (s > 0) {
          // WAR: last stage's readers of this node's owned restriction.
          deps.push_back(g.prevC[ni]);  // own outflow fill read the interior
          for (int d = 0; d < NNEIGHBOR; ++d) {
            const index_t nb = topo_->neighbor(n, d);
            if (nb != tree::invalid_node)
              deps.push_back(g.prevC[static_cast<std::size_t>(nb)]);
          }
          const index_t par = topo_->node(n).parent;
          if (par != tree::invalid_node)
            deps.push_back(g.prevR[static_cast<std::size_t>(par)]);
          for (const index_t f : g.pclients[ni])
            deps.push_back(g.prevP[static_cast<std::size_t>(f)]);
        }
        apex::access_set rfp;
        rfp.w(apex::rgn::field, n);
        for (int oct = 0; oct < NCHILD; ++oct)
          rfp.r(apex::rgn::field, topo_->node(n).children[oct]);
        g.R[ni] = track(g, amt::dataflow(
                               "restrict", std::move(rfp),
                               [this, n] { restrict_node(n); },
                               std::move(deps), rt));
      }
    }

    // Same-level ghost copies + outflow fills: fire per node when the
    // sources (neighbors' owned cells) are produced and this node's ghosts
    // are no longer being read.  Linked leaf faces are the link tasks' job.
    for (index_t n = 0; n < topo_->num_nodes(); ++n) {
      const auto ni = static_cast<std::size_t>(n);
      std::vector<sf> deps;
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t nb = topo_->neighbor(n, d);
        if (nb != tree::invalid_node && !linked(n, nb))
          deps.push_back(content(nb));
      }
      if (topo_->node(n).leaf)
        deps.push_back(g.H[ni]);  // WAR: hydro read these ghosts
      else
        deps.push_back(g.R[ni]);  // RAW: outflow reads the restricted interior
      if (s > 0) {
        if (g.prevC[ni].valid()) deps.push_back(g.prevC[ni]);  // WAW
        for (const index_t f : g.pclients[ni])
          deps.push_back(g.prevP[static_cast<std::size_t>(f)]);  // WAR
      }
      apex::access_set cfp;
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t nb = topo_->neighbor(n, d);
        if (nb != tree::invalid_node) {
          if (!linked(n, nb))
            cfp.r(apex::rgn::field, nb).w(apex::rgn::ghost, n, d);
        } else {
          const auto ncode = tree::code_neighbor(topo_->node(n).code,
                                                 tree::directions()[d]);
          if (!ncode)  // outflow fill reads the node's own interior
            cfp.r(apex::rgn::field, n).w(apex::rgn::ghost, n, d);
        }
      }
      g.C[ni] = track(g, amt::dataflow(
                             "copy", std::move(cfp),
                             [this, n] { copy_faces(n); }, std::move(deps),
                             rt));
    }

    if (leaf_links_) add_link_tasks(g);

    // Coarse-to-fine prolongation: per fine leaf, gated on its hosts'
    // complete state — owned cells, copied ghosts, linked faces and the
    // host's own coarse faces (ascending level order makes host P edges
    // exist).
    for (const auto& level : leaves_by_level_) {
      for (const index_t l : level) {
        const auto li = static_cast<std::size_t>(l);
        if (g.phosts[li].empty()) continue;
        std::vector<sf> deps;
        deps.push_back(g.H[li]);  // WAR: hydro read these ghost faces
        for (const index_t h : g.phosts[li]) {
          const auto hi = static_cast<std::size_t>(h);
          deps.push_back(content(h));
          deps.push_back(g.C[hi]);
          if (g.P[hi].valid()) deps.push_back(g.P[hi]);
          for (int d = 0; d < NNEIGHBOR; ++d) {
            const index_t hnb = topo_->neighbor(h, d);
            if (hnb != tree::invalid_node && linked(h, hnb))
              deps.push_back(g.UNP[link_of(h, d)]);
          }
        }
        if (s > 0)
          for (const index_t f : g.pclients[li])
            deps.push_back(g.prevP[static_cast<std::size_t>(f)]);  // WAR
        apex::access_set pfp;
        for (const index_t h : g.phosts[li])
          pfp.r(apex::rgn::field, h).r(apex::rgn::ghost, h);
        for (int d = 0; d < NNEIGHBOR; ++d) {
          if (topo_->node(l).neighbors[d] != tree::invalid_node) continue;
          if (topo_->neighbor_or_coarser(l, d) != tree::invalid_node)
            pfp.w(apex::rgn::ghost, l, d);
        }
        g.P[li] = track(g, amt::dataflow(
                               "prolong", std::move(pfp),
                               [this, l] { prolong_leaf(l); },
                               std::move(deps), rt));
      }
    }

    // Gravity: per-leaf density refresh feeding the solver's task graph.
    if (opt_.self_gravity) {
      std::vector<sf> mom_ready(nn);
      for (const index_t l : leaves) {
        const auto li = static_cast<std::size_t>(l);
        std::vector<sf> deps;
        deps.push_back(g.H[li]);
        if (have_gprev) deps.push_back(gprev.mom_free[li]);
        g.D[li] = track(
            g, amt::dataflow("set-density",
                             apex::access_set{}
                                 .r(apex::rgn::field, l)
                                 .w(apex::rgn::moment, l),
                             [this, l] { set_density(l); }, std::move(deps),
                             rt));
        mom_ready[li] = g.D[li];
      }
      gravity::fmm_solver::solve_graph sg = grav_->solve_dataflow(
          space_, mom_ready, have_gprev ? &gprev : nullptr);
      for (const auto& t : sg.tasks) track(g, t);
      gprev = std::move(sg);
      have_gprev = true;
    }

    g.prevH = std::move(g.H);
    g.prevR = std::move(g.R);
    g.prevC = std::move(g.C);
    g.prevP = std::move(g.P);
    g.prevD = std::move(g.D);
    g.prevSend = std::move(g.SEND);
    g.prevUnp = std::move(g.UNP);
  }

  // dt reduction: per-leaf signal speeds fire as each leaf's final state
  // settles; the serial max-reduce below the drain matches compute_dt().
  std::vector<real> vmax_slots(leaves.size(), 0);
  if (opt_.fixed_dt <= 0) {
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const index_t l = leaves[i];
      const auto li = static_cast<std::size_t>(l);
      std::vector<sf> deps;
      deps.push_back(g.prevH[li]);
      deps.push_back(g.prevC[li]);
      if (g.prevP[li].valid()) deps.push_back(g.prevP[li]);
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t nb = topo_->neighbor(l, d);
        if (nb != tree::invalid_node && linked(l, nb))
          deps.push_back(g.prevUnp[link_of(l, d)]);
      }
      track(g, amt::dataflow(
                   "dt-reduce",
                   apex::access_set{}
                       .r(apex::rgn::field, l)
                       .r(apex::rgn::ghost, l)
                       .w(apex::rgn::dtred, static_cast<index_t>(i)),
                   [this, l, i, &vmax_slots] {
                     vmax_slots[i] = signal_speed(l);
                   },
                   std::move(deps), rt));
    }
  }

  // The step's only global join: drain every task, then surface the first
  // error in build order — preferring a real failure (checksum, transport)
  // over the broken_channel cascade a failed link step produces.
  for (const auto& f : g.all)
    if (f.valid()) f.wait(rt);
  std::exception_ptr first, first_nonchannel;
  for (const auto& f : g.all) {
    if (!f.valid()) continue;
    if (auto e = amt::detail::stored_exception(f.state())) {
      if (!first) first = e;
      if (!first_nonchannel) {
        try {
          std::rethrow_exception(e);
        } catch (const amt::broken_channel&) {
        } catch (...) {
          first_nonchannel = e;
        }
      }
    }
  }
  if (leaf_links_) close_links(!first);
  if (first) std::rethrow_exception(first_nonchannel ? first_nonchannel : first);

  if (opt_.fixed_dt <= 0) {
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
  // Injection + pre-read verification: any at-rest flip since the last
  // step's seals — injected or real — trips here, before the state is read.
  sdc_apply_bitflips(steps_ + 1);
  if (auditor_.enabled()) {
    const apex::scoped_timer audit_t(sdc_metrics().audit_timer);
    sdc_verify_all();
  }

  // Record the step's task graph only when someone is observing (a trace
  // sink, a metrics sink, or the race auditor): dataflow's hot path stays
  // one relaxed load otherwise.
  const bool dataflow = opt_.mode == step_mode::dataflow;
  const bool audit_dag = dataflow && opt_.audit_races;
  const bool record_dag =
      dataflow && (apex::trace::enabled() || metrics_ != nullptr || audit_dag);
  if (dataflow) {
    if (record_dag) apex::dag_recorder::instance().begin_step();
    try {
      step_graph(dt);
    } catch (...) {
      // step_graph drained the graph before rethrowing; the partial
      // recording is worthless — discard it.
      if (record_dag) (void)apex::dag_recorder::instance().end_step();
      throw;
    }
    if (record_dag) {
      const apex::graph_profile graph =
          apex::dag_recorder::instance().end_step();
      if (audit_dag) apex::audit_step_or_throw(graph);
      last_crit_ = apex::analyze_critical_path(graph);
      apex::export_critical_path_counters(last_crit_);
      have_crit_ = true;
    }
  } else {
    step_barrier(dt);
    // Re-evaluate the CFL condition on the evolved state so the next
    // step's dt tracks the current signal speeds.
    if (opt_.fixed_dt <= 0) dt_ = compute_dt();
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
    // Transient-error path: restore the in-memory pre-step snapshot and
    // re-execute.  A deterministic second execution must agree bitwise
    // (dual-execution compare-vote) before the retry is trusted.
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
      after_sdc_retry();
    }
  } else {
    step_attempt(dt);
  }

  time_ += dt;
  ++steps_;
  if (cost_model_.active()) cost_model_.end_step();
  after_step();

  // Structured per-step observability record (the paper's headline
  // "processed sub-grid cells per second" plus the per-phase breakdown;
  // in dataflow mode phases overlap, so the per-phase columns stay 0 and
  // idle_fraction carries the scheduler-utilization comparison instead).
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
  auto& rt = space_.runtime();
  std::vector<amt::future<void>> futs;
  for (const index_t l : topo_->leaves())
    futs.push_back(
        amt::async([this, l] { auditor_.seal_leaf(l, grids_[l]); }, rt));
  amt::wait_all(futs, rt);
  if (opt_.self_gravity) auditor_.seal_moments(grav_->moments_crc());
}

void step_core::sdc_verify_all() {
  auto& rt = space_.runtime();
  std::vector<amt::future<void>> futs;
  for (const index_t l : topo_->leaves())
    futs.push_back(
        amt::async([this, l] { auditor_.verify_leaf(l, grids_[l]); }, rt));
  // get_all, not wait_all: a seal mismatch must surface as sdc_detected.
  amt::get_all(futs, rt);
  if (opt_.self_gravity && auditor_.moments_sealed())
    auditor_.verify_moments(grav_->moments_crc());
}

void step_core::sdc_apply_bitflips(std::int64_t step) {
  auto& inj = fault::injector::instance();
  if (!inj.armed()) return;
  fault::bitflip_plan plan;
  const auto& leaves = topo_->leaves();
  // Resolve a plan's (loc, leaf) to a concrete node: leaf index modulo the
  // target locality's owned-leaf count, so the spec stays valid across
  // partition changes (rebalance / shrink-on-failure).  On one locality
  // the pool is every leaf.
  const auto pick_leaf = [&](const fault::bitflip_plan& p) {
    const int loc = static_cast<int>(
        p.loc % static_cast<std::uint64_t>(num_localities()));
    std::vector<index_t> owned;
    for (const index_t l : leaves)
      if (leaf_owner(l) == loc) owned.push_back(l);
    const auto& pool = owned.empty() ? leaves : owned;
    return pool[static_cast<std::size_t>(p.leaf % pool.size())];
  };
  if (inj.state_bitflip_hook(static_cast<std::uint64_t>(step), &plan)) {
    const index_t l = pick_leaf(plan);
    apply_state_bitflip(grids_[l], plan.field, plan.cell, plan.bit);
    OCTO_LOG_WARN("fault: injected state bitflip at step "
                  << step << " locality " << leaf_owner(l) << " leaf " << l
                  << " field "
                  << plan.field % static_cast<std::uint64_t>(grid::NFIELD)
                  << " bit " << plan.bit % 64);
  }
  if (inj.moment_bitflip_hook(static_cast<std::uint64_t>(step), &plan) &&
      opt_.self_gravity) {
    const index_t l = pick_leaf(plan);
    grav_->apply_moment_bitflip(l, plan.field, plan.cell, plan.bit);
    OCTO_LOG_WARN("fault: injected moment bitflip at step " << step
                                                            << " node " << l);
  }
}

sdc_snapshot step_core::sdc_take_snapshot() {
  sdc_snapshot snap;
  const auto& leaves = topo_->leaves();
  snap.nodes.assign(leaves.begin(), leaves.end());
  snap.data.reserve(leaves.size());
  for (const index_t l : leaves) snap.data.push_back(grids_[l].raw());
  snap.time = time_;
  snap.dt = dt_;
  snap.steps = steps_;
  snap.history = auditor_.save_history();
  save_step_entry();
  return snap;
}

void step_core::sdc_restore(const sdc_snapshot& snap) {
  for (std::size_t i = 0; i < snap.nodes.size(); ++i)
    grids_[snap.nodes[i]].raw() = snap.data[i];
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
    auto& rt = space_.runtime();
    std::vector<amt::future<void>> futs;
    for (const index_t l : topo_->leaves())
      futs.push_back(
          amt::async([this, l] { auditor_.audit_leaf(l, grids_[l]); }, rt));
    amt::get_all(futs, rt);
    auditor_.audit_step(measure(), dt_next, step);
  }
  sdc_seal_all();
}

}  // namespace octo::app
