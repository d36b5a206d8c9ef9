/// End-to-end SDC fault-injection matrix (the tentpole acceptance): an
/// injected conserved-state or multipole-moment bit flip is detected
/// within one step, contained by a retry from the step's RK u0 copies,
/// escalated to checkpoint rollback when it re-fires on the retry or landed
/// before the u0 copy, and the finished run is bitwise identical to an
/// uninterrupted one — in app::simulation and dist::cluster (1 and 4
/// localities), composed with regrid, locality-kill recovery and dynamic
/// rebalancing.  The whole binary is re-run under OCTO_STEP_MODE=dataflow
/// by the suite (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "apex/analyze.hpp"
#include "apex/metrics.hpp"
#include "app/simulation.hpp"
#include "common/fault.hpp"
#include "dist/checkpoint.hpp"
#include "dist/cluster.hpp"
#include "dist/recovery.hpp"
#include "scenarios/scenarios.hpp"

namespace octo {
namespace {

namespace fs = std::filesystem;

/// Cheap hydro-only scenario for the per-field matrix (no gravity solve):
/// a smooth density/pressure bump, refined one level.
scen::scenario bump_scenario() {
  scen::scenario sc;
  sc.name = "sdc_bump";
  sc.domain_half = 1;
  sc.omega = 0;
  sc.refine = [](int lvl, const rvec3&, real) { return lvl < 1; };
  const hydro::ideal_gas gas;
  sc.gas = gas;
  sc.init = [gas](grid::subgrid& u) {
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        for (int k = 0; k < 8; ++k) {
          const rvec3 x = u.cell_center(i, j, k);
          const real rho = 1 + real(0.5) * std::exp(-32 * norm2(x));
          const real eint = rho / (gas.gamma - 1);
          u.at(grid::f_rho, i, j, k) = rho;
          u.at(grid::f_sx, i, j, k) = 0;
          u.at(grid::f_sy, i, j, k) = 0;
          u.at(grid::f_sz, i, j, k) = 0;
          u.at(grid::f_egas, i, j, k) = eint;
          u.at(grid::f_tau, i, j, k) = std::pow(eint, 1 / gas.gamma);
          u.at(grid::f_spc0, i, j, k) = rho;
          u.at(grid::f_spc1, i, j, k) = 0;
        }
  };
  return sc;
}

fault::bitflip_spec flip_at(std::uint64_t step, std::uint64_t loc = 0,
                            std::uint64_t leaf = 1, std::uint64_t field = 0,
                            std::uint64_t count = 1) {
  fault::bitflip_spec s;
  s.loc = loc;
  s.step = step;
  s.leaf = leaf;
  s.field = field;
  s.count = count;
  return s;
}

struct SdcEnv : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
  std::string dir;

  void SetUp() override {
    fault::injector::instance().reset();
    // Per process: the suite runs this binary whole (under
    // OCTO_STEP_MODE=dataflow) beside the per-case runs.
    dir = testing::TempDir() + "/octo_sdc_" +
          testing::UnitTest::GetInstance()->current_test_info()->name() +
          "_" + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  void TearDown() override {
    fault::injector::instance().reset();
    fs::remove_all(dir);
  }

  static dist::dist_options cluster_opts(int nloc) {
    dist::dist_options o;
    o.num_localities = nloc;
    o.sim.max_level = 1;
    return o;
  }

  template <typename A, typename B>
  static bool bitwise_equal(const A& a, const B& b) {
    if (a.topo().num_leaves() != b.topo().num_leaves()) return false;
    for (const index_t leaf : a.topo().leaves())
      for (int f = 0; f < grid::NFIELD; ++f)
        for (int i = 0; i < 8; ++i)
          for (int j = 0; j < 8; ++j)
            for (int k = 0; k < 8; ++k)
              if (a.leaf(leaf).at(f, i, j, k) != b.leaf(leaf).at(f, i, j, k))
                return false;
    return true;
  }

  template <typename A, typename B>
  static void expect_bitwise_equal(const A& a, const B& b) {
    ASSERT_EQ(a.topo().num_leaves(), b.topo().num_leaves());
    for (const index_t leaf : a.topo().leaves()) {
      const auto& ga = a.leaf(leaf);
      const auto& gb = b.leaf(leaf);
      for (int f = 0; f < grid::NFIELD; ++f)
        for (int i = 0; i < 8; ++i)
          for (int j = 0; j < 8; ++j)
            for (int k = 0; k < 8; ++k)
              ASSERT_EQ(ga.at(f, i, j, k), gb.at(f, i, j, k))
                  << "leaf " << leaf << " field " << f << " cell (" << i
                  << ", " << j << ", " << k << ")";
    }
  }
};

/// Matrix row 1: a single bit flip in *every* conserved field is detected
/// in the very step it lands (the seal verify runs before the state is
/// next read), repaired by one retry from the u0 copies, and the run finishes
/// bitwise identical to an uninterrupted baseline.
TEST_F(SdcEnv, SimulationRepairsBitflipInEveryField) {
  const auto sc = bump_scenario();
  app::sim_options so;
  so.max_level = 1;
  so.self_gravity = false;

  app::simulation ref(sc, so);
  ref.initialize();
  const int target = 3;
  for (int s = 0; s < target; ++s) ref.step();

  for (std::uint64_t field = 0; field < grid::NFIELD; ++field) {
    fault::injector::instance().reset();
    fault::injector::instance().arm_state_bitflip(
        flip_at(/*step=*/2, /*loc=*/0, /*leaf=*/1, field));

    app::simulation sim(sc, so);
    sim.initialize();
    sim.step();
    EXPECT_EQ(sim.sdc_detections(), 0u) << "field " << field;
    sim.step();  // the armed step: flip lands, is caught, is repaired
    EXPECT_EQ(sim.sdc_detections(), 1u)
        << "field " << field << " flip not detected within its own step";
    EXPECT_EQ(sim.sdc_retries(), 1u) << "field " << field;
    sim.step();
    EXPECT_EQ(sim.sdc_rollbacks(), 0u) << "field " << field;
    EXPECT_GT(sim.sdc_audits(), 0u);
    EXPECT_EQ(fault::injector::instance().injected(), 1u);

    EXPECT_EQ(sim.time(), ref.time()) << "field " << field;
    EXPECT_EQ(sim.dt(), ref.dt()) << "field " << field;
    expect_bitwise_equal(ref, sim);
  }
}

/// Random-seeded mode: the target leaf / field / cell / bit are drawn from
/// the OCTO_FAULT_SEED stream; whatever they land on must be caught.
TEST_F(SdcEnv, SimulationRepairsRandomSeededBitflip) {
  const auto sc = bump_scenario();
  app::sim_options so;
  so.max_level = 1;
  so.self_gravity = false;

  app::simulation ref(sc, so);
  ref.initialize();
  for (int s = 0; s < 3; ++s) ref.step();

  fault::bitflip_spec spec;
  spec.random = true;
  spec.step = 2;
  fault::injector::instance().arm_state_bitflip(spec);

  app::simulation sim(sc, so);
  sim.initialize();
  for (int s = 0; s < 3; ++s) sim.step();
  EXPECT_EQ(sim.sdc_detections(), 1u);
  EXPECT_EQ(sim.sdc_retries(), 1u);
  EXPECT_EQ(sim.sdc_rollbacks(), 0u);
  expect_bitwise_equal(ref, sim);
}

/// A flipped multipole-moment coefficient (gravity solver state) is caught
/// by the moment seal and repaired the same way.
TEST_F(SdcEnv, SimulationRepairsMomentBitflip) {
  const auto sc = scen::rotating_star();
  app::sim_options so;
  so.max_level = 1;

  app::simulation ref(sc, so);
  ref.initialize();
  for (int s = 0; s < 3; ++s) ref.step();

  fault::injector::instance().arm_moment_bitflip(
      flip_at(/*step=*/2, /*loc=*/0, /*leaf=*/2, /*field=*/1));

  app::simulation sim(sc, so);
  sim.initialize();
  for (int s = 0; s < 3; ++s) sim.step();
  EXPECT_EQ(sim.sdc_detections(), 1u);
  EXPECT_EQ(sim.sdc_retries(), 1u);
  EXPECT_EQ(fault::injector::instance().injected(), 1u);
  EXPECT_EQ(sim.time(), ref.time());
  expect_bitwise_equal(ref, sim);
}

/// Negative control: with auditing off the same flip sails through
/// undetected — the defense, not luck, is what catches it above.
TEST_F(SdcEnv, AuditDisabledMissesTheFlip) {
  const auto sc = bump_scenario();
  app::sim_options so;
  so.max_level = 1;
  so.self_gravity = false;
  so.audit.enabled = false;

  app::simulation ref(sc, so);
  ref.initialize();
  for (int s = 0; s < 3; ++s) ref.step();

  fault::injector::instance().arm_state_bitflip(flip_at(2));
  app::simulation sim(sc, so);
  sim.initialize();
  for (int s = 0; s < 3; ++s) sim.step();
  EXPECT_EQ(fault::injector::instance().injected(), 1u);
  EXPECT_EQ(sim.sdc_audits(), 0u);
  EXPECT_EQ(sim.sdc_detections(), 0u);
  EXPECT_EQ(sim.sdc_retries(), 0u);
  // ... and it really propagated into the final state.
  EXPECT_FALSE(bitwise_equal(ref, sim));
}

/// A regrid rebuilds the u0 copies over the new leaves (build_layout); a
/// flip in the step after it is still repaired from them.
TEST_F(SdcEnv, SimulationRepairsBitflipAfterRegrid) {
  const auto sc = bump_scenario();
  app::sim_options so;
  so.max_level = 2;
  so.self_gravity = false;
  so.rho_refine = real(1.2);  // the bump's core: refine the level-1 leaves

  const auto run = [&](app::simulation& sim) {
    sim.initialize();
    sim.step();
    ASSERT_TRUE(sim.regrid());
    sim.step();  // the armed step
    sim.step();
  };
  app::simulation ref(sc, so);
  run(ref);

  fault::injector::instance().arm_state_bitflip(
      flip_at(/*step=*/2, /*loc=*/0, /*leaf=*/5, /*field=*/grid::f_egas));
  app::simulation sim(sc, so);
  run(sim);
  EXPECT_EQ(fault::injector::instance().injected(), 1u);
  EXPECT_EQ(sim.sdc_detections(), 1u);
  EXPECT_EQ(sim.sdc_retries(), 1u);
  EXPECT_EQ(sim.sdc_rollbacks(), 0u);
  EXPECT_EQ(sim.time(), ref.time());
  EXPECT_EQ(sim.dt(), ref.dt());
  expect_bitwise_equal(ref, sim);
}

/// A flip that lands at rest *before* the step's u0 copy is in the copy
/// too, so the retry cannot repair from it: the retry's check of the u0
/// copies against the pre-step seals escalates instead of restoring (and
/// resealing) corrupt state.
TEST_F(SdcEnv, SimulationEscalatesWhenFlipPrecedesTheU0Copy) {
  const auto sc = bump_scenario();
  app::sim_options so;
  so.max_level = 1;
  so.self_gravity = false;

  app::simulation sim(sc, so);
  sim.initialize();
  sim.step();
  app::apply_state_bitflip(sim.leaf(sim.topo().leaves()[1]), grid::f_rho,
                           /*cell=*/77, /*bit=*/40);
  EXPECT_THROW(sim.step(), app::sdc_detected);
  EXPECT_EQ(sim.sdc_detections(), 1u);
  EXPECT_EQ(sim.sdc_retries(), 1u);
  EXPECT_EQ(sim.sdc_rollbacks(), 1u);
}

/// Matrix row 2: the distributed cluster at 1 and 4 localities.  The flip
/// targets an owned leaf of a chosen locality; the containment retry must
/// leave the run bitwise identical to the uninterrupted baseline, and the
/// sdc_* counters must surface in the per-step metrics stream.
TEST_F(SdcEnv, ClusterRepairsStateBitflipAcrossLocalityCounts) {
  const auto sc = scen::rotating_star();
  for (const int nloc : {1, 4}) {
    fault::injector::instance().reset();

    dist::cluster ref(sc, cluster_opts(nloc));
    ref.initialize();
    const int target = 4;
    for (int s = 0; s < target; ++s) ref.step();

    fault::injector::instance().arm_state_bitflip(flip_at(
        /*step=*/2, /*loc=*/static_cast<std::uint64_t>(nloc - 1),
        /*leaf=*/3, /*field=*/grid::f_egas));

    apex::metrics_sink sink;
    ASSERT_TRUE(sink.open(dir + "/steps" + std::to_string(nloc) + ".jsonl"));
    dist::cluster cl(sc, cluster_opts(nloc));
    cl.initialize();
    cl.set_metrics_sink(&sink);
    for (int s = 0; s < target; ++s) cl.step();
    sink.close();

    EXPECT_EQ(cl.sdc_detections(), 1u) << nloc << " localities";
    EXPECT_EQ(cl.sdc_retries(), 1u) << nloc << " localities";
    EXPECT_EQ(cl.sdc_rollbacks(), 0u) << nloc << " localities";
    EXPECT_EQ(cl.time(), ref.time());
    EXPECT_EQ(cl.dt(), ref.dt());
    expect_bitwise_equal(ref, cl);

    std::ifstream in(dir + "/steps" + std::to_string(nloc) + ".jsonl");
    std::string line, all;
    while (std::getline(in, line)) all += line + "\n";
    EXPECT_NE(all.find("\"sdc_detected\":1"), std::string::npos) << all;
    EXPECT_NE(all.find("\"sdc_retries\":1"), std::string::npos) << all;
  }
}

/// Matrix row 3: a flip that re-fires on the retry attempt (count=2 — a
/// persistent fault the in-memory containment cannot repair) escalates to
/// the checkpoint-rollback driver, and the replayed run is still bitwise
/// identical to an uninterrupted one.
TEST_F(SdcEnv, ClusterEscalatesToCheckpointRollbackWhenRetryRefires) {
  const auto sc = scen::rotating_star();
  const int target = 4;

  dist::cluster ref(sc, cluster_opts(3));
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  fault::injector::instance().arm_state_bitflip(
      flip_at(/*step=*/2, /*loc=*/1, /*leaf=*/0, /*field=*/grid::f_rho,
              /*count=*/2));
  dist::cluster cl(sc, cluster_opts(3));
  cl.initialize();
  dist::run_options opt;
  opt.dir = dir;
  opt.every = 1;
  const auto res = dist::run_with_checkpoints(cl, target, opt);

  EXPECT_EQ(res.steps, target);
  EXPECT_EQ(res.restarts, 1);
  EXPECT_EQ(fault::injector::instance().injected(), 2u);
  EXPECT_EQ(cl.sdc_detections(), 1u);
  EXPECT_EQ(cl.sdc_retries(), 1u);
  EXPECT_EQ(cl.sdc_rollbacks(), 1u);

  EXPECT_EQ(cl.time(), ref.time());
  EXPECT_EQ(cl.steps_taken(), ref.steps_taken());
  expect_bitwise_equal(ref, cl);
}

/// Composition: an SDC retry at step 2 and a locality death at step 4 in
/// the same run — both recovery ladders fire and the survivors still land
/// on the uninterrupted trajectory.
TEST_F(SdcEnv, ContainmentComposesWithLocalityKillRecovery) {
  const auto sc = scen::rotating_star();
  const int target = 6;

  dist::cluster ref(sc, cluster_opts(3));
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  fault::injector::instance().arm_state_bitflip(
      flip_at(/*step=*/2, /*loc=*/1, /*leaf=*/1, /*field=*/grid::f_sx));
  fault::injector::instance().arm_locality_kill(1, 4);
  dist::cluster cl(sc, cluster_opts(3));
  cl.initialize();
  const auto res = dist::run_with_recovery(cl, target);

  EXPECT_EQ(res.steps, target);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(cl.sdc_retries(), 1u);
  EXPECT_FALSE(cl.locality_alive(1));
  EXPECT_EQ(cl.time(), ref.time());
  expect_bitwise_equal(ref, cl);
}

/// Composition: live leaf migration (measured-cost rebalancing) does not
/// invalidate the seals — migrated leaves keep verifying, and a flip is
/// still caught and repaired mid-rebalanced run.
TEST_F(SdcEnv, ContainmentComposesWithRebalancing) {
  const auto sc = scen::rotating_star();
  auto opts = cluster_opts(3);
  opts.lb.every = 2;
  opts.lb.min_gain = 1.0;
  const int target = 5;

  dist::cluster ref(sc, opts);
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  fault::injector::instance().arm_state_bitflip(
      flip_at(/*step=*/3, /*loc=*/0, /*leaf=*/2, /*field=*/grid::f_tau));
  dist::cluster cl(sc, opts);
  cl.initialize();
  for (int s = 0; s < target; ++s) cl.step();

  EXPECT_EQ(cl.sdc_detections(), 1u);
  EXPECT_EQ(cl.sdc_retries(), 1u);
  EXPECT_EQ(cl.time(), ref.time());
  // Ownership may differ between the two runs (wall-clock-measured costs
  // drive the migrations) but the physics must not.
  expect_bitwise_equal(ref, cl);
}

/// The analyzer surfaces the counters and gates on them: a metrics stream
/// whose final sdc_detected is nonzero is a baseline regression no matter
/// the threshold, and the report flags it loudly.
TEST_F(SdcEnv, AnalyzerFlagsDetectedCorruptionAgainstBaseline) {
  const auto sc = bump_scenario();
  app::sim_options so;
  so.max_level = 1;
  so.self_gravity = false;

  const auto run = [&](const std::string& path, bool flip) {
    fault::injector::instance().reset();
    if (flip) fault::injector::instance().arm_state_bitflip(flip_at(2));
    apex::metrics_sink sink;
    ASSERT_TRUE(sink.open(path));
    app::simulation sim(sc, so);
    sim.initialize();
    sim.set_metrics_sink(&sink);
    for (int s = 0; s < 3; ++s) sim.step();
    sink.close();
  };
  run(dir + "/base.jsonl", false);
  run(dir + "/sdc.jsonl", true);

  const auto base = apex::load_metrics_jsonl(dir + "/base.jsonl");
  const auto cur = apex::load_metrics_jsonl(dir + "/sdc.jsonl");
  ASSERT_EQ(cur.size(), 3u);
  EXPECT_EQ(cur.back().sdc_detected, 1u);
  EXPECT_EQ(cur.back().sdc_retries, 1u);
  EXPECT_GT(cur.back().sdc_audits, 0u);

  // An absurdly loose threshold cannot mask the corruption flag.
  const auto regs = apex::baseline_diff(base, cur, /*threshold_pct=*/1e9);
  ASSERT_FALSE(regs.empty());
  bool flagged = false;
  for (const auto& r : regs) flagged |= r.column == std::string("sdc_detected");
  EXPECT_TRUE(flagged);
  // ... while the clean run passes its own gate.
  EXPECT_TRUE(apex::baseline_diff(base, base, 1e9).empty());

  std::ostringstream report;
  apex::print_metrics_report(report, cur);
  EXPECT_NE(report.str().find("SILENT DATA CORRUPTION DETECTED"),
            std::string::npos)
      << report.str();
}

}  // namespace
}  // namespace octo
