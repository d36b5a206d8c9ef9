/// Measured-cost dynamic load rebalancing (the tentpole) and its bug-fix
/// sweep: the EWMA leaf cost model, static-cost seeding of the initial
/// partition, hysteresis, physics transparency of live migration (bitwise
/// on/off across locality counts and step modes, composed with recovery,
/// lossy networks and checkpoints), and the transport generation epoch
/// that keeps delayed pre-rebuild frames from colliding with a fresh link
/// generation.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "apex/cost_model.hpp"
#include "apex/metrics.hpp"
#include "app/checkpoint.hpp"
#include "app/simulation.hpp"
#include "common/fault.hpp"
#include "dist/checkpoint.hpp"
#include "dist/cluster.hpp"
#include "dist/recovery.hpp"
#include "dist/transport.hpp"
#include "scenarios/scenarios.hpp"
#include "tree/partition.hpp"

namespace octo::dist {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Leaf cost model (apex/cost_model.hpp).

TEST(LeafCostModel, InactiveModelIgnoresEverything) {
  apex::leaf_cost_model m;
  EXPECT_FALSE(m.active());
  EXPECT_EQ(m.size(), 0u);
  m.begin_step();
  m.add_ns(0, 1234);  // out of range on an empty model: ignored
  m.end_step();
  EXPECT_EQ(m.steps_observed(), 0u);
  EXPECT_TRUE(m.costs().empty());

  apex::cost_scope scope(nullptr, 0);  // null model: one branch, no effect
}

TEST(LeafCostModel, EwmaSeedsOnFirstStepThenSmooths) {
  apex::leaf_cost_model m;
  m.reset(2, 0.3);
  EXPECT_TRUE(m.active());
  EXPECT_EQ(m.size(), 2u);

  m.begin_step();
  m.add_ns(0, 10);
  m.add_ns(7, 99);  // out-of-range slot: ignored, not UB
  m.end_step();
  EXPECT_EQ(m.steps_observed(), 1u);
  EXPECT_DOUBLE_EQ(m.ewma_ns(0), 10.0);  // first observation seeds directly
  EXPECT_DOUBLE_EQ(m.ewma_ns(1), 0.0);

  m.begin_step();
  m.add_ns(0, 20);
  m.end_step();
  EXPECT_EQ(m.steps_observed(), 2u);
  EXPECT_DOUBLE_EQ(m.ewma_ns(0), 0.3 * 20 + 0.7 * 10);  // = 13

  const auto c = m.costs();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0], 13.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0)  // never 0: a zero-cost prefix glues leaves
      << "unmeasured slots must cost 1";
}

TEST(LeafCostModel, ResetDiscardsHistory) {
  apex::leaf_cost_model m;
  m.reset(1, 0.5);
  m.begin_step();
  m.add_ns(0, 100);
  m.end_step();
  ASSERT_EQ(m.steps_observed(), 1u);
  m.reset(3, 0.5);  // a regrid changed leaf-slot identity
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.steps_observed(), 0u);
  EXPECT_DOUBLE_EQ(m.ewma_ns(0), 0.0);
}

// ---------------------------------------------------------------------------
// Transport generation epoch (dist/transport.hpp): sequence state keyed by
// locality pair alone would let a delayed pre-rebuild duplicate of
// (pair, seq 0) collide with the fresh generation's first frame on the
// same pair.

struct TransportEnv : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};

  void SetUp() override { fault::injector::instance().reset(); }
  void TearDown() override { fault::injector::instance().reset(); }
};

TEST_F(TransportEnv, AdvanceEpochDropsStashedFrameAndRestartsSequencing) {
  // Reorder p=1 stashes every transit and releases the *previous* stash:
  // the lone frame of a single send stays captive, so the send times out
  // deterministically and the frame is still "in the network" afterwards.
  fault::injector::instance().arm_msg_reorder(1.0);
  transport_options opt;
  opt.ack_timeout_ms = 1;
  opt.max_retries = 0;
  transport tp(2, opt, rt);
  EXPECT_EQ(tp.epoch(), 0u);

  EXPECT_THROW(tp.send(0, 0, 1, {1},
                       [](std::vector<std::uint8_t>) {
                         FAIL() << "stashed frame was delivered";
                       }),
               transport_error);

  // The rebuild: the captive epoch-0 frame is discarded, never delivered.
  tp.advance_epoch();
  EXPECT_EQ(tp.epoch(), 1u);
  EXPECT_EQ(tp.stats().epoch_dropped, 1u);

  // The fresh generation reuses (link 0, seq 0) and must deliver cleanly.
  fault::injector::instance().reset();
  std::mutex m;
  std::vector<std::uint8_t> got;
  tp.send(0, 0, 1, {9}, [&](std::vector<std::uint8_t> p) {
    const std::lock_guard<std::mutex> lock(m);
    got.push_back(p.at(0));
  });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 9);
  const auto st = tp.stats();
  EXPECT_EQ(st.messages, 1u);
  EXPECT_EQ(st.epoch_dropped, 1u);
}

TEST_F(TransportEnv, DelayedStaleFrameDroppedNotDeliveredAcrossRebuild) {
  // The regression this PR fixes: frame (link 0, epoch 0, seq 0) delayed
  // 300 ms in flight, link generation advanced meanwhile, fresh frame
  // (link 0, epoch 1, seq 0) delivered.  Without the epoch the late
  // arrival either masquerades as the fresh frame or suppresses it as a
  // "duplicate"; with it the stale frame is dropped, unacked, uncounted as
  // a delivery.  The stale send runs on its own thread because the ack
  // wait helps the scheduler and can ride out the full transit delay.
  fault::injector::instance().arm_msg_delay_us(300000);
  transport_options opt;
  opt.ack_timeout_ms = 5;
  opt.max_retries = 0;
  transport tp(2, opt, rt);

  std::mutex m;
  std::vector<std::uint8_t> got;
  const auto record = [&](std::vector<std::uint8_t> p) {
    const std::lock_guard<std::mutex> lock(m);
    got.push_back(p.at(0));
  };

  bool stale_send_failed = false;
  std::thread stale([&] {
    try {
      tp.send(0, 0, 1, {1}, record);
    } catch (const transport_error&) {
      stale_send_failed = true;
    }
  });
  // The frame is transmitted immediately but sleeps 300 ms in its delivery
  // task; rebuild the link generation well inside that window.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tp.advance_epoch();
  EXPECT_EQ(tp.epoch(), 1u);

  fault::injector::instance().reset();
  tp.send(0, 0, 1, {2}, record);
  stale.join();
  EXPECT_TRUE(stale_send_failed)
      << "the old generation's sender must fail, not succeed against "
         "rebuilt state";

  // Wait for the stale frame's delayed delivery task to land and be
  // discarded (generous CI deadline; typically ~100 ms).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (tp.stats().epoch_dropped == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(tp.stats().epoch_dropped, 1u);

  const std::lock_guard<std::mutex> lock(m);
  ASSERT_EQ(got.size(), 1u) << "stale epoch-0 payload was delivered";
  EXPECT_EQ(got[0], 2);
}

// ---------------------------------------------------------------------------
// Cluster-level rebalancing.

struct RebalanceEnv : TransportEnv {
  std::string dir;

  void SetUp() override {
    TransportEnv::SetUp();
    dir = testing::TempDir() + "/octo_rebalance_" +
          testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  void TearDown() override {
    fs::remove_all(dir);
    TransportEnv::TearDown();
  }

  static dist_options base_opts(int nloc = 3, int level = 1) {
    dist_options o;
    o.num_localities = nloc;
    o.sim.max_level = level;
    return o;
  }

  /// Rebalancing at the given cadence with hysteresis disabled (min_gain
  /// 0 applies every candidate), so every attempt migrates/applies
  /// deterministically.
  static dist_options lb_opts(int every, int nloc = 3, int level = 1) {
    auto o = base_opts(nloc, level);
    o.lb.every = every;
    o.lb.min_gain = 0.0;
    return o;
  }

  static void expect_bitwise_equal(const cluster& a, const cluster& b) {
    ASSERT_EQ(a.topo().num_leaves(), b.topo().num_leaves());
    for (const index_t leaf : a.topo().leaves()) {
      const auto& ga = a.leaf(leaf);
      const auto& gb = b.leaf(leaf);
      for (int f = 0; f < grid::NFIELD; ++f)
        for (int i = 0; i < 8; ++i)
          for (int j = 0; j < 8; ++j)
            for (int k = 0; k < 8; ++k)
              ASSERT_EQ(ga.at(f, i, j, k), gb.at(f, i, j, k))
                  << "leaf " << leaf << " field " << f;
    }
  }

  static void expect_ledgers_close(const app::ledger& a,
                                   const app::ledger& b) {
    const auto rel = [](real x, real y) {
      const real scale = std::max(std::abs(x), std::abs(y));
      return scale == 0 ? real(0) : std::abs(x - y) / scale;
    };
    EXPECT_LE(rel(a.mass, b.mass), 1e-12);
    EXPECT_LE(rel(a.gas_energy, b.gas_energy), 1e-12);
    EXPECT_LE(rel(a.total_energy(), b.total_energy()), 1e-12);
  }
};

/// Satellite bugfix: initialize() used to partition with an *empty* cost
/// vector (pure leaf count), leaving the refined region's deep leaves
/// stacked on one locality.  The initial partition must now balance the
/// static estimate, and current_leaf_costs() must serve that same estimate
/// until a step has been measured.
TEST_F(RebalanceEnv, InitialPartitionBalancesStaticCostEstimate) {
  auto sc = scen::rotating_star();
  cluster cl(sc, base_opts(3, 2));
  cl.initialize();

  const auto costs = tree::static_leaf_costs(cl.topo());
  const auto& leaves = cl.topo().leaves();
  ASSERT_EQ(costs.size(), leaves.size());
  // Depth-weighted: cell count x (1 + refinement level), never zero.
  const real cells = real(SUBGRID_N) * SUBGRID_N * SUBGRID_N;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_GT(costs[i], 0);
    EXPECT_EQ(costs[i], cells * (1 + cl.topo().node(leaves[i]).level));
  }

  const auto want = tree::partition_sfc(cl.topo(), 3, costs);
  EXPECT_EQ(cl.partition().owner_of_node, want.owner_of_node);

  // Helper consistency: per-locality sums cover the total, and the
  // imbalance metric is >= 1 whenever a locality owns leaves.
  const auto per_loc = tree::locality_costs(cl.topo(), cl.partition(), costs);
  const real total = std::accumulate(per_loc.begin(), per_loc.end(), real(0));
  const real want_total = std::accumulate(costs.begin(), costs.end(), real(0));
  EXPECT_NEAR(total, want_total, 1e-9 * want_total);
  EXPECT_GE(tree::cost_max_over_mean(cl.topo(), cl.partition(), costs),
            real(1));

  // No measurements yet: the static estimate IS the current cost vector.
  EXPECT_EQ(cl.current_leaf_costs(), costs);
}

/// The tentpole acceptance: rebalancing is physics-transparent.  With
/// hysteresis disabled every cadence hit applies, and the evolved fields
/// still match a never-rebalancing run bit for bit, while the lb columns
/// surface in the metrics stream.
TEST_F(RebalanceEnv, AppliedRebalancesKeepPhysicsBitwiseAndSurfaceInMetrics) {
  auto sc = scen::rotating_star();
  const int target = 6;

  cluster ref(sc, base_opts());
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  apex::metrics_sink sink;
  ASSERT_TRUE(sink.open(dir + "/steps.jsonl"));
  cluster cl(sc, lb_opts(/*every=*/2));
  cl.initialize();
  cl.set_metrics_sink(&sink);
  for (int s = 0; s < target; ++s) cl.step();
  sink.close();

  EXPECT_EQ(cl.rebalance_count(), 3u);  // steps 2, 4, 6
  EXPECT_EQ(cl.rebalances_skipped(), 0u);
  EXPECT_GT(cl.cost_model().steps_observed(), 0u);

  EXPECT_EQ(cl.time(), ref.time());
  EXPECT_EQ(cl.dt(), ref.dt());
  expect_ledgers_close(ref.measure(), cl.measure());
  expect_bitwise_equal(ref, cl);

  EXPECT_EQ(cl.last_step_metrics().rebalance_count, 3u);
  EXPECT_GT(cl.last_step_metrics().max_over_mean, 0.0);
  std::ifstream in(dir + "/steps.jsonl");
  std::string line, all;
  while (std::getline(in, line)) all += line + "\n";
  EXPECT_NE(all.find("\"rebalance_count\":3"), std::string::npos) << all;
  EXPECT_NE(all.find("\"max_over_mean\":"), std::string::npos);
}

/// Hysteresis: an astronomically high min_gain means every candidate is
/// evaluated and skipped — no migrations, counters say why.
TEST_F(RebalanceEnv, HysteresisSkipsLowGainCandidates) {
  auto sc = scen::rotating_star();
  auto opts = base_opts();
  opts.lb.every = 2;
  opts.lb.min_gain = 1e9;
  cluster cl(sc, opts);
  cl.initialize();
  for (int s = 0; s < 4; ++s) cl.step();
  EXPECT_EQ(cl.rebalance_count(), 0u);
  EXPECT_EQ(cl.rebalances_skipped(), 2u);  // steps 2 and 4: tried, skipped
}

/// maybe_rebalance without measurements (lb fully off) is a no-op, not an
/// error — the manual hook is safe to call unconditionally.
TEST_F(RebalanceEnv, NoMeasurementsMeansNoRebalance) {
  auto sc = scen::rotating_star();
  cluster cl(sc, base_opts());
  cl.initialize();
  cl.step();
  EXPECT_FALSE(cl.maybe_rebalance());
  EXPECT_EQ(cl.rebalance_count(), 0u);
}

/// The ISSUE's bitwise grid: {1, 4} localities x {barrier, dataflow} step
/// modes, rebalancing every step vs. never — identical fields throughout.
TEST_F(RebalanceEnv, BitwiseAcrossLocalityCountsAndStepModes) {
  auto sc = scen::rotating_star();
  const int target = 3;
  for (const int nloc : {1, 4}) {
    for (const auto mode :
         {app::step_mode::barrier, app::step_mode::dataflow}) {
      SCOPED_TRACE(testing::Message()
                   << "nloc=" << nloc << " mode="
                   << (mode == app::step_mode::barrier ? "barrier"
                                                       : "dataflow"));
      auto off = base_opts(nloc, 1);
      off.sim.mode = mode;
      auto on = lb_opts(/*every=*/1, nloc, 1);
      on.sim.mode = mode;

      cluster a(sc, off);
      a.initialize();
      cluster b(sc, on);
      b.initialize();
      for (int s = 0; s < target; ++s) {
        a.step();
        b.step();
      }
      EXPECT_EQ(b.rebalance_count(), static_cast<std::uint64_t>(target));
      EXPECT_EQ(a.time(), b.time());
      EXPECT_EQ(a.dt(), b.dt());
      expect_bitwise_equal(a, b);
    }
  }
}

/// Composition with live recovery: a locality dies mid-run, recovery
/// shrinks the partition (now threading measured costs through
/// partition_shrink), and later rebalances keep re-splitting over the
/// survivors — physics still matches the uninterrupted, never-rebalanced
/// reference bitwise.
TEST_F(RebalanceEnv, ComposesWithLocalityFailureRecovery) {
  auto sc = scen::rotating_star();
  const int target = 6;

  cluster ref(sc, base_opts());
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  fault::injector::instance().arm_locality_kill(1, 3);
  cluster cl(sc, lb_opts(/*every=*/2));
  cl.initialize();
  const auto res = run_with_recovery(cl, target);

  EXPECT_EQ(res.steps, target);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(cl.live_localities(), 2);
  EXPECT_EQ(cl.rebalance_count(), 3u);  // steps 2, 4, 6 (4 and 6 shrunk)
  // Post-kill rebalances must never hand a leaf back to the dead locality.
  for (const index_t leaf : cl.topo().leaves())
    EXPECT_NE(cl.partition().owner(leaf), 1);

  EXPECT_EQ(cl.time(), ref.time());
  expect_ledgers_close(ref.measure(), cl.measure());
  expect_bitwise_equal(ref, cl);
}

/// Composition with an actively lossy network: migration payloads ride
/// the same reliable transport as the ghost slabs, and each rebalance's
/// link renumbering opens a new transport epoch while delayed/duplicated
/// frames are still in flight; the run stays bitwise identical to a clean
/// reference.
TEST_F(RebalanceEnv, ComposesWithLossyNetworkAndEpochRebuilds) {
  auto sc = scen::rotating_star();
  auto base = base_opts(3, 1);
  base.local_optimization = false;  // every slab serialized -> transported
  base.transport.ack_timeout_ms = 2;
  base.transport.max_retries = 30;
  const int target = 3;

  cluster ref(sc, base);
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  auto& inj = fault::injector::instance();
  inj.arm_msg_drop(0.1);
  inj.arm_msg_delay_us(500);
  inj.arm_msg_dup(0.1);
  inj.arm_msg_reorder(0.1);
  auto opts = base;
  opts.lb.every = 1;
  opts.lb.min_gain = 0.0;
  cluster cl(sc, opts);
  cl.initialize();
  for (int s = 0; s < target; ++s) cl.step();
  inj.reset();

  EXPECT_EQ(cl.rebalance_count(), static_cast<std::uint64_t>(target));
  EXPECT_EQ(cl.time(), ref.time());
  expect_bitwise_equal(ref, cl);
  const auto st = cl.transport_statistics();
  EXPECT_GT(st.retries + st.dups_dropped + st.epoch_dropped, 0u)
      << "faults armed but the transport never saw one";
}

/// Composition with checkpoint/restart: checkpoint a rebalancing run
/// mid-flight, restore into a fresh cluster, continue both — identical.
/// (The migration payload *is* the checkpoint leaf record, so this also
/// covers the serializer reuse end to end.)
TEST_F(RebalanceEnv, ComposesWithCheckpointRestore) {
  auto sc = scen::rotating_star();
  const auto opts = lb_opts(/*every=*/2);
  const std::string path = dir + "/ckpt_000004.bin";

  cluster a(sc, opts);
  a.initialize();
  for (int s = 0; s < 4; ++s) a.step();
  write_checkpoint(a, path);
  for (int s = 0; s < 2; ++s) a.step();

  cluster b(sc, opts);
  b.initialize();
  restore_checkpoint(b, app::read_checkpoint(path));
  EXPECT_EQ(b.steps_taken(), 4);
  for (int s = 0; s < 2; ++s) b.step();

  EXPECT_EQ(a.time(), b.time());
  EXPECT_EQ(a.dt(), b.dt());
  expect_bitwise_equal(a, b);
}

// ---------------------------------------------------------------------------
// Single-locality cost measurement (app::simulation).

TEST(SimulationCosts, MeasuresPerLeafCostsAndResetsOnRegrid) {
  amt::runtime rt(3);
  amt::scoped_global_runtime guard(rt);
  auto sc = scen::rotating_star();

  app::sim_options off;
  off.max_level = 1;
  app::simulation plain(sc, off);
  plain.initialize();
  EXPECT_FALSE(plain.cost_model().active()) << "measurement must be opt-in";

  app::sim_options opt;
  opt.max_level = 1;
  opt.measure_leaf_costs = true;
  app::simulation sim(sc, opt);
  sim.initialize();
  ASSERT_TRUE(sim.cost_model().active());
  EXPECT_EQ(sim.cost_model().size(),
            static_cast<std::size_t>(sim.num_leaves()));
  EXPECT_EQ(sim.cost_model().steps_observed(), 0u);

  sim.step();
  EXPECT_EQ(sim.cost_model().steps_observed(), 1u);
  const auto costs = sim.cost_model().costs();
  ASSERT_EQ(costs.size(), static_cast<std::size_t>(sim.num_leaves()));
  EXPECT_GT(*std::max_element(costs.begin(), costs.end()), real(1))
      << "a full hydro step measured no per-leaf time";

  // Leaf slots change identity across a regrid; when the topology actually
  // changes the measured history must be discarded, not re-attributed.
  const bool changed = sim.regrid();
  EXPECT_EQ(sim.cost_model().steps_observed(), changed ? 0u : 1u);
  EXPECT_EQ(sim.cost_model().size(),
            static_cast<std::size_t>(sim.num_leaves()));
}

}  // namespace
}  // namespace octo::dist
