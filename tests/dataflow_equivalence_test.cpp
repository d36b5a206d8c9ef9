/// Acceptance harness for the dependency-driven step (ISSUE: dataflow
/// refactor): OCTO_STEP_MODE=dataflow must be a bitwise drop-in for the
/// barriered pipeline.  Ten steps of the binary-SCF scenario, single
/// process and distributed (1 and 4 localities), plus one lossy-network
/// run — every leaf cell, every field, exactly equal.

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "app/simulation.hpp"
#include "common/fault.hpp"
#include "dist/cluster.hpp"
#include "scenarios/scenarios.hpp"

namespace octo {
namespace {

constexpr int kSteps = 10;

/// One shared binary-SCF scenario: copies share the lazily-run SCF
/// backend, so the relaxation runs once for the whole suite.
scen::scenario& binary_scenario() {
  static scen::scenario sc = scen::dwd();
  return sc;
}

app::sim_options sim_opts(app::step_mode mode) {
  app::sim_options o;
  o.max_level = 2;
  o.mode = mode;
  return o;
}

template <typename A, typename B>
void expect_bitwise_equal(A& a, B& b) {
  ASSERT_EQ(a.topo().num_leaves(), b.topo().num_leaves());
  for (const index_t leaf : a.topo().leaves()) {
    const auto& ga = a.leaf(leaf);
    const auto& gb = b.leaf(leaf);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
          for (int k = 0; k < 8; ++k)
            ASSERT_EQ(ga.at(f, i, j, k), gb.at(f, i, j, k))
                << "leaf " << leaf << " field " << f << " cell (" << i << ","
                << j << "," << k << ")";
  }
}

struct DataflowEquivalence : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
  void SetUp() override { fault::injector::instance().reset(); }
  void TearDown() override { fault::injector::instance().reset(); }
};

TEST_F(DataflowEquivalence, SingleProcessTenStepsBitwise) {
  auto& sc = binary_scenario();
  app::simulation ref(sc, sim_opts(app::step_mode::barrier));
  app::simulation df(sc, sim_opts(app::step_mode::dataflow));
  ref.initialize();
  df.initialize();
  for (int s = 0; s < kSteps; ++s) {
    ref.step();
    df.step();
    ASSERT_EQ(df.time(), ref.time()) << "step " << s;
  }
  expect_bitwise_equal(ref, df);
}

class DataflowClusterEquivalence : public testing::TestWithParam<int> {
 protected:
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
  void SetUp() override { fault::injector::instance().reset(); }
  void TearDown() override { fault::injector::instance().reset(); }
};

TEST_P(DataflowClusterEquivalence, TenStepsBitwise) {
  const int nloc = GetParam();
  auto& sc = binary_scenario();

  dist::dist_options bo;
  bo.num_localities = nloc;
  bo.sim = sim_opts(app::step_mode::barrier);
  dist::cluster ref(sc, bo);
  ref.initialize();

  dist::dist_options go = bo;
  go.sim.mode = app::step_mode::dataflow;
  dist::cluster df(sc, go);
  df.initialize();

  for (int s = 0; s < kSteps; ++s) {
    ref.step();
    df.step();
    ASSERT_EQ(df.time(), ref.time()) << "nloc=" << nloc << " step " << s;
    ASSERT_EQ(df.dt(), ref.dt()) << "nloc=" << nloc << " step " << s;
  }
  expect_bitwise_equal(ref, df);
  // Same ghost traffic, stage for stage.
  EXPECT_EQ(df.stats().total_slabs(), ref.stats().total_slabs());
}

INSTANTIATE_TEST_SUITE_P(Localities, DataflowClusterEquivalence,
                         testing::Values(1, 4));

/// The rotating star at max_level 3 is an AMR tree: its refinement
/// boundaries add prolongation tasks whose coarse hosts receive faces
/// through the cluster's link tasks.  Barrier and dataflow runs must agree
/// bitwise there too, on one process and on a 4-locality cluster.
TEST_F(DataflowEquivalence, AmrTreeBarrierVsDataflowBitwise) {
  constexpr int kAmrSteps = 3;
  auto sc = scen::rotating_star();
  app::sim_options bo = sim_opts(app::step_mode::barrier);
  bo.max_level = 3;
  app::sim_options go = bo;
  go.mode = app::step_mode::dataflow;

  app::simulation ref(sc, bo);
  app::simulation df(sc, go);
  ref.initialize();
  df.initialize();
  std::set<int> leaf_levels;
  for (const index_t l : ref.topo().leaves())
    leaf_levels.insert(ref.topo().node(l).level);
  ASSERT_GT(leaf_levels.size(), 1u) << "tree has no refinement boundary";
  for (int s = 0; s < kAmrSteps; ++s) {
    ref.step();
    df.step();
    ASSERT_EQ(df.dt(), ref.dt()) << "step " << s;
  }
  expect_bitwise_equal(ref, df);

  dist::dist_options cbo;
  cbo.num_localities = 4;
  cbo.sim = bo;
  dist::cluster cref(sc, cbo);
  dist::dist_options cgo = cbo;
  cgo.sim = go;
  dist::cluster cdf(sc, cgo);
  cref.initialize();
  cdf.initialize();
  for (int s = 0; s < kAmrSteps; ++s) {
    cref.step();
    cdf.step();
    ASSERT_EQ(cdf.dt(), cref.dt()) << "step " << s;
  }
  expect_bitwise_equal(cref, cdf);
  expect_bitwise_equal(ref, cdf);
  EXPECT_EQ(cdf.stats().total_slabs(), cref.stats().total_slabs());
}

/// Quiet NaN into the 20 edge and corner ghost regions of every leaf of
/// \p d (directions NFACE..NNEIGHBOR-1).
template <typename Driver>
void poison_edges_and_corners(Driver& d) {
  const real nan = std::numeric_limits<real>::quiet_NaN();
  for (const index_t l : d.topo().leaves()) {
    grid::subgrid& u = d.leaf(l);
    for (int dir = NFACE; dir < NNEIGHBOR; ++dir) {
      const ivec3 v = tree::directions()[dir];
      int lo[3], hi[3];
      for (int a = 0; a < 3; ++a)
        grid::subgrid::ghost_range(static_cast<int>(v[a]), lo[a], hi[a]);
      for (int f = 0; f < grid::NFIELD; ++f)
        for (int i = lo[0]; i < hi[0]; ++i)
          for (int j = lo[1]; j < hi[1]; ++j)
            for (int k = lo[2]; k < hi[2]; ++k) u.at(f, i, j, k) = nan;
    }
  }
}

/// The step exchanges only the six face ghosts, so no task may read an edge
/// or corner ghost.  Poisoned with NaN before every step, they must leave
/// the owned state bitwise equal to an unpoisoned run and trip no SDC
/// detector — in barrier and dataflow mode on the level-3 AMR star (with
/// prolongation) and on a 4-locality dataflow cluster.
TEST_F(DataflowEquivalence, EdgeAndCornerGhostsAreNeverRead) {
  constexpr int kGuardSteps = 3;
  auto sc = scen::rotating_star();
  app::sim_options bo = sim_opts(app::step_mode::barrier);
  bo.max_level = 3;
  app::sim_options go = bo;
  go.mode = app::step_mode::dataflow;

  app::simulation ref(sc, bo);
  ref.initialize();
  for (int s = 0; s < kGuardSteps; ++s) ref.step();

  const auto run_poisoned = [&](auto& d, const char* what) {
    d.initialize();
    for (int s = 0; s < kGuardSteps; ++s) {
      poison_edges_and_corners(d);
      d.step();
    }
    SCOPED_TRACE(what);
    EXPECT_EQ(d.dt(), ref.dt());
    EXPECT_EQ(d.sdc_detections(), 0u);
    expect_bitwise_equal(ref, d);
  };
  app::simulation barrier(sc, bo);
  run_poisoned(barrier, "barrier");
  app::simulation dataflow(sc, go);
  run_poisoned(dataflow, "dataflow");
  dist::dist_options co;
  co.num_localities = 4;
  co.sim = go;
  dist::cluster cl(sc, co);
  run_poisoned(cl, "4-locality dataflow cluster");
}

/// The graph's arrival edges ride the reliable transport: with every slab
/// serialized and the network dropping frames, the dataflow run must still
/// match the fault-free barrier run bitwise.
TEST_F(DataflowEquivalence, LossyNetworkTenStepsBitwise) {
  auto& sc = binary_scenario();

  dist::dist_options o;
  o.num_localities = 4;
  o.local_optimization = false;  // every slab takes the serialized path
  o.transport.ack_timeout_ms = 2;
  o.transport.max_retries = 30;
  o.sim = sim_opts(app::step_mode::barrier);

  dist::cluster ref(sc, o);
  ref.initialize();
  for (int s = 0; s < kSteps; ++s) ref.step();

  fault::injector::instance().arm_msg_drop(0.2);
  dist::dist_options lo = o;
  lo.sim.mode = app::step_mode::dataflow;
  dist::cluster df(sc, lo);
  df.initialize();
  for (int s = 0; s < kSteps; ++s) df.step();
  fault::injector::instance().reset();

  EXPECT_EQ(df.time(), ref.time());
  expect_bitwise_equal(ref, df);
  const auto st = df.transport_statistics();
  EXPECT_GT(st.retries, 0u) << "p=0.2 drop over ten steps never retried?";
}

}  // namespace
}  // namespace octo
