#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <unistd.h>

#include "apex/race_audit.hpp"
#include "app/simulation.hpp"
#include "common/fault.hpp"
#include "dist/cluster.hpp"
#include "dist/serialize.hpp"

namespace octo::dist {
namespace {

TEST(Serialize, PodRoundTrip) {
  oarchive oa;
  oa.put(42);
  oa.put(3.5);
  oa.put(std::int64_t{-7});
  iarchive ia(oa.take());
  EXPECT_EQ(ia.get<int>(), 42);
  EXPECT_DOUBLE_EQ(ia.get<double>(), 3.5);
  EXPECT_EQ(ia.get<std::int64_t>(), -7);
  EXPECT_TRUE(ia.exhausted());
}

TEST(Serialize, VectorRoundTrip) {
  oarchive oa;
  std::vector<double> v{1.5, 2.5, -3.0};
  oa.put_vector(v);
  iarchive ia(oa.take());
  EXPECT_EQ(ia.get_vector<double>(), v);
}

TEST(Serialize, UnderrunThrows) {
  oarchive oa;
  oa.put(1);
  iarchive ia(oa.take());
  ia.get<int>();
  EXPECT_THROW(ia.get<double>(), error);
}

struct ClusterEnv : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};

  app::sim_options base_opts() {
    app::sim_options o;
    o.max_level = 2;
    o.self_gravity = true;
    return o;
  }
};

/// A multi-locality run must be bitwise identical to the single-process
/// simulation — distribution is an implementation detail.
class ClusterEquivalence : public testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
};

TEST_P(ClusterEquivalence, BitwiseMatchesSingleProcess) {
  const auto [nloc, optim] = GetParam();
  auto sc = scen::rotating_star();
  app::sim_options so;
  so.max_level = 2;

  app::simulation ref(sc, so);
  ref.initialize();
  ref.step();

  dist_options dopt;
  dopt.num_localities = nloc;
  dopt.local_optimization = optim;
  dopt.sim = so;
  cluster cl(sc, dopt);
  cl.initialize();
  cl.step();

  for (const index_t leaf : ref.topo().leaves()) {
    const auto& a = ref.leaf(leaf);
    const auto& b = cl.leaf(leaf);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
          for (int k = 0; k < 8; ++k)
            ASSERT_EQ(a.at(f, i, j, k), b.at(f, i, j, k))
                << "nloc=" << nloc << " optim=" << optim;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LocalitiesAndOpt, ClusterEquivalence,
    testing::Combine(testing::Values(1, 2, 4, 7),
                     testing::Bool()));

TEST_F(ClusterEnv, OptimizationStatsDirectVsSerialized) {
  auto sc = scen::rotating_star();
  dist_options on, off;
  on.num_localities = off.num_localities = 4;
  on.local_optimization = true;
  off.local_optimization = false;
  on.sim = off.sim = base_opts();

  cluster c_on(sc, on), c_off(sc, off);
  c_on.initialize();
  c_off.initialize();
  c_on.step();
  c_off.step();

  const auto s_on = c_on.stats();
  const auto s_off = c_off.stats();
  // with the optimization every same-locality slab is a direct copy
  EXPECT_GT(s_on.local_direct, 0u);
  EXPECT_EQ(s_on.local_serialized, 0u);
  // without it nothing is direct
  EXPECT_EQ(s_off.local_direct, 0u);
  EXPECT_GT(s_off.local_serialized, 0u);
  // same total exchanges, fewer serialized bytes with the optimization
  EXPECT_EQ(s_on.total_slabs(), s_off.total_slabs());
  EXPECT_LT(s_on.bytes_serialized, s_off.bytes_serialized);
  // remote traffic identical
  EXPECT_EQ(s_on.remote_messages, s_off.remote_messages);
}

/// A step moves one slab per RK stage for every (leaf, face) pair with a
/// leaf neighbor: faces only, no edge or corner links.
TEST_F(ClusterEnv, OneStepMovesOneSlabPerStageAndLeafFacePair) {
  auto sc = scen::rotating_star();
  dist_options o;
  o.num_localities = 4;
  o.sim = base_opts();
  cluster cl(sc, o);
  cl.initialize();
  const auto& topo = cl.topo();
  std::uint64_t pairs = 0;
  for (const index_t l : topo.leaves())
    for (int d = 0; d < NFACE; ++d) {
      const index_t nb = topo.neighbor(l, d);
      if (nb != tree::invalid_node && topo.node(nb).leaf) ++pairs;
    }
  ASSERT_GT(pairs, 0u);
  const std::uint64_t before = cl.stats().total_slabs();
  cl.step();
  EXPECT_EQ(cl.stats().total_slabs() - before, 3 * pairs);
}

TEST_F(ClusterEnv, SingleLocalityHasNoRemoteTraffic) {
  auto sc = scen::rotating_star();
  dist_options o;
  o.num_localities = 1;
  o.sim = base_opts();
  cluster cl(sc, o);
  cl.initialize();
  cl.step();
  EXPECT_EQ(cl.stats().remote_messages, 0u);
  EXPECT_GT(cl.stats().local_direct, 0u);
}

TEST_F(ClusterEnv, RepeatedStepsNoDeadlock) {
  // A stage mixes same-locality copy tasks with send/unpack links whose
  // arrivals resolve asynchronously; it must never deadlock.  Run several
  // steps across uneven localities to exercise racy orderings.
  auto sc = scen::rotating_star();
  dist_options o;
  o.num_localities = 5;
  o.sim = base_opts();
  o.sim.max_level = 1;
  cluster cl(sc, o);
  cl.initialize();
  for (int s = 0; s < 5; ++s) cl.step();
  EXPECT_EQ(cl.steps_taken(), 5);
  const auto lg = cl.measure();
  EXPECT_TRUE(std::isfinite(lg.mass));
}

/// The step graph \p core records for one step (its options must set
/// audit_races; the race audit dumps the graph).
apex::owned_graph recorded_step(app::step_core& core) {
  // Per process: the suite runs this binary whole (under
  // OCTO_STEP_MODE=dataflow) beside the per-case runs.
  const std::string dump = testing::TempDir() + "/octo_cluster_dag_" +
                           std::to_string(::getpid()) + ".json";
  ::setenv("OCTO_RACE_AUDIT_DUMP", dump.c_str(), 1);
  core.step();
  ::unsetenv("OCTO_RACE_AUDIT_DUMP");
  std::ifstream in(dump);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(dump.c_str());
  return apex::load_graph_json(text.str());
}

/// Tasks per kernel class in the step graph \p core records for one step.
std::map<std::string, int> step_task_classes(app::step_core& core) {
  std::map<std::string, int> classes;
  for (const auto& n : recorded_step(core).graph.nodes) ++classes[n.cls];
  return classes;
}

/// With the §VII-B optimization on one locality no face is linked: the
/// copy task fills every leaf face, and the cluster's step graph is the
/// single-locality simulation's, task for task.
TEST_F(ClusterEnv, SingleLocalityStepGraphIsTheSimulations) {
  auto sc = scen::rotating_star();
  app::sim_options so = base_opts();
  so.audit_races = true;
  app::simulation ref(sc, so);
  ref.initialize();
  const auto want = step_task_classes(ref);

  dist_options o;
  o.num_localities = 1;
  o.local_optimization = true;
  o.sim = so;
  cluster cl(sc, o);
  cl.initialize();
  const auto got = step_task_classes(cl);
  EXPECT_EQ(got.count("dist.exchange.send"), 0u);
  EXPECT_EQ(got.count("dist.exchange.unpack"), 0u);
  EXPECT_EQ(got, want);
  EXPECT_GT(cl.stats().local_direct, 0u);
}

/// On 4 localities a stage has one unpack per linked face (the serialized
/// slabs) and one send per leaf with a linked face, with the optimization
/// on and off.
TEST_F(ClusterEnv, LinkTasksMatchTheLinkedFaces) {
  auto sc = scen::rotating_star();
  for (const bool optim : {true, false}) {
    dist_options o;
    o.num_localities = 4;
    o.local_optimization = optim;
    o.sim = base_opts();
    o.sim.audit_races = true;
    cluster cl(sc, o);
    cl.initialize();
    const auto& topo = cl.topo();
    const auto& part = cl.partition();
    int senders = 0;
    for (const index_t l : topo.leaves()) {
      bool sends = false;
      for (int d = 0; d < NFACE; ++d) {
        const index_t nb = topo.neighbor(l, d);
        if (nb != tree::invalid_node && topo.node(nb).leaf &&
            (!optim || part.owner(l) != part.owner(nb)))
          sends = true;
      }
      senders += sends;
    }
    const exchange_stats before = cl.stats();
    const auto classes = step_task_classes(cl);
    const std::uint64_t serialized =
        cl.stats().remote_messages - before.remote_messages +
        cl.stats().local_serialized - before.local_serialized;
    ASSERT_GT(serialized, 0u) << "optim=" << optim;
    EXPECT_EQ(static_cast<std::uint64_t>(classes.at("dist.exchange.unpack")),
              serialized)
        << "optim=" << optim;
    EXPECT_EQ(classes.at("dist.exchange.send"), 3 * senders)
        << "optim=" << optim;
  }
}

/// Link ids are dense over the linked faces: the message slots a step's
/// send and unpack tasks declare are exactly {0, ..., L-1}, L the unpacks
/// per stage, with the optimization on and off.
TEST_F(ClusterEnv, LinkSlotsAreDenseOverTheLinkedFaces) {
  auto sc = scen::rotating_star();
  for (const bool optim : {true, false}) {
    dist_options o;
    o.num_localities = 4;
    o.local_optimization = optim;
    o.sim = base_opts();
    o.sim.audit_races = true;
    cluster cl(sc, o);
    cl.initialize();
    std::set<std::int64_t> slots;
    int unpacks = 0;
    for (const auto& n : recorded_step(cl).graph.nodes) {
      unpacks += std::string(n.cls) == "dist.exchange.unpack";
      for (const auto& a : n.footprint)
        if (a.region == apex::rgn::slot) slots.insert(a.node);
    }
    ASSERT_EQ(unpacks % 3, 0) << "optim=" << optim;
    const int per_stage = unpacks / 3;
    ASSERT_GT(per_stage, 0) << "optim=" << optim;
    std::set<std::int64_t> dense;
    for (int k = 0; k < per_stage; ++k) dense.insert(k);
    EXPECT_EQ(slots, dense) << "optim=" << optim;
  }
}

/// Each unpack is ordered after the same stage's send of the leaf across
/// its face by a recorded edge: in dataflow mode a direct one, derived
/// from the slot the send writes and the unpack reads; in barrier mode
/// through the join that closes the sends' phase.
TEST_F(ClusterEnv, EveryUnpackWaitsOnItsSendInTheRecordedGraph) {
  auto sc = scen::rotating_star();
  for (const auto mode : {app::step_mode::dataflow, app::step_mode::barrier}) {
    const bool barrier = mode == app::step_mode::barrier;
    dist_options o;
    o.num_localities = 4;
    o.sim = base_opts();
    o.sim.mode = mode;
    o.sim.audit_races = true;
    cluster cl(sc, o);
    cl.initialize();
    const auto& topo = cl.topo();
    const auto rec = recorded_step(cl);
    const auto& nodes = rec.graph.nodes;
    // The latest send of each leaf so far in build order (leaf -> node id):
    // a send reads its own leaf's cells.
    std::map<std::int32_t, std::uint32_t> send_of;
    const auto has_dep = [&](const apex::dag_node& n, std::uint32_t id) {
      return std::find(n.deps.begin(), n.deps.end(), id) != n.deps.end();
    };
    int unpacks = 0;
    for (const auto& n : nodes) {
      const std::string cls = n.cls;
      if (cls == "dist.exchange.send") {
        for (const auto& a : n.footprint)
          if (a.region == apex::rgn::field && !a.write) send_of[a.node] = n.id;
        continue;
      }
      if (cls != "dist.exchange.unpack") continue;
      ++unpacks;
      const apex::mem_access* face = nullptr;
      for (const auto& a : n.footprint)
        if (a.region == apex::rgn::ghost && a.write) face = &a;
      ASSERT_NE(face, nullptr) << "unpack " << n.id;
      const index_t nb = topo.neighbor(face->node, face->part);
      ASSERT_EQ(send_of.count(nb), 1u) << "unpack " << n.id;
      const std::uint32_t send = send_of.at(nb);
      if (!barrier) {
        EXPECT_TRUE(has_dep(n, send))
            << "dataflow unpack " << n.id << " of leaf " << face->node
            << " face " << face->part << " does not wait on send " << send;
        continue;
      }
      ASSERT_EQ(n.deps.size(), 1u) << "barrier unpack " << n.id;
      const auto& join = nodes.at(n.deps.front());
      EXPECT_STREQ(join.cls, "join") << "barrier unpack " << n.id;
      EXPECT_TRUE(has_dep(join, send))
          << "barrier unpack " << n.id << ": its join " << join.id
          << " does not close send " << send;
    }
    EXPECT_GT(unpacks, 0) << "barrier=" << barrier;
  }
}

TEST_F(ClusterEnv, MassConservedAcrossLocalities) {
  auto sc = scen::rotating_star();
  dist_options o;
  o.num_localities = 3;
  o.sim = base_opts();
  cluster cl(sc, o);
  cl.initialize();
  const auto l0 = cl.measure();
  cl.step();
  const auto l1 = cl.measure();
  EXPECT_LT(std::abs(l1.mass - l0.mass) / l0.mass, 1e-13);
}

/// Re-initialize() restarts the cluster from scratch: the clock, the step
/// count and the SDC counters start over, and the next step matches a
/// fresh cluster.
TEST_F(ClusterEnv, ReinitializeResetsClockStepsAndSdcCounters) {
  auto sc = scen::rotating_star();
  dist_options o;
  o.num_localities = 2;
  o.sim = base_opts();
  o.sim.max_level = 1;
  o.sim.audit.enabled = true;
  fault::bitflip_spec flip;
  flip.step = 2;
  fault::injector::instance().reset();
  fault::injector::instance().arm_state_bitflip(flip);

  cluster cl(sc, o);
  cl.initialize();
  cl.step();
  cl.step();
  fault::injector::instance().reset();
  ASSERT_EQ(cl.sdc_detections(), 1u);
  ASSERT_EQ(cl.sdc_retries(), 1u);
  ASSERT_GT(cl.time(), 0);

  cl.initialize();
  EXPECT_EQ(cl.time(), 0);
  EXPECT_EQ(cl.steps_taken(), 0);
  EXPECT_EQ(cl.sdc_audits(), 0u);
  EXPECT_EQ(cl.sdc_detections(), 0u);
  EXPECT_EQ(cl.sdc_retries(), 0u);
  EXPECT_EQ(cl.sdc_rollbacks(), 0u);

  cluster fresh(sc, o);
  fresh.initialize();
  EXPECT_EQ(cl.step(), fresh.step());
  EXPECT_EQ(cl.time(), fresh.time());
  EXPECT_EQ(cl.last_step_metrics().step, 1);
}

}  // namespace
}  // namespace octo::dist
