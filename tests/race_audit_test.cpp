#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "amt/runtime.hpp"
#include "apex/race_audit.hpp"
#include "app/simulation.hpp"
#include "common/error.hpp"
#include "scenarios/scenarios.hpp"

namespace octo::apex {
namespace {

dag_node make_node(const char* cls, std::uint32_t id,
                   std::vector<std::uint32_t> deps,
                   std::vector<mem_access> fp) {
  dag_node n;
  n.cls = cls;
  n.id = id;
  n.deps = std::move(deps);
  n.footprint = std::move(fp);
  return n;
}

mem_access rd(rgn r, std::int32_t node, std::int32_t part = any_part) {
  return mem_access{r, false, node, part};
}
mem_access wr(rgn r, std::int32_t node, std::int32_t part = any_part) {
  return mem_access{r, true, node, part};
}

TEST(RaceAudit, OrderedConflictIsClean) {
  graph_profile g;
  g.nodes.push_back(make_node("write", 0, {}, {wr(rgn::field, 7)}));
  g.nodes.push_back(make_node("read", 1, {0}, {rd(rgn::field, 7)}));
  const auto res = audit_races(g);
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_EQ(res.tasks, 2u);
  EXPECT_EQ(res.tasks_with_footprint, 2u);
  EXPECT_EQ(res.accesses, 2u);
  EXPECT_EQ(res.pairs_checked, 1u);
}

TEST(RaceAudit, UnorderedWriteReadIsFlaggedWithBothTasksAndRegion) {
  graph_profile g;
  g.nodes.push_back(make_node("producer", 0, {}, {wr(rgn::moment, 3)}));
  g.nodes.push_back(make_node("consumer", 1, {}, {rd(rgn::moment, 3)}));
  const auto res = audit_races(g);
  ASSERT_EQ(res.conflicts.size(), 1u);
  const auto& c = res.conflicts[0];
  EXPECT_EQ(c.first_cls, "producer");
  EXPECT_EQ(c.second_cls, "consumer");
  const std::string line = c.describe();
  EXPECT_NE(line.find("producer#0"), std::string::npos) << line;
  EXPECT_NE(line.find("consumer#1"), std::string::npos) << line;
  EXPECT_NE(line.find("moment(node 3)"), std::string::npos) << line;
  EXPECT_NE(line.find("missing edge producer#0 -> consumer#1"),
            std::string::npos)
      << line;
}

TEST(RaceAudit, ReadReadNeverConflicts) {
  graph_profile g;
  g.nodes.push_back(make_node("a", 0, {}, {rd(rgn::field, 1)}));
  g.nodes.push_back(make_node("b", 1, {}, {rd(rgn::field, 1)}));
  const auto res = audit_races(g);
  EXPECT_TRUE(res.clean());
  EXPECT_EQ(res.pairs_checked, 0u);
}

TEST(RaceAudit, DisjointPartsDoNotConflictButAnyPartDoes) {
  graph_profile g;
  g.nodes.push_back(make_node("w0", 0, {}, {wr(rgn::expansion, 5, 0)}));
  g.nodes.push_back(make_node("w1", 1, {}, {wr(rgn::expansion, 5, 1)}));
  EXPECT_TRUE(audit_races(g).clean());
  g.nodes.push_back(make_node("wall", 2, {}, {wr(rgn::expansion, 5)}));
  const auto res = audit_races(g);
  EXPECT_EQ(res.conflicts.size(), 2u);  // wall vs w0 and wall vs w1
}

TEST(RaceAudit, TransitiveOrderingThroughJoinNodeCounts) {
  // w -> join -> r: no direct edge, but the path orders the pair (this is
  // how a barrier graph's phase joins appear in recorded graphs).
  graph_profile g;
  g.nodes.push_back(make_node("w", 0, {}, {wr(rgn::ghost, 2, 4)}));
  g.nodes.push_back(make_node("join", 1, {0}, {}));
  g.nodes.push_back(make_node("r", 2, {1}, {rd(rgn::ghost, 2, 4)}));
  EXPECT_TRUE(audit_races(g).clean());
}

TEST(RaceAudit, DropEdgeExposesTheHiddenConflict) {
  graph_profile g;
  g.nodes.push_back(make_node("w", 0, {}, {wr(rgn::field, 9)}));
  g.nodes.push_back(make_node("r", 1, {0}, {rd(rgn::field, 9)}));
  race_audit_options opt;
  opt.drop_edge_from = "w";
  opt.drop_edge_to = "r";
  const auto res = audit_races(g, opt);
  EXPECT_EQ(res.edges_dropped, 1u);
  ASSERT_EQ(res.conflicts.size(), 1u);
  EXPECT_EQ(res.conflicts[0].first_cls, "w");
  EXPECT_EQ(res.conflicts[0].second_cls, "r");
}

TEST(RaceAudit, DumpLoadRoundTrip) {
  graph_profile g;
  g.nodes.push_back(make_node("alpha", 0, {}, {wr(rgn::stage0, 1, 2)}));
  g.nodes.push_back(make_node("beta", 1, {0}, {rd(rgn::stage0, 1, 2)}));
  std::ostringstream os;
  dump_graph_json(g, os);
  const owned_graph back = load_graph_json(os.str());
  ASSERT_EQ(back.graph.nodes.size(), 2u);
  EXPECT_STREQ(back.graph.nodes[0].cls, "alpha");
  EXPECT_STREQ(back.graph.nodes[1].cls, "beta");
  ASSERT_EQ(back.graph.nodes[1].deps.size(), 1u);
  EXPECT_EQ(back.graph.nodes[1].deps[0], 0u);
  ASSERT_EQ(back.graph.nodes[0].footprint.size(), 1u);
  EXPECT_EQ(back.graph.nodes[0].footprint[0].region, rgn::stage0);
  EXPECT_TRUE(back.graph.nodes[0].footprint[0].write);
  EXPECT_EQ(back.graph.nodes[0].footprint[0].node, 1);
  EXPECT_EQ(back.graph.nodes[0].footprint[0].part, 2);
  EXPECT_TRUE(audit_races(back.graph).clean());
}

TEST(RaceAudit, LoadRejectsMalformedGraphs) {
  EXPECT_THROW(load_graph_json("{\"nodes\":[{\"cls\":\"x\"}]}"), error);
  EXPECT_THROW(load_graph_json("{}"), error);
  // Non-dense ids.
  EXPECT_THROW(load_graph_json("{\"nodes\":[{\"cls\":\"x\",\"id\":3,"
                               "\"deps\":[],\"fp\":[]}]}"),
               error);
}

// --- End to end: a real dataflow step, audited and dumped. ---------------

struct RaceAuditSim : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
};

app::sim_options dataflow_options() {
  app::sim_options opt;
  opt.max_level = 1;
  opt.mode = app::step_mode::dataflow;
  opt.audit_races = true;
  return opt;
}

TEST_F(RaceAuditSim, RealStepGraphAuditsCleanAndDumps) {
  const std::string dump = "race_audit_dump_test.json";
  ::setenv("OCTO_RACE_AUDIT_DUMP", dump.c_str(), 1);
  {
    auto sc = scen::rotating_star();
    app::simulation sim(sc, dataflow_options());
    sim.initialize();
    // audit_races throws on any unordered conflicting pair, so two clean
    // steps are the "zero conflicts on the unmodified graph" assertion.
    sim.step();
    sim.step();
  }
  ::unsetenv("OCTO_RACE_AUDIT_DUMP");

  std::ifstream in(dump);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(dump.c_str());

  const owned_graph og = load_graph_json(text.str());
  const auto res = audit_races(og.graph);
  EXPECT_TRUE(res.clean()) << res.summary();
  EXPECT_GT(res.tasks, 0u);
  EXPECT_GT(res.tasks_with_footprint, 0u);
  EXPECT_GT(res.accesses, 0u);
  EXPECT_GT(res.pairs_checked, 0u);
}

TEST_F(RaceAuditSim, DroppedEvaluateZeroEdgeRegressionIsCaught) {
  // The historical bug class: a solve's zero pass must wait for the
  // previous RK substep's readers of the expansions.  The task graph
  // derives that WAR edge (evaluate -> zero) from the footprints.
  // Re-audit a real recorded step with those edges removed from the
  // audited view (the schedule itself is untouched) and the auditor must
  // flag the WAR on the shared region, naming both tasks.
  const std::string dump = "race_audit_dropedge_test.json";
  ::setenv("OCTO_RACE_AUDIT_DUMP", dump.c_str(), 1);
  {
    auto sc = scen::rotating_star();
    app::simulation sim(sc, dataflow_options());
    sim.initialize();
    sim.step();
  }
  ::unsetenv("OCTO_RACE_AUDIT_DUMP");

  std::ifstream in(dump);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(dump.c_str());
  const owned_graph og = load_graph_json(text.str());

  race_audit_options opt;
  opt.drop_edge_from = "gravity.evaluate_leaf";
  opt.drop_edge_to = "gravity.zero";
  const auto res = audit_races(og.graph, opt);
  EXPECT_GT(res.edges_dropped, 0u);
  ASSERT_FALSE(res.clean())
      << "dropping the evaluate->zero edges must surface the expansion WAR";
  bool saw_expansion_pair = false;
  for (const auto& c : res.conflicts) {
    if (c.first_cls == "gravity.evaluate_leaf" &&
        c.second_cls == "gravity.zero" &&
        c.first_access.region == rgn::expansion)
      saw_expansion_pair = true;
  }
  EXPECT_TRUE(saw_expansion_pair) << res.summary();
}

TEST_F(RaceAuditSim, StepModeOptionThrowsOnBrokenGraphViaSimOptions) {
  // sim_options::audit_races wiring: a clean tree must not throw (already
  // covered above), and a barrier step is audited too — its phase joins
  // must order every conflicting pair.
  app::sim_options opt = dataflow_options();
  opt.mode = app::step_mode::barrier;
  auto sc = scen::rotating_star();
  app::simulation sim(sc, opt);
  sim.initialize();
  EXPECT_NO_THROW(sim.step());  // the barrier graph audits clean
}

}  // namespace
}  // namespace octo::apex
