/// Critical-path extraction over recorded task graphs (apex/dag.hpp +
/// apex/critical_path.hpp): hand-built DAGs with known longest chains,
/// tie-breaking determinism, exception-carrying nodes, and a live
/// recording of a real amt::task_graph.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "amt/runtime.hpp"
#include "amt/task_graph.hpp"
#include "apex/critical_path.hpp"
#include "apex/dag.hpp"

namespace {

using namespace octo;
using apex::dag_node;
using apex::graph_profile;

dag_node make_node(std::uint32_t id, const char* cls, std::uint64_t start_ns,
                   std::uint64_t dur_ns, std::vector<std::uint32_t> deps,
                   std::int32_t worker = 0, bool failed = false) {
  dag_node n;
  n.cls = cls;
  n.id = id;
  n.ready_ns = start_ns;
  n.start_ns = start_ns;
  n.end_ns = start_ns + dur_ns;
  n.worker = worker;
  n.failed = failed;
  n.deps = std::move(deps);
  return n;
}

/// The 10-node reference DAG.  Durations and edges chosen so the longest
/// duration-weighted chain is 0 -> 2 -> 4 -> 6 -> 8 -> 9 with total 125:
///
///   dist: 0:10  1:5  2:30  3:10  4:60  5:40  6:100  7:45  8:115  9:125
graph_profile reference_dag() {
  graph_profile g;
  g.nodes.push_back(make_node(0, "hydro-RK", 0, 10, {}));
  g.nodes.push_back(make_node(1, "copy", 100, 5, {}, 1));
  g.nodes.push_back(make_node(2, "M2L", 200, 20, {0, 1}));
  g.nodes.push_back(make_node(3, "copy", 300, 5, {1}, 1));
  g.nodes.push_back(make_node(4, "M2L", 400, 30, {2}));
  g.nodes.push_back(make_node(5, "prolong", 500, 10, {2, 3}, 1));
  g.nodes.push_back(make_node(6, "M2L", 600, 40, {4}));
  g.nodes.push_back(make_node(7, "copy", 700, 5, {5}, 1));
  g.nodes.push_back(make_node(8, "hydro-RK", 800, 15, {6, 7}));
  g.nodes.push_back(make_node(9, "dt-reduce", 900, 10, {8}, 1));
  return g;
}

TEST(CriticalPath, EmptyProfile) {
  const auto r = apex::analyze_critical_path(graph_profile{});
  EXPECT_TRUE(r.path.empty());
  EXPECT_EQ(r.length_ns, 0u);
  EXPECT_EQ(r.makespan_ns, 0u);
  EXPECT_EQ(r.nodes, 0u);
  EXPECT_DOUBLE_EQ(r.crit_path_frac(), 0);
}

TEST(CriticalPath, KnownLongestChain) {
  const auto r = apex::analyze_critical_path(reference_dag());
  EXPECT_EQ(r.nodes, 10u);
  EXPECT_EQ(r.edges, 11u);
  EXPECT_EQ(r.length_ns, 125u);
  EXPECT_EQ(r.path, (std::vector<std::uint32_t>{0, 2, 4, 6, 8, 9}));
  // makespan: max end (910) - min ready (0).
  EXPECT_EQ(r.makespan_ns, 910u);
  EXPECT_EQ(r.longest_task_ns, 40u);
  EXPECT_GE(r.length_ns, r.longest_task_ns);
  EXPECT_LE(r.length_ns, r.makespan_ns);
  EXPECT_FALSE(r.path_failed);

  // Kernel-class attribution along the path: M2L 20+30+40, hydro 10+15,
  // dt-reduce 10.
  EXPECT_EQ(r.class_ns.at("M2L"), 90u);
  EXPECT_EQ(r.class_ns.at("hydro-RK"), 25u);
  EXPECT_EQ(r.class_ns.at("dt-reduce"), 10u);
  EXPECT_EQ(r.class_ns.count("copy"), 0u);  // not on the path
  // Whole-graph totals include everything.
  EXPECT_EQ(r.class_total_ns.at("copy"), 15u);
  EXPECT_EQ(r.class_total_ns.at("prolong"), 10u);

  // Worker loads: worker 0 ran 10+20+30+40+15 = 115, worker 1 ran
  // 5+5+10+5+10 = 35; imbalance = (115 - 75) / 115.
  ASSERT_EQ(r.workers.size(), 2u);
  EXPECT_EQ(r.workers[0].worker, 0);
  EXPECT_EQ(r.workers[0].busy_ns, 115u);
  EXPECT_EQ(r.workers[1].busy_ns, 35u);
  EXPECT_NEAR(r.imbalance, (115.0 - 75.0) / 115.0, 1e-12);
}

TEST(CriticalPath, TieBreaksDeterministically) {
  // Two equal-length chains into one sink: 0 -> 2 and 1 -> 2, both
  // predecessors at dist 10.  The lower node id must win, every time.
  graph_profile g;
  g.nodes.push_back(make_node(0, "a", 0, 10, {}));
  g.nodes.push_back(make_node(1, "b", 0, 10, {}));
  g.nodes.push_back(make_node(2, "c", 20, 5, {0, 1}));
  const auto r1 = apex::analyze_critical_path(g);
  EXPECT_EQ(r1.path, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(r1.length_ns, 15u);

  // Same graph, dependency list order reversed: still node 0.
  g.nodes[2].deps = {1, 0};
  const auto r2 = apex::analyze_critical_path(g);
  EXPECT_EQ(r2.path, (std::vector<std::uint32_t>{0, 2}));

  // Two disconnected equal sinks: the lower-id sink wins.
  graph_profile g2;
  g2.nodes.push_back(make_node(0, "a", 0, 10, {}));
  g2.nodes.push_back(make_node(1, "b", 0, 10, {}));
  const auto r3 = apex::analyze_critical_path(g2);
  EXPECT_EQ(r3.path, (std::vector<std::uint32_t>{0}));
}

TEST(CriticalPath, ExceptionCarryingNode) {
  // Node 1 resolved with an exception: zero duration (end == start), but
  // it stays in the graph and flags the path when it lies on it.
  graph_profile g;
  g.nodes.push_back(make_node(0, "a", 0, 10, {}));
  g.nodes.push_back(make_node(1, "boom", 10, 0, {0}, 0, true));
  g.nodes.push_back(make_node(2, "c", 20, 10, {1}));
  const auto r = apex::analyze_critical_path(g);
  EXPECT_EQ(r.path, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(r.length_ns, 20u);
  EXPECT_TRUE(r.path_failed);
}

TEST(CriticalPath, CountersAndReportDoNotThrow) {
  const auto r = apex::analyze_critical_path(reference_dag());
  apex::export_critical_path_counters(r);
  std::ostringstream os;
  apex::print_critical_path(os, r);
  EXPECT_NE(os.str().find("M2L"), std::string::npos);
  EXPECT_NE(os.str().find("critical path"), std::string::npos);
}

TEST(CriticalPath, LiveDataflowRecording) {
  amt::runtime rt(4);
  amt::scoped_global_runtime guard(rt);
  using apex::rgn;

  // A diamond with a serial tail: a -> {b, c} -> d, from footprints.
  std::atomic<int> ran{0};
  apex::graph_profile g;
  {
    amt::task_graph tg(rt, /*barrier=*/false, /*record=*/true);
    const auto count = [&] { ++ran; };
    tg.add("seed", tg.footprint().w(rgn::field, 0), count);
    tg.add("left", tg.footprint().r(rgn::field, 0).w(rgn::field, 1), count);
    tg.add("right", tg.footprint().r(rgn::field, 0).w(rgn::field, 2), count);
    tg.add("tail", tg.footprint().r(rgn::field, 1).r(rgn::field, 2), count);
    EXPECT_FALSE(tg.drain());
    g = tg.take_record();
  }

  ASSERT_EQ(g.nodes.size(), 4u);
  EXPECT_EQ(ran.load(), 4);

  // Edges derived from the footprints: b and c depend on a (id 0), d on
  // both b and c.
  EXPECT_EQ(g.nodes[1].deps, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(g.nodes[2].deps, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(g.nodes[3].deps, (std::vector<std::uint32_t>{1, 2}));

  for (const auto& n : g.nodes) {
    EXPECT_GE(n.start_ns, n.ready_ns) << "node " << n.id;
    EXPECT_GE(n.end_ns, n.start_ns) << "node " << n.id;
    // Ran on a pool worker, or on the helping (off-pool) test thread.
    EXPECT_GE(n.worker, -1) << "node " << n.id;
    EXPECT_FALSE(n.failed);
  }

  const auto r = apex::analyze_critical_path(g);
  EXPECT_EQ(r.nodes, 4u);
  EXPECT_EQ(r.edges, 4u);
  EXPECT_EQ(r.path.size(), 3u);  // seed -> (left|right) -> tail
  EXPECT_EQ(r.path.front(), 0u);
  EXPECT_EQ(r.path.back(), 3u);
  EXPECT_GE(r.length_ns, r.longest_task_ns);
  EXPECT_LE(r.length_ns, r.makespan_ns);
  EXPECT_EQ(r.class_total_ns.count("seed"), 1u);
  EXPECT_EQ(r.class_total_ns.count("tail"), 1u);
}

TEST(CriticalPath, FailedTaskRecordedAndFlagged) {
  amt::runtime rt(2);
  amt::scoped_global_runtime guard(rt);
  using apex::rgn;

  apex::graph_profile g;
  {
    amt::task_graph tg(rt, /*barrier=*/false, /*record=*/true);
    tg.add("ok", tg.footprint().w(rgn::field, 0), [] {});
    tg.add("throws", tg.footprint().r(rgn::field, 0).w(rgn::field, 1),
           [] { throw std::runtime_error("boom"); });
    tg.add("downstream", tg.footprint().r(rgn::field, 1), [] {});
    const std::exception_ptr e = tg.drain();
    EXPECT_THROW(std::rethrow_exception(e), std::runtime_error);
    g = tg.take_record();
  }

  ASSERT_EQ(g.nodes.size(), 3u);
  EXPECT_FALSE(g.nodes[0].failed);
  EXPECT_TRUE(g.nodes[1].failed);
  EXPECT_TRUE(g.nodes[2].failed);  // dependency error propagated
  // The downstream body never ran: zero duration, still analyzable.
  EXPECT_EQ(g.nodes[2].end_ns, g.nodes[2].start_ns);
  const auto r = apex::analyze_critical_path(g);
  EXPECT_TRUE(r.path_failed);
  EXPECT_LE(r.length_ns, r.makespan_ns);
}

TEST(CriticalPath, RecorderOffIsInvisible) {
  amt::runtime rt(2);
  amt::scoped_global_runtime guard(rt);
  // A graph built without `record` runs its tasks and records none.
  amt::task_graph tg(rt, /*barrier=*/false);
  tg.add("x", tg.footprint().w(apex::rgn::field, 0), [] {});
  EXPECT_FALSE(tg.drain());
  const auto g = tg.take_record();
  EXPECT_TRUE(g.empty());
}

}  // namespace
