/// Tracing a multi-locality run: a 4-locality dataflow cluster traces to
/// one plain Chrome trace file through apex::trace, exactly like a
/// single-locality run, and that file plus the per-step metrics round-trip
/// through the offline analyzer (apex/analyze.hpp).  A traced step names
/// each task once: one span per recorded task, under its class.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <unistd.h>

#include "amt/runtime.hpp"
#include "apex/analyze.hpp"
#include "apex/metrics.hpp"
#include "apex/race_audit.hpp"
#include "apex/trace.hpp"
#include "app/simulation.hpp"
#include "dist/cluster.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using namespace octo;
namespace fs = std::filesystem;

TEST(ClusterTrace, FourLocalityDataflowTraceRoundTrip) {
  const std::string dir = testing::TempDir() + "/octo_cluster_trace_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);

  amt::runtime rt(4);
  amt::scoped_global_runtime guard(rt);
  auto& tr = apex::trace::instance();
  tr.clear();
  tr.enable("");

  const std::string metrics_path = dir + "/metrics.jsonl";
  double max_step_seconds = 0;
  {
    auto sc = scen::rotating_star();
    dist::dist_options o;
    o.num_localities = 4;
    o.sim.max_level = 1;
    o.sim.mode = app::step_mode::dataflow;
    dist::cluster c(sc, o);
    apex::metrics_sink sink;
    ASSERT_TRUE(sink.open(metrics_path));
    c.set_metrics_sink(&sink);
    c.initialize();
    for (int i = 0; i < 2; ++i) {
      c.step();
      const apex::step_record& m = c.last_step_metrics();
      max_step_seconds = std::max(max_step_seconds, m.step_seconds);
      // The recorded critical path fits inside the step.
      EXPECT_GT(m.crit_path_us, 0);
      EXPECT_LE(m.crit_path_us, m.step_seconds * 1e6);
      EXPECT_GT(m.crit_path_frac, 0);
      EXPECT_LE(m.crit_path_frac, 1.0 + 1e-9);
    }
    sink.close();
  }
  tr.disable();

  const std::string trace_path = dir + "/trace.json";
  {
    std::ofstream out(trace_path);
    tr.write(out);
    ASSERT_TRUE(out.good());
  }
  tr.clear();

  // Analyzer round trip on the cluster's own trace: the spans of every
  // locality's tasks, remote slab sends among them, on one timeline set.
  const auto t = apex::load_chrome_trace(trace_path);
  EXPECT_FALSE(t.spans.empty());
  EXPECT_TRUE(std::any_of(t.spans.begin(), t.spans.end(),
                          [](const apex::trace_span& s) {
                            return s.name == "transport.send";
                          }));
  std::ostringstream report;
  apex::print_trace_report(report, t, 5);
  EXPECT_NE(report.str().find("utilization per timeline"), std::string::npos)
      << report.str();

  const auto steps = apex::load_metrics_jsonl(metrics_path);
  ASSERT_EQ(steps.size(), 2u);
  for (const auto& s : steps) {
    EXPECT_GT(s.crit_path_us, 0);
    EXPECT_LE(s.crit_path_us, max_step_seconds * 1e6);
  }
  // Self-diff finds no regressions at any threshold.
  EXPECT_TRUE(apex::baseline_diff(steps, steps, 1.0).empty());

  fs::remove_all(dir);
}

/// Traces one step of \p core (its options set audit_races, so the race
/// audit dumps the step graph) and expects, per recorded class but the
/// joins, as many spans of that name as recorded nodes: a body span left
/// under the class's name would double the count, a class that opens no
/// span reads 0.
void expect_one_span_per_recorded_task(app::step_core& core,
                                       const std::string& what) {
  // Per process: a file name without the pid would collide across the
  // suite's concurrent per-case runs.
  const std::string stem = testing::TempDir() + "/octo_span_per_task_" +
                           std::to_string(::getpid());
  const std::string dump = stem + ".dag.json", trace_path = stem + ".json";
  auto& tr = apex::trace::instance();
  tr.clear();
  tr.enable("");
  ::setenv("OCTO_RACE_AUDIT_DUMP", dump.c_str(), 1);
  core.step();
  ::unsetenv("OCTO_RACE_AUDIT_DUMP");
  tr.disable();
  {
    std::ofstream out(trace_path);
    tr.write(out);
  }
  tr.clear();
  EXPECT_EQ(tr.dropped(), 0u) << what;
  std::map<std::string, std::size_t> spans;
  for (const auto& s : apex::load_chrome_trace(trace_path).spans)
    ++spans[s.name];
  std::ifstream in(dump);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(dump.c_str());
  std::remove(trace_path.c_str());

  std::map<std::string, std::size_t> nodes;
  for (const auto& n : apex::load_graph_json(text.str()).graph.nodes)
    if (std::string(n.cls) != "join") ++nodes[n.cls];
  ASSERT_FALSE(nodes.empty()) << what;
  for (const auto& [cls, count] : nodes)
    EXPECT_EQ(spans[cls], count) << what << ": class " << cls;
}

TEST(ClusterTrace, EachRecordedTaskIsOneSpanOfItsClass) {
  amt::runtime rt(2);
  amt::scoped_global_runtime guard(rt);
  {
    app::sim_options o;
    o.max_level = 2;
    o.mode = app::step_mode::dataflow;
    o.audit_races = true;
    app::simulation sim(scen::rotating_star(), o);
    sim.initialize();
    expect_one_span_per_recorded_task(sim, "level-2 star, dataflow");
  }
  {
    app::sim_options o;
    o.max_level = 3;
    o.mode = app::step_mode::barrier;
    o.audit_races = true;
    app::simulation sim(scen::sedov(), o);
    sim.initialize();
    expect_one_span_per_recorded_task(sim, "level-3 Sedov, barrier");
  }
  {
    dist::dist_options o;
    o.num_localities = 4;
    o.sim.max_level = 2;
    o.sim.mode = app::step_mode::dataflow;
    o.sim.audit_races = true;
    dist::cluster c(scen::rotating_star(), o);
    c.initialize();
    expect_one_span_per_recorded_task(c, "4-locality cluster, dataflow");
  }
}

}  // namespace
