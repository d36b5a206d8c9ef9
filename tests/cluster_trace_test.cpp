/// Tracing a multi-locality run: a 4-locality dataflow cluster traces to
/// one plain Chrome trace file through apex::trace, exactly like a
/// single-locality run, and that file plus the per-step metrics round-trip
/// through the offline analyzer (apex/analyze.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "amt/runtime.hpp"
#include "apex/analyze.hpp"
#include "apex/metrics.hpp"
#include "apex/trace.hpp"
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

}  // namespace
