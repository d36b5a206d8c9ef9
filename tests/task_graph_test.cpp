// amt::task_graph edge derivation: the recorded dependencies of small
// hand-made graphs, in the dataflow and the barrier shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "amt/runtime.hpp"
#include "amt/sync.hpp"
#include "amt/task_graph.hpp"
#include "apex/analyze.hpp"
#include "apex/dag.hpp"
#include "apex/trace.hpp"
#include "common/error.hpp"

using namespace octo;
using apex::rgn;

namespace {

struct TaskGraph : testing::Test {
  amt::runtime rt{2};
  amt::scoped_global_runtime guard{rt};

  /// The record of the graph \p build adds (drained before it is taken).
  template <typename Build>
  apex::graph_profile record(bool barrier, Build&& build) {
    amt::task_graph g(rt, barrier, /*record=*/true);
    build(g);
    EXPECT_FALSE(g.drain());
    return g.take_record();
  }
};

/// Node \p id's recorded producer ids, sorted.
std::vector<std::uint32_t> deps(const apex::graph_profile& p,
                                std::uint32_t id) {
  auto d = p.nodes.at(id).deps;
  std::sort(d.begin(), d.end());
  return d;
}

using ids = std::vector<std::uint32_t>;
void nop() {}

}  // namespace

TEST_F(TaskGraph, ReadAfterWriteWriteAfterReadAndWriteAfterWriteEachGiveAnEdge) {
  const auto p = record(false, [](amt::task_graph& g) {
    g.add("w0", g.footprint().w(rgn::field, 0), nop);  // 0
    g.add("raw", g.footprint().r(rgn::field, 0), nop);  // 1: RAW on 0
    g.add("w1", g.footprint().w(rgn::field, 1), nop);  // 2: unrelated node
    g.add("war", g.footprint().w(rgn::field, 1).r(rgn::moment, 1),
          nop);                                          // 3: WAW on 2
    g.add("r1", g.footprint().r(rgn::moment, 1), nop);  // 4: read-read
    g.add("war", g.footprint().w(rgn::moment, 1), nop);  // 5: WAR on 3, 4
  });
  ASSERT_EQ(p.nodes.size(), 6u);
  EXPECT_EQ(deps(p, 0), ids{});
  EXPECT_EQ(deps(p, 1), ids{0});
  EXPECT_EQ(deps(p, 2), ids{});
  EXPECT_EQ(deps(p, 3), ids{2});
  EXPECT_EQ(deps(p, 4), ids{});
  EXPECT_EQ(deps(p, 5), (ids{3, 4}));
}

TEST_F(TaskGraph, DisjointPartWritesAreUnorderedAndReadsWaitForTheirPart) {
  const auto p = record(false, [](amt::task_graph& g) {
    g.add("p1", g.footprint().w(rgn::ghost, 0, 1), nop);  // 0
    g.add("p2", g.footprint().w(rgn::ghost, 0, 2), nop);  // 1: disjoint
    g.add("p1", g.footprint().w(rgn::ghost, 0, 1), nop);  // 2: WAW on 0
    g.add("r2", g.footprint().r(rgn::ghost, 0, 2), nop);  // 3: RAW on 1
    g.add("other", g.footprint().w(rgn::ghost, 1, 2), nop);  // 4: node 1
  });
  ASSERT_EQ(p.nodes.size(), 5u);
  EXPECT_EQ(deps(p, 1), ids{});
  EXPECT_EQ(deps(p, 2), ids{0});
  EXPECT_EQ(deps(p, 3), ids{1});
  EXPECT_EQ(deps(p, 4), ids{});
}

TEST_F(TaskGraph, AnyPartWriteOrdersAfterEveryPart) {
  const auto p = record(false, [](amt::task_graph& g) {
    g.add("p1", g.footprint().w(rgn::expansion, 0, 1), nop);  // 0
    g.add("p2", g.footprint().w(rgn::expansion, 0, 2), nop);  // 1
    g.add("r3", g.footprint().r(rgn::expansion, 0, 3), nop);  // 2: no writer
    g.add("all", g.footprint().w(rgn::expansion, 0), nop);    // 3
    g.add("p1", g.footprint().w(rgn::expansion, 0, 1), nop);  // 4: on 3 only
    g.add("any", g.footprint().r(rgn::expansion, 0), nop);    // 5: on 3, 4
  });
  ASSERT_EQ(p.nodes.size(), 6u);
  EXPECT_EQ(deps(p, 2), ids{});
  EXPECT_EQ(deps(p, 3), (ids{0, 1, 2}));
  EXPECT_EQ(deps(p, 4), ids{3});
  EXPECT_EQ(deps(p, 5), (ids{3, 4}));
}

TEST_F(TaskGraph, WriteClearsTheReadersItWaitedFor) {
  const auto p = record(false, [](amt::task_graph& g) {
    g.add("w", g.footprint().w(rgn::field, 0), nop);      // 0
    g.add("r", g.footprint().r(rgn::field, 0), nop);      // 1
    g.add("r", g.footprint().r(rgn::field, 0), nop);      // 2
    g.add("w", g.footprint().w(rgn::field, 0), nop);      // 3: on 0, 1, 2
    g.add("w", g.footprint().w(rgn::field, 0), nop);      // 4: on 3 only
    g.add("r1", g.footprint().r(rgn::ghost, 0, 1), nop);  // 5
    g.add("rall", g.footprint().r(rgn::ghost, 0), nop);   // 6
    g.add("w1", g.footprint().w(rgn::ghost, 0, 1), nop);  // 7: on 5, 6
    g.add("w1", g.footprint().w(rgn::ghost, 0, 1), nop);  // 8: on 7, 6
  });
  ASSERT_EQ(p.nodes.size(), 9u);
  EXPECT_EQ(deps(p, 3), (ids{0, 1, 2}));
  EXPECT_EQ(deps(p, 4), ids{3});
  EXPECT_EQ(deps(p, 7), (ids{5, 6}));
  // A part write clears only that part's readers: the any_part reader 6
  // still orders every later write of any part.
  EXPECT_EQ(deps(p, 8), (ids{6, 7}));
}

TEST_F(TaskGraph, AnyPartReadRetiresAnyPartReadersBeforeThePartWriter) {
  const auto p = record(false, [](amt::task_graph& g) {
    g.add("R1", g.footprint().r(rgn::ghost, 0), nop);     // 0
    g.add("W1", g.footprint().w(rgn::ghost, 0, 0), nop);  // 1: WAR on 0
    g.add("R2", g.footprint().r(rgn::ghost, 0), nop);     // 2: RAW on 1
    g.add("W2", g.footprint().w(rgn::ghost, 0, 1), nop);  // 3
  });
  ASSERT_EQ(p.nodes.size(), 4u);
  EXPECT_EQ(deps(p, 1), ids{0});
  EXPECT_EQ(deps(p, 2), ids{1});
  // R1 is ordered before W2 through W1 and R2: no edge of its own.
  EXPECT_EQ(deps(p, 3), ids{2});
}

TEST_F(TaskGraph, AnyPartReadersWithNoPartWriteBetweenThemBothStay) {
  const auto p = record(false, [](amt::task_graph& g) {
    g.add("R1", g.footprint().r(rgn::ghost, 0), nop);     // 0
    g.add("R2", g.footprint().r(rgn::ghost, 0), nop);     // 1
    g.add("W", g.footprint().w(rgn::ghost, 0, 0), nop);   // 2: on 0, 1
  });
  ASSERT_EQ(p.nodes.size(), 3u);
  EXPECT_EQ(deps(p, 2), (ids{0, 1}));
}

TEST_F(TaskGraph, DuplicateEdgeIsRecordedOnce) {
  const auto p = record(false, [](amt::task_graph& g) {
    g.add("w", g.footprint().w(rgn::field, 0).w(rgn::moment, 0), nop);
    g.add("r", g.footprint().r(rgn::field, 0).r(rgn::moment, 0), nop);
  });
  ASSERT_EQ(p.nodes.size(), 2u);
  EXPECT_EQ(p.nodes[1].deps, ids{0});
}

TEST_F(TaskGraph, BarrierGraphRecordsOnlyItsJoins) {
  const auto p = record(true, [](amt::task_graph& g) {
    g.add("w", g.footprint().w(rgn::field, 0), nop);  // 0
    g.add("r", g.footprint().r(rgn::field, 0), nop);  // 1: same phase
    g.join();                                         // 2: join of 0, 1
    g.add("w", g.footprint().w(rgn::field, 0), nop);  // 3: on the join
    g.join();                                         // 4
  });
  ASSERT_EQ(p.nodes.size(), 5u);
  EXPECT_EQ(deps(p, 0), ids{});
  EXPECT_EQ(deps(p, 1), ids{});
  EXPECT_STREQ(p.nodes[2].cls, "join");
  EXPECT_EQ(deps(p, 2), (ids{0, 1}));
  EXPECT_EQ(deps(p, 3), ids{2});
  // The footprint still records for the race audit.
  EXPECT_EQ(p.nodes[3].footprint.size(), 1u);
}

TEST_F(TaskGraph, BarrierFootprintBuildsNothingWithoutARecording) {
  amt::task_graph barrier(rt, true);
  EXPECT_TRUE(barrier.footprint().w(rgn::field, 0).empty());
  barrier.add("w", barrier.footprint(), nop);  // no edges to derive
  EXPECT_FALSE(barrier.drain());
  amt::task_graph dataflow(rt, false);
  EXPECT_FALSE(dataflow.footprint().w(rgn::field, 0).empty());
}

TEST_F(TaskGraph, EmptyFootprintInDataflowGraphThrowsNamingTheClass) {
  amt::task_graph g(rt, false);
  try {
    g.add("mystery", g.footprint(), nop);
    FAIL() << "an empty footprint must throw";
  } catch (const octo::error& e) {
    EXPECT_NE(std::string(e.what()).find("mystery"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(g.drain());
}

/// A failed task passes its error to the tasks ordered after it, which do
/// not run, and drain() returns the error of the task that raised it.
TEST_F(TaskGraph, FailureFlowsAlongTheEdgesAndDrainNamesItsOrigin) {
  for (const bool barrier : {false, true}) {
    bool ran = false;
    std::exception_ptr e;
    apex::graph_profile p;
    {
      amt::task_graph g(rt, barrier, /*record=*/true);
      g.add("w", g.footprint().w(rgn::slot, 0),
            [] { throw octo::error("origin"); });
      g.join();
      g.add("r", g.footprint().r(rgn::slot, 0), [&ran] { ran = true; });
      g.join();
      e = g.drain();
      p = g.take_record();
    }
    ASSERT_TRUE(e) << "barrier=" << barrier;
    EXPECT_FALSE(ran) << "barrier=" << barrier;
    // The downstream task inherited the error: its recorded node failed.
    const auto r = std::find_if(p.nodes.begin(), p.nodes.end(),
                                [](const apex::dag_node& n) {
                                  return std::string(n.cls) == "r";
                                });
    ASSERT_NE(r, p.nodes.end()) << "barrier=" << barrier;
    EXPECT_TRUE(r->failed) << "barrier=" << barrier;
    try {
      std::rethrow_exception(e);
    } catch (const octo::error& err) {
      EXPECT_STREQ(err.what(), "origin") << "barrier=" << barrier;
    }
  }
}

/// A producer that failed and finished before its consumer is added still
/// stops it: the edge is not counted, but the failure passes on at once.
/// Once the producer is drained, so certainly finished; once only known to
/// have reached its throw (an event its body sets), so it may be finishing
/// while the consumer links to it.
TEST_F(TaskGraph, FailedProducerFinishedBeforeTheConsumerIsAdded) {
  for (const bool drained : {true, false}) {
    amt::task_graph g(rt, false);
    amt::event thrown;
    g.add("w", g.footprint().w(rgn::field, 0), [&thrown] {
      thrown.set();
      throw octo::error("producer");
    });
    thrown.wait(rt);
    if (drained) {
      EXPECT_TRUE(g.drain());
    }
    bool ran = false;
    g.add("r", g.footprint().r(rgn::field, 0), [&ran] { ran = true; });
    const std::exception_ptr e = g.drain();
    EXPECT_FALSE(ran) << "drained=" << drained;
    ASSERT_TRUE(e) << "drained=" << drained;
    try {
      std::rethrow_exception(e);
    } catch (const octo::error& err) {
      EXPECT_STREQ(err.what(), "producer") << "drained=" << drained;
    }
  }
}

/// A 16-wide, 64-layer lattice on 4 workers, each task writing its own
/// node and reading the 3 neighbouring nodes of the previous layer: tasks
/// finish while their successors are still being added, so successor
/// appends race producers finishing.  Every task must run once, after its
/// producers, and every recorded edge must point to a lower id.
TEST_F(TaskGraph, LatticeStress) {
  constexpr int width = 16;
  constexpr int layers = 64;
  amt::runtime stress_rt{4};
  for (const bool barrier : {false, true}) {
    std::vector<std::atomic<bool>> done(width * layers);
    std::atomic<int> executed{0};
    std::atomic<int> early{0};  // ran before one of its producers finished
    apex::graph_profile p;
    {
      amt::task_graph g(stress_rt, barrier, /*record=*/true);
      for (int layer = 0; layer < layers; ++layer) {
        for (int c = 0; c < width; ++c) {
          const int i = layer * width + c;
          auto fp = g.footprint();
          fp.w(rgn::field, i);
          std::vector<int> in;
          if (layer > 0)
            for (const int dc : {width - 1, 0, 1}) {
              in.push_back((layer - 1) * width + (c + dc) % width);
              fp.r(rgn::field, in.back());
            }
          g.add("node", std::move(fp), [&, i, in] {
            for (const int p : in)
              if (!done[static_cast<std::size_t>(p)].load()) ++early;
            done[static_cast<std::size_t>(i)].store(true);
            ++executed;
          });
        }
        g.join();
      }
      EXPECT_FALSE(g.drain());
      p = g.take_record();
    }
    EXPECT_EQ(executed.load(), width * layers) << "barrier=" << barrier;
    EXPECT_EQ(early.load(), 0) << "barrier=" << barrier;
    // Barrier mode adds one "join" node per layer.
    EXPECT_EQ(p.nodes.size(),
              static_cast<std::size_t>(width * layers + (barrier ? layers : 0)))
        << "barrier=" << barrier;
    std::size_t edges = 0;
    for (const auto& n : p.nodes)
      for (const std::uint32_t d : n.deps) {
        EXPECT_LT(d, n.id) << "barrier=" << barrier;
        ++edges;
      }
    EXPECT_GT(edges, 0u) << "barrier=" << barrier;
  }
}

/// While the trace is on, each task whose body runs records one span named
/// by its class, with its record node's start and end stamps; a task that
/// inherits a failure runs no body and records no span.  Dataflow: only
/// the failed producer's consumer inherits; barrier: every task after the
/// failed phase does.
TEST_F(TaskGraph, EachRunTaskIsOneSpanNamedByItsClass) {
  constexpr int n = 4;
  const std::string path = testing::TempDir() + "/octo_task_graph_trace_" +
                           std::to_string(::getpid()) + ".json";
  auto& tr = apex::trace::instance();
  for (const bool barrier : {false, true}) {
    std::vector<std::atomic<bool>> ran(3 * n);  // by build order
    apex::graph_profile p;
    tr.clear();
    tr.enable("");
    {
      amt::task_graph g(rt, barrier, /*record=*/true);
      for (int i = 0; i < n; ++i)
        g.add("tg.write", g.footprint().w(rgn::field, i),
              [&ran, i] { ran[i] = true; });
      g.join();
      for (int i = 0; i < n; ++i)
        g.add("tg.derive", g.footprint().r(rgn::field, i).w(rgn::moment, i),
              [&ran, i] {
                ran[n + i] = true;
                if (i == 0) throw octo::error("producer");
              });
      g.join();
      for (int i = 0; i < n; ++i)
        g.add("tg.consume", g.footprint().r(rgn::moment, i),
              [&ran, i] { ran[2 * n + i] = true; });
      g.join();
      EXPECT_TRUE(g.drain());
      p = g.take_record();
    }
    tr.disable();
    {
      std::ofstream out(path);
      tr.write(out);
    }
    tr.clear();
    const apex::loaded_trace t = apex::load_chrome_trace(path);
    std::remove(path.c_str());

    std::map<std::string, std::vector<const apex::trace_span*>> spans;
    for (const auto& s : t.spans)
      if (s.name.rfind("tg.", 0) == 0) spans[s.name].push_back(&s);
    std::map<std::string, std::size_t> bodies;  // tasks that ran, by class
    std::size_t k = 0;
    for (const auto& node : p.nodes) {
      if (std::string(node.cls) == "join") continue;
      if (!ran[k++]) continue;
      ++bodies[node.cls];
      const auto& v = spans[node.cls];
      const auto same = std::count_if(v.begin(), v.end(), [&](const auto* s) {
        return static_cast<std::uint64_t>(std::llround(s->ts_us * 1e3)) ==
                   node.start_ns &&
               static_cast<std::uint64_t>(std::llround(s->dur_us * 1e3)) ==
                   node.end_ns - node.start_ns;
      });
      EXPECT_EQ(same, 1) << node.cls << " #" << node.id
                         << " barrier=" << barrier;
    }
    ASSERT_EQ(k, ran.size()) << "barrier=" << barrier;
    for (const auto& [cls, v] : spans)
      EXPECT_EQ(v.size(), bodies[cls]) << cls << " barrier=" << barrier;
    // The failed producer ran and has its span; its consumers did not.
    EXPECT_TRUE(ran[n]) << "barrier=" << barrier;
    EXPECT_FALSE(ran[2 * n]) << "barrier=" << barrier;
    EXPECT_EQ(bodies["tg.write"], std::size_t{n}) << "barrier=" << barrier;
    EXPECT_EQ(bodies["tg.derive"], std::size_t{n}) << "barrier=" << barrier;
    EXPECT_EQ(bodies["tg.consume"], barrier ? 0u : std::size_t{n - 1});
  }
}

/// Two graphs built and drained at the same time on two threads, one
/// recording and one not: each record holds its own graph's tasks only.
TEST_F(TaskGraph, EachGraphKeepsOnlyItsOwnRecord) {
  constexpr int n = 200;
  const auto build = [this](bool record, apex::graph_profile& out) {
    amt::task_graph g(rt, /*barrier=*/false, record);
    for (int i = 0; i < n; ++i) {
      auto fp = g.footprint();
      fp.w(rgn::field, i);
      if (i > 0) fp.r(rgn::field, i - 1);
      g.add(record ? "mine" : "other", std::move(fp), nop);
    }
    EXPECT_FALSE(g.drain());
    out = g.take_record();
  };
  apex::graph_profile recorded, unrecorded;
  std::thread a([&] { build(true, recorded); });
  std::thread b([&] { build(false, unrecorded); });
  a.join();
  b.join();
  ASSERT_EQ(recorded.nodes.size(), static_cast<std::size_t>(n));
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_STREQ(recorded.nodes[i].cls, "mine");
    EXPECT_EQ(recorded.nodes[i].id, i);
    EXPECT_EQ(recorded.nodes[i].deps, i == 0 ? ids{} : ids{i - 1});
  }
  EXPECT_TRUE(unrecorded.empty());
}

/// run_each runs every index, and rethrows the first failure in index
/// order only once every other task has run.
TEST_F(TaskGraph, RunEachRunsEveryIndexAndRethrowsTheFirstFailure) {
  constexpr std::size_t n = 1000;
  amt::runtime four{4};
  std::vector<std::atomic<int>> runs(n);
  std::atomic<int> ok{0};
  try {
    amt::run_each(four, "each", n, [&](std::size_t i) {
      ++runs[i];
      if (i == 17 || i == 400) throw octo::error(std::to_string(i));
      ++ok;
    });
    FAIL() << "run_each must rethrow";
  } catch (const octo::error& e) {
    EXPECT_STREQ(e.what(), "17");
    // Every other index had run by the time the error surfaced.
    EXPECT_EQ(ok.load(), static_cast<int>(n - 2));
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}
