/// Overheads of the AMT runtime primitives: task spawn/execute round trips,
/// a step-shaped task graph in both step modes, and the work-stealing
/// deque.  These are the costs the paper's fine-grained kernel strategy
/// (§IV-B) must amortize.

#include <benchmark/benchmark.h>

#include <atomic>

#include "amt/future.hpp"
#include "amt/sync.hpp"
#include "amt/task_graph.hpp"

namespace {

using namespace octo;

void task_spawn_execute(benchmark::State& state) {
  amt::runtime rt(2);
  for (auto _ : state) {
    amt::latch l(100);
    for (int i = 0; i < 100; ++i) rt.post([&l] { l.count_down(); });
    l.wait(rt);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}

void async_get_roundtrip(benchmark::State& state) {
  amt::runtime rt(2);
  for (auto _ : state) {
    auto f = amt::async([] { return 1; }, rt);
    benchmark::DoNotOptimize(f.get(rt));
  }
}

/// Empty tasks in the shape of one hydro step on a periodic 12^3 lattice of
/// leaves: per RK stage a hydro-like task per leaf (writes its field, reads
/// its ghosts and u0), then a copy-like one (reads its six face
/// neighbours' fields, writes its face ghosts); then a dt task per leaf.
constexpr int step_lattice = 12;
constexpr int step_leaves = step_lattice * step_lattice * step_lattice;
constexpr int step_tasks = 7 * step_leaves;

void build_step_graph(amt::task_graph& g) {
  using apex::rgn;
  constexpr int n = step_lattice;
  const auto leaf = [](int x, int y, int z) {
    return (((x + n) % n) * n + (y + n) % n) * n + (z + n) % n;
  };
  const int face[6][3] = {{-1, 0, 0}, {1, 0, 0},  {0, -1, 0},
                          {0, 1, 0},  {0, 0, -1}, {0, 0, 1}};
  for (int s = 0; s < 3; ++s) {
    for (int l = 0; l < step_leaves; ++l)
      g.add("hydro",
            g.footprint().w(rgn::field, l).r(rgn::ghost, l).r(rgn::stage0, l),
            [] {});
    g.join();
    for (int x = 0; x < n; ++x)
      for (int y = 0; y < n; ++y)
        for (int z = 0; z < n; ++z) {
          const int l = leaf(x, y, z);
          auto fp = g.footprint();
          for (int d = 0; d < 6; ++d)
            fp.r(rgn::field, leaf(x + face[d][0], y + face[d][1],
                                  z + face[d][2]))
                .w(rgn::ghost, l, d);
          g.add("copy", std::move(fp), [] {});
        }
    g.join();
  }
  for (int l = 0; l < step_leaves; ++l)
    g.add("dt", g.footprint().r(rgn::field, l).r(rgn::ghost, l).w(rgn::dtred, l),
          [] {});
  g.join();
}

void task_graph_step(benchmark::State& state, bool barrier) {
  amt::runtime rt(2);
  for (auto _ : state) {
    amt::task_graph g(rt, barrier);
    build_step_graph(g);
    benchmark::DoNotOptimize(g.drain());
  }
  state.SetItemsProcessed(state.iterations() * step_tasks);
}

void task_graph_dataflow(benchmark::State& state) {
  task_graph_step(state, false);
}

void task_graph_barrier(benchmark::State& state) {
  task_graph_step(state, true);
}

void ws_deque_push_pop(benchmark::State& state) {
  amt::ws_deque<int> dq;
  int item = 7;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) dq.push(&item);
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(dq.pop());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

}  // namespace

BENCHMARK(task_spawn_execute);
BENCHMARK(async_get_roundtrip);
BENCHMARK(task_graph_dataflow);
BENCHMARK(task_graph_barrier);
BENCHMARK(ws_deque_push_pop);

BENCHMARK_MAIN();
