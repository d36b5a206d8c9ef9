/// Reproduces Fig. 9: splitting each Multipole-kernel launch into multiple
/// HPX tasks via the Kokkos HPX execution space (§VII-C).  OFF = 1 task per
/// kernel launch (hot cache), ON = 16 tasks.
/// Paper finding: no effect on one node (thousands of sub-grids keep all
/// cores busy), a noticeable speedup at 128 nodes where cores starve
/// during the distributed tree traversals.

#include <cstdio>

#include "amt/runtime.hpp"
#include "apex/analyze.hpp"
#include "apex/metrics.hpp"
#include "app/simulation.hpp"
#include "fig_common.hpp"
#include "gravity/solver.hpp"
#include "grid/subgrid.hpp"

namespace {

/// Measured counters: run the real FMM with 1 vs 16 tasks per
/// Multipole-kernel launch and report the scheduler's task/steal counters —
/// the live series behind the DES model above.
void measured_counters() {
  using namespace octo;
  std::printf("\nmeasured scheduler counters (real FMM solve, level 3, "
              "4 workers):\n");
  auto sc = scen::rotating_star();
  tree::topology topo(sc.domain_half, 3, sc.refine);
  table t({"m2l_chunks", "tasks", "steals", "failed steals",
           "worker idle [ms]", "queue high-water"});
  std::uint64_t tasks1 = 0, tasks16 = 0;
  for (const int chunks : {1, 16}) {
    amt::runtime rt(4);
    amt::scoped_global_runtime guard(rt);
    gravity::gravity_options gopt;
    gopt.m2l_chunks = chunks;
    gravity::fmm_solver grav(topo, gopt);
    std::vector<real> rho(static_cast<std::size_t>(
                              gravity::fmm_solver::C3),
                          real(1));
    for (const index_t l : topo.leaves()) grav.set_leaf_density(l, rho);
    grav.solve(exec::amt_space(rt));
    const auto st = rt.stats();
    rt.export_apex_counters();
    (chunks == 1 ? tasks1 : tasks16) = st.tasks_executed;
    t.add_row({table::fmt(static_cast<long long>(chunks)),
               table::fmt(static_cast<long long>(st.tasks_executed)),
               table::fmt(static_cast<long long>(st.steals)),
               table::fmt(static_cast<long long>(st.failed_steals)),
               table::fmt(static_cast<double>(st.idle_ns) * 1e-6),
               table::fmt(static_cast<long long>(st.queue_high_water))});
  }
  t.print(std::cout);
  bench::check(tasks16 > tasks1,
               "16 chunks launch more, shorter tasks per kernel");
  bench::apex_report("the measured FMM solves");
}

/// Dataflow mode: Fig. 9's starvation fix taken to its limit.  Kernel
/// splitting shortens tasks *within* one phase barrier; OCTO_STEP_MODE=
/// dataflow removes the barriers altogether — the whole step is one
/// dependency graph and workers only idle when the graph itself is out of
/// ready tasks.  Measured on a real run: worker idle time must strictly
/// drop versus the barriered step.
void dataflow_mode() {
  using namespace octo;
  std::printf("\nbarrier vs dataflow step execution (real run, level 3, "
              "4 workers):\n");
  auto sc = scen::rotating_star();
  table t({"step mode", "steps", "wall [ms]", "worker idle [ms]",
           "idle fraction", "crit path [ms]"});
  // Each mode emits real metrics JSONL; the comparison below runs through
  // the same load + baseline_diff path as `octo_analyze --baseline`.
  const char* jsonl[2] = {"bench_fig9_barrier.metrics.jsonl",
                          "bench_fig9_dataflow.metrics.jsonl"};
  double idle_ms[2] = {0, 0};
  int mi = 0;
  for (const auto mode : {app::step_mode::barrier, app::step_mode::dataflow}) {
    amt::runtime rt(4);
    amt::scoped_global_runtime guard(rt);
    app::sim_options so;
    so.max_level = 3;
    so.mode = mode;
    app::simulation sim(sc, so);
    apex::metrics_sink sink;
    bench::check(sink.open(jsonl[mi]), "metrics sink opens");
    sim.initialize();
    sim.step();  // warm-up: lazy allocations out of the measured window
    sim.set_metrics_sink(&sink);
    const auto s0 = rt.stats();
    const int steps = 4;
    double wall = 0, crit_ms = 0;
    for (int i = 0; i < steps; ++i) {
      sim.step();
      wall += sim.last_step_metrics().step_seconds;
      crit_ms += sim.last_step_metrics().crit_path_us * 1e-3;
    }
    const auto s1 = rt.stats();
    sim.set_metrics_sink(nullptr);
    sink.close();
    idle_ms[mi] = static_cast<double>(s1.idle_ns - s0.idle_ns) * 1e-6;
    const double frac = wall > 0 ? idle_ms[mi] * 1e-3 / (wall * 4) : 0;
    t.add_row({mi == 0 ? "barrier" : "dataflow",
               table::fmt(static_cast<long long>(steps)),
               table::fmt(wall * 1e3), table::fmt(idle_ms[mi]),
               table::fmt(frac), table::fmt(crit_ms)});
    ++mi;
  }
  t.print(std::cout);
  bench::check(idle_ms[1] < idle_ms[0],
               "dependency-driven step strictly reduces worker idle time");

  // Offline round trip: reload both series and diff them exactly like
  // `octo_analyze --baseline barrier.jsonl dataflow.jsonl` would.
  const auto barrier = apex::load_metrics_jsonl(jsonl[0]);
  const auto dataflow = apex::load_metrics_jsonl(jsonl[1]);
  bench::check(barrier.size() == 4 && dataflow.size() == 4,
               "metrics JSONL round-trips all measured steps");
  double idle_b = 0, idle_d = 0;
  for (const auto& r : barrier) idle_b += r.idle_fraction;
  for (const auto& r : dataflow) idle_d += r.idle_fraction;
  bench::check(idle_d < idle_b,
               "reloaded idle_fraction series agrees: dataflow idles less");
  for (const auto* series : {&barrier, &dataflow})
    for (const auto& r : *series)
      bench::check(r.crit_path_us > 0 &&
                       r.crit_path_us <= r.step_seconds * 1e6,
                   "recorded critical path is positive and <= step wall time");
  const auto regs = apex::baseline_diff(barrier, dataflow, 1e4);
  apex::print_baseline_diff(std::cout, regs, 1e4);
  bench::check(regs.empty(),
               "dataflow is not 100x slower than barrier on any column");
  std::remove(jsonl[0]);
  std::remove(jsonl[1]);
}

}  // namespace

int main() {
  using namespace octo;
  bench::header(
      "Fig. 9 — Multipole-kernel work splitting on Ookami (level 5)",
      "OFF (1 task/kernel) and ON (16 tasks/kernel) tie on one node; ON "
      "wins clearly at 128 nodes by avoiding starvation during tree "
      "traversals");

  auto sc = scen::rotating_star();
  const auto topo = sc.make_topology(5);
  const auto m = machine::ookami();

  table t({"nodes", "subgrids/node", "cells/s OFF(1)", "cells/s ON(16)",
           "ON/OFF"});
  double ratio1 = 0, ratio128 = 0;
  for (const int nodes : {1, 2, 4, 8, 16, 32, 64, 128}) {
    des::workload_options off;  // 1 task per kernel launch
    des::workload_options on;
    on.m2l_chunks = 16;
    const auto r_off = des::run_experiment(topo, m, nodes, off);
    const auto r_on = des::run_experiment(topo, m, nodes, on);
    const double ratio = r_on.cells_per_sec / r_off.cells_per_sec;
    t.add_row({table::fmt(static_cast<long long>(nodes)),
               table::fmt(static_cast<long long>(topo.num_leaves() / nodes)),
               table::fmt(r_off.cells_per_sec),
               table::fmt(r_on.cells_per_sec), table::fmt(ratio)});
    if (nodes == 1) ratio1 = ratio;
    if (nodes == 128) ratio128 = ratio;
  }
  t.print(std::cout);

  bench::check(std::abs(ratio1 - 1.0) < 0.05,
               "one task per launch is sufficient on a single node");
  bench::check(ratio128 > 1.25,
               "16 tasks per launch give a noticeable speedup at 128 nodes");

  measured_counters();
  dataflow_mode();
  return 0;
}
