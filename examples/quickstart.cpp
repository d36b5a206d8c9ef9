/// Quickstart: build a rotating-star simulation, run a few coupled
/// hydro+gravity steps on the AMT runtime, watch the conservation ledger,
/// and round-trip a checkpoint.  Exits with the apex phase profile and the
/// paper's headline metric (processed sub-grid cells/second).
///
///   ./quickstart [level=2] [steps=5] [threads=4] [simd=true]
///                [trace=out.json] [metrics=out.jsonl]
///   (or OCTO_TRACE= / OCTO_METRICS= in the environment)

#include <cstdio>

#include <iostream>

#include "apex/apex.hpp"
#include "apex/metrics.hpp"
#include "apex/trace.hpp"
#include "app/checkpoint.hpp"
#include "app/simulation.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"

int main(int argc, char** argv) try {
  using namespace octo;
  auto cfg = config::from_args(argc, argv);
  cfg.merge_env({"trace", "metrics"});
  const int level = cfg.get("level", 2);
  const int steps = cfg.get("steps", 5);
  const int threads = cfg.get("threads", 4);
  const bool simd = cfg.get("simd", true);

  const auto trace_path = cfg.get("trace", std::string());
  if (!trace_path.empty()) apex::trace::instance().enable(trace_path);
  apex::metrics_sink metrics;
  const auto metrics_path = cfg.get("metrics", std::string());
  if (!metrics_path.empty() && !metrics.open(metrics_path)) {
    std::fprintf(stderr, "cannot open metrics sink %s\n",
                 metrics_path.c_str());
    return 1;
  }

  amt::runtime rt(static_cast<unsigned>(threads));
  amt::scoped_global_runtime guard(rt);

  auto sc = scen::rotating_star();
  app::sim_options opt;
  opt.max_level = level;
  opt.hydro.use_simd = simd;
  opt.gravity.use_simd = simd;

  app::simulation sim(sc, opt);
  if (metrics.is_open()) sim.set_metrics_sink(&metrics);
  stopwatch init_watch;
  sim.initialize();
  const auto ts = sim.topo().stats();
  std::printf("rotating star, level %d: %lld nodes, %lld sub-grids, "
              "%lld cells (init %.2fs)\n",
              level, static_cast<long long>(ts.nodes),
              static_cast<long long>(ts.leaves),
              static_cast<long long>(ts.cells), init_watch.seconds());

  const auto l0 = sim.measure();
  std::printf("t=0: M=%.12f  Egas=%.6f  W=%.6f  Etot=%.6f\n", l0.mass,
              l0.gas_energy, l0.pot_energy, l0.total_energy());

  stopwatch run_watch;
  for (int s = 0; s < steps; ++s) {
    const real dt = sim.step();
    const auto lg = sim.measure();
    std::printf(
        "step %2d  dt=%.3e  t=%.4f  dM/M=%+.2e  dE/E=%+.2e  Lz=%+.3e\n",
        sim.steps_taken(), dt, sim.time(), (lg.mass - l0.mass) / l0.mass,
        (lg.total_energy() - l0.total_energy()) /
            std::abs(l0.total_energy()),
        lg.ang_momentum.z);
  }
  const double elapsed = run_watch.seconds();
  std::printf("\n%d steps in %.2fs — %.3g cells/s on %d threads "
              "(last step: %.3g cells/s)\n",
              steps, elapsed,
              static_cast<double>(sim.num_cells()) * steps / elapsed,
              threads, sim.last_step_metrics().cells_per_sec);
  const auto st = rt.stats();
  std::printf("runtime: %llu tasks executed, %llu steals, "
              "%.1f ms worker idle, queue high-water %llu\n",
              static_cast<unsigned long long>(st.tasks_executed),
              static_cast<unsigned long long>(st.steals),
              static_cast<double>(st.idle_ns) * 1e-6,
              static_cast<unsigned long long>(st.queue_high_water));
  rt.export_apex_counters();

  // Checkpoint round trip (our Silo/HDF5 stand-in).
  const std::string ckpt = "quickstart.ckpt";
  const auto bytes = app::write_checkpoint(sim, ckpt);
  const auto back = app::read_checkpoint(ckpt);
  std::printf("checkpoint: wrote %.2f MB, read back %zu leaves at t=%.4f\n",
              static_cast<double>(bytes) / (1 << 20), back.leaf_codes.size(),
              back.time);
  std::remove(ckpt.c_str());

  // Phase profile from the built-in APEX-style instrumentation ([38]).
  std::printf("\nphase profile:\n");
  apex::registry::instance().report(std::cout);

  if (metrics.is_open())
    std::printf("\nmetrics: %llu step records -> %s\n",
                static_cast<unsigned long long>(metrics.records_emitted()),
                metrics.path().c_str());
  if (!trace_path.empty() && apex::trace::instance().write_to_file())
    std::printf("trace: %llu events -> %s (open in Perfetto / "
                "chrome://tracing)\n",
                static_cast<unsigned long long>(
                    apex::trace::instance().captured()),
                trace_path.c_str());
  return 0;
} catch (const octo::error& e) {
  // A bad argument or environment value: report it, no abort.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
