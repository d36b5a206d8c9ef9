/// Stellar-merger scenario demo: initialize the V1309-like contact binary
/// (or the DWD system) through the self-consistent-field module and evolve
/// it in the co-rotating frame, tracking the two components through their
/// species tracers (§III / §IV-C of the paper).
///
///   ./stellar_merger [scenario=v1309|dwd] [level=2] [steps=3] [threads=4]
///                    [trace=out.json] [metrics=out.jsonl]
///
/// With `OCTO_TRACE=trace.json` in the environment (or `trace=`), every AMT
/// task, steal, and simulation phase is captured and written as Chrome
/// trace-event JSON; `OCTO_METRICS=` records one structured line per step
/// with the paper's processed sub-grid cells/second.

#include <cstdio>

#include <iostream>

#include "apex/apex.hpp"
#include "apex/metrics.hpp"
#include "apex/trace.hpp"
#include "app/simulation.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "scf/binary_scf.hpp"

namespace {

/// Center of mass of each binary component from the species tracers.
struct component_state {
  octo::real mass = 0;
  octo::rvec3 com{0, 0, 0};
};

std::array<component_state, 2> components(const octo::app::simulation& sim) {
  using namespace octo;
  std::array<component_state, 2> comp{};
  for (const index_t leaf : sim.topo().leaves()) {
    const auto& u = sim.leaf(leaf);
    const real vol = u.cell_volume();
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        for (int k = 0; k < 8; ++k) {
          const rvec3 x = u.cell_center(i, j, k);
          const real m0 = u.at(grid::f_spc0, i, j, k) * vol;
          const real m1 = u.at(grid::f_spc1, i, j, k) * vol;
          comp[0].mass += m0;
          comp[0].com += m0 * x;
          comp[1].mass += m1;
          comp[1].com += m1 * x;
        }
  }
  for (auto& c : comp)
    if (c.mass > 0) c.com /= c.mass;
  return comp;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace octo;
  auto cfg = config::from_args(argc, argv);
  cfg.merge_env({"trace", "metrics"});
  const std::string name = cfg.get("scenario", std::string("v1309"));
  const int level = cfg.get("level", 2);
  const int steps = cfg.get("steps", 3);
  const int threads = cfg.get("threads", 4);

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

  auto sc = scen::by_name(name);
  std::printf("scenario: %s — %s\n", sc.name.c_str(), sc.note.c_str());

  app::sim_options opt;
  opt.max_level = level;
  app::simulation sim(sc, opt);
  if (metrics.is_open()) sim.set_metrics_sink(&metrics);

  stopwatch watch;
  std::printf("running SCF initialization + tree build (level %d)...\n",
              level);
  sim.initialize();
  std::printf("initialized %lld sub-grids in %.1fs\n",
              static_cast<long long>(sim.num_leaves()), watch.seconds());

  const auto l0 = sim.measure();
  auto c0 = components(sim);
  std::printf("t=0: M=%.5f (star1 %.5f + star2 %.5f, q=%.3f)  "
              "separation=%.4f\n",
              l0.mass, c0[0].mass, c0[1].mass, c0[1].mass / c0[0].mass,
              norm(c0[1].com - c0[0].com));

  for (int s = 0; s < steps; ++s) {
    const real dt = sim.step();
    const auto lg = sim.measure();
    const auto c = components(sim);
    std::printf("step %2d dt=%.3e: dM/M=%+.2e  separation=%.4f  "
                "Lz=%+.4e\n",
                sim.steps_taken(), dt, (lg.mass - l0.mass) / l0.mass,
                norm(c[1].com - c[0].com), lg.ang_momentum.z);
  }
  std::printf("\nThe components stay distinct through their tracer fields; "
              "in a production run the orbit decays over many periods "
              "until dynamical mass transfer sets in (Fig. 1 of the "
              "paper).\n");

  if (steps > 0)
    std::printf("\nlast step: %.3g sub-grid cells/s "
                "(exchange %.3fs, gravity %.3fs, hydro %.3fs)\n",
                sim.last_step_metrics().cells_per_sec,
                sim.last_step_metrics().exchange_seconds,
                sim.last_step_metrics().gravity_seconds,
                sim.last_step_metrics().hydro_seconds);
  rt.export_apex_counters();
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
