/// Demonstrates the in-process multi-locality runtime and the paper's
/// §VII-B communication optimization: the same step executed across
/// several localities, with and without same-locality direct ghost access.
/// The evolved states are bitwise identical; the exchange statistics show
/// exactly what the optimization removes.
///
/// With `ckpt_dir=`, a third run goes through dist::run_with_checkpoints:
/// periodic v2 checkpoints, an injected failure of step 2 (when steps >= 2)
/// that rolls back to the newest valid checkpoint, and a bitwise
/// comparison of the recovered end state against the uninterrupted
/// reference.
///
/// With `kill_loc=<loc>` (optionally `kill_step=<n>`, default 1) a
/// locality is killed mid-run instead: the cluster sees the death at that
/// step's entry (the injector's liveness, no deadline), the partition
/// shrinks over the survivors, the lost leaves come back from buddy
/// replicas (or the newest checkpoint in ckpt_dir=), and the surviving
/// run is compared cell-for-cell against the uninterrupted reference.
///
///   ./distributed_demo [localities=4] [level=2] [steps=2] [threads=4]
///                      [ckpt_dir=/tmp/...] [ckpt_every=1]
///                      [kill_loc=-1] [kill_step=1]

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "apex/metrics.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "dist/checkpoint.hpp"
#include "dist/cluster.hpp"
#include "dist/recovery.hpp"

namespace {

/// Largest |a - b| over every owned cell of every leaf of two runs on the
/// same tree; 0 means the runs are bitwise identical.
double max_cell_diff(const octo::dist::cluster& a,
                     const octo::dist::cluster& b) {
  constexpr int n = octo::grid::subgrid::N;
  double d = 0;
  for (const octo::index_t leaf : a.topo().leaves()) {
    const auto& x = a.leaf(leaf);
    const auto& y = b.leaf(leaf);
    for (int f = 0; f < octo::grid::NFIELD; ++f)
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
          for (int k = 0; k < n; ++k)
            d = std::max(d, std::abs(x.at(f, i, j, k) - y.at(f, i, j, k)));
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace octo;
  auto cfg = config::from_args(argc, argv);
  cfg.merge_env({"metrics"});
  const int nloc = cfg.get("localities", 4);
  const int level = cfg.get("level", 2);
  const int steps = cfg.get("steps", 2);
  const int threads = cfg.get("threads", 4);

  // Per-step metrics (metrics= or OCTO_METRICS=): the transport/recovery
  // columns land here — retries, timeouts, duplicates, localities lost,
  // leaves migrated per step.
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
  app::sim_options so;
  so.max_level = level;

  std::printf("rotating star level %d across %d localities\n\n", level,
              nloc);

  // Locality-kill demo (kill_loc=/kill_step=).  A kill needs live
  // recovery (partition shrink), not checkpoint rollback, so it suppresses
  // the rollback demo below; the one-shot kill is armed only for the final
  // recovery run so it cannot fire inside the reference runs.
  const int kill_loc = cfg.get("kill_loc", -1);
  const int kill_step = cfg.get("kill_step", 1);
  const bool kill_demo = kill_loc >= 0;

  // Rollback demo (ckpt_dir=): step 2 of the checkpointed run fails, the
  // driver rolls back to the newest checkpoint and replays.  Runs first and
  // disarms the fault after, so the plain comparison runs below are clean.
  const std::string ckpt_dir = cfg.get("ckpt_dir", std::string());
  const bool resilience = !kill_demo && !ckpt_dir.empty();
  dist::cluster recovered(sc, {.num_localities = nloc,
                               .local_optimization = false,
                               .sim = so});
  dist::run_result rr;
  dist::run_options ro;
  if (resilience) {
    if (metrics.is_open()) recovered.set_metrics_sink(&metrics);
    ro.dir = ckpt_dir;
    ro.every = cfg.get("ckpt_every", 1);
    recovered.initialize();
    auto& inj = fault::injector::instance();
    if (steps >= 2) inj.arm_step_failure(2);
    rr = dist::run_with_checkpoints(recovered, steps, ro);
    inj.arm_step_failure(0);
  }

  dist::cluster clusters[2] = {
      dist::cluster(sc, {.num_localities = nloc,
                         .local_optimization = true,
                         .sim = so}),
      dist::cluster(sc, {.num_localities = nloc,
                         .local_optimization = false,
                         .sim = so}),
  };
  const char* labels[2] = {"optimized (direct local access)",
                           "baseline (serialize everything)"};

  // Plain runs feed the sink only when no resilience/kill demo does, so
  // the file stays one coherent per-step stream.
  if (!resilience && !kill_demo && metrics.is_open())
    clusters[0].set_metrics_sink(&metrics);

  for (int v = 0; v < 2; ++v) {
    auto& cl = clusters[v];
    cl.initialize();
    for (int s = 0; s < steps; ++s) cl.step();
    const auto st = cl.stats();
    const auto lg = cl.measure();
    std::printf("%s:\n", labels[v]);
    std::printf("  slabs: %llu direct, %llu serialized-local, %llu remote\n",
                static_cast<unsigned long long>(st.local_direct),
                static_cast<unsigned long long>(st.local_serialized),
                static_cast<unsigned long long>(st.remote_messages));
    std::printf("  serialized volume: %.2f MB   mass=%.12f\n\n",
                static_cast<double>(st.bytes_serialized) / (1 << 20),
                lg.mass);
  }
  const dist::cluster& reference = clusters[0];

  // Bitwise equivalence across the two communication paths.
  const double maxdiff = max_cell_diff(reference, clusters[1]);
  std::printf("max |optimized - baseline| over every cell: %.1e %s\n",
              maxdiff, maxdiff == 0 ? "(bitwise identical)" : "");

  if (resilience) {
    std::printf(
        "\nfault-tolerant run: %d steps, %d rollback(s), %d checkpoint(s) "
        "in %s\n",
        rr.steps, rr.restarts, rr.checkpoints_written, ro.dir.c_str());
    const double rdiff = max_cell_diff(reference, recovered);
    std::printf("max |recovered - reference| over every cell: %.1e %s\n",
                rdiff, rdiff == 0 ? "(bitwise identical)" : "");
  }

  if (kill_demo) {
    std::printf("\nlocality-kill demo: locality %d dies at step %d of %d\n",
                kill_loc, kill_step, steps);
    fault::injector::instance().arm_locality_kill(kill_loc, kill_step);
    dist::cluster survivor(sc, {.num_localities = nloc,
                                .local_optimization = true,
                                .sim = so});
    if (metrics.is_open()) survivor.set_metrics_sink(&metrics);
    survivor.initialize();
    dist::recovery_options ropt;
    ropt.ckpt_dir = ckpt_dir;  // optional rollback fallback; replicas first
    const auto res = dist::run_with_recovery(survivor, steps, ropt);
    const auto ts = survivor.transport_statistics();
    std::printf("  survived: %d recovery(ies), %d locality(ies) lost, "
                "%d of %d localities live at the end\n",
                res.recoveries, res.localities_lost,
                survivor.live_localities(), nloc);
    std::printf("  transport: %llu messages, %llu retries, %llu timeouts, "
                "%llu duplicates dropped\n",
                static_cast<unsigned long long>(ts.messages),
                static_cast<unsigned long long>(ts.retries),
                static_cast<unsigned long long>(ts.timeouts),
                static_cast<unsigned long long>(ts.dups_dropped));
    const double kdiff = max_cell_diff(reference, survivor);
    const auto lref = reference.measure();
    const auto lsur = survivor.measure();
    std::printf("  max |survivor - reference| over every cell: %.1e %s\n",
                kdiff, kdiff == 0 ? "(bitwise identical)" : "");
    std::printf("  mass: survivor %.12f vs reference %.12f\n", lsur.mass,
                lref.mass);
  }
  return 0;
} catch (const octo::error& e) {
  // A bad argument or environment value: report it, no abort.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
