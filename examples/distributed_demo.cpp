/// Demonstrates the in-process multi-locality runtime and the paper's
/// §VII-B communication optimization: the same step executed across
/// several localities, with and without same-locality direct ghost access.
/// The evolved states are bitwise identical; the exchange statistics show
/// exactly what the optimization removes.
///
/// With a fault armed (any OCTO_FAULT_* knob) or an explicit ckpt_dir=,
/// a third run goes through dist::run_with_checkpoints: periodic v2
/// checkpoints, rollback to the newest valid one on a detected fault,
/// and a bitwise comparison of the recovered end state against the
/// uninterrupted reference.
///
/// With `kill_loc=<loc>` (optionally `kill_step=<n>`, default 1) — or the
/// `OCTO_FAULT_LOCALITY_KILL=<loc>:<step>` env knob — a locality is killed
/// mid-run instead: the cluster sees the death at that step's entry (the
/// injector's liveness, no deadline), the partition shrinks over the
/// survivors, the lost leaves come back from buddy replicas (or the newest
/// checkpoint in ckpt_dir=), and the surviving run is compared
/// cell-for-cell against the uninterrupted reference.
///
///   ./distributed_demo [localities=4] [level=2] [steps=2] [threads=4]
///                      [ckpt_dir=/tmp/...] [ckpt_every=1]
///                      [kill_loc=-1] [kill_step=1]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "apex/metrics.hpp"
#include "common/config.hpp"
#include "common/fault.hpp"
#include "dist/checkpoint.hpp"
#include "dist/cluster.hpp"
#include "dist/recovery.hpp"

int main(int argc, char** argv) {
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
  if (!metrics_path.empty() && !metrics.open(metrics_path))
    std::fprintf(stderr, "cannot open metrics sink %s\n",
                 metrics_path.c_str());

  amt::runtime rt(static_cast<unsigned>(threads));
  amt::scoped_global_runtime guard(rt);

  auto sc = scen::rotating_star();
  app::sim_options so;
  so.max_level = level;

  std::printf("rotating star level %d across %d localities\n\n", level,
              nloc);

  // Locality-kill demo: kill_loc=/kill_step= args or the
  // OCTO_FAULT_LOCALITY_KILL env knob.  A kill needs live recovery
  // (partition shrink), not checkpoint rollback, so it suppresses the
  // rollback demo below; the one-shot kill is disarmed here and re-armed
  // for the final recovery run so it cannot fire inside the reference runs.
  int kill_loc = cfg.get("kill_loc", -1);
  int kill_step = cfg.get("kill_step", 1);
  if (kill_loc < 0) {
    if (const auto env = octo::config::env("OCTO_FAULT_LOCALITY_KILL")) {
      unsigned long long s = 1;
      if (std::sscanf(env->c_str(), "%d:%llu", &kill_loc, &s) >= 1)
        kill_step = static_cast<int>(s);
    }
  }
  const bool kill_demo = kill_loc >= 0;
  if (kill_demo) fault::injector::instance().arm_locality_kill(-1, 0);

  // Resilience demo: only when asked for (ckpt_dir=) or when a fault is
  // armed through the OCTO_FAULT_* environment knobs.  Runs first so the
  // armed (one-shot) fault is injected into the checkpointed run, not the
  // plain comparison runs below.
  const std::string ckpt_dir = cfg.get("ckpt_dir", std::string());
  const bool resilience =
      !kill_demo &&
      (!ckpt_dir.empty() || fault::injector::instance().armed());
  dist::cluster recovered(sc, {.num_localities = nloc,
                               .local_optimization = false,
                               .sim = so});
  dist::run_result rr;
  dist::run_options ro;
  if (resilience) {
    if (metrics.is_open()) recovered.set_metrics_sink(&metrics);
    ro.dir = ckpt_dir.empty() ? std::string("/tmp/octo_ckpt_demo") : ckpt_dir;
    ro.every = cfg.get("ckpt_every", 1);
    // A fault can hit the initial ghost exchange too, before the driver's
    // rollback scope begins; initialization is idempotent, so just retry.
    for (int attempt = 0;; ++attempt) {
      try {
        recovered.initialize();
        break;
      } catch (const error& e) {
        if (attempt >= 8) throw;
        std::printf("fault during initialization (%s), retrying\n", e.what());
      }
    }
    rr = dist::run_with_checkpoints(recovered, steps, ro);
  }

  dist::cluster* reference = nullptr;
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
    if (v == 0) reference = &cl;
  }

  // Bitwise equivalence across the two communication paths.
  double maxdiff = 0;
  for (const index_t leaf : reference->topo().leaves()) {
    const auto& a = clusters[0].leaf(leaf);
    const auto& b = clusters[1].leaf(leaf);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
          for (int k = 0; k < 8; ++k)
            maxdiff = std::max(maxdiff,
                               std::abs(a.at(f, i, j, k) - b.at(f, i, j, k)));
  }
  std::printf("max |optimized - baseline| over every cell: %.1e %s\n",
              maxdiff, maxdiff == 0 ? "(bitwise identical)" : "");

  if (resilience) {
    std::printf(
        "\nfault-tolerant run: %d steps, %d rollback(s), %d checkpoint(s) "
        "in %s\n",
        rr.steps, rr.restarts, rr.checkpoints_written, ro.dir.c_str());
    double rdiff = 0;
    for (const index_t leaf : reference->topo().leaves()) {
      const auto& a = reference->leaf(leaf);
      const auto& b = recovered.leaf(leaf);
      for (int f = 0; f < grid::NFIELD; ++f)
        for (int i = 0; i < 8; ++i)
          for (int j = 0; j < 8; ++j)
            for (int k = 0; k < 8; ++k)
              rdiff = std::max(
                  rdiff, std::abs(a.at(f, i, j, k) - b.at(f, i, j, k)));
    }
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
    double kdiff = 0;
    for (const index_t leaf : reference->topo().leaves()) {
      const auto& a = reference->leaf(leaf);
      const auto& b = survivor.leaf(leaf);
      for (int f = 0; f < grid::NFIELD; ++f)
        for (int i = 0; i < 8; ++i)
          for (int j = 0; j < 8; ++j)
            for (int k = 0; k < 8; ++k)
              kdiff = std::max(
                  kdiff, std::abs(a.at(f, i, j, k) - b.at(f, i, j, k)));
    }
    const auto lref = reference->measure();
    const auto lsur = survivor.measure();
    std::printf("  max |survivor - reference| over every cell: %.1e %s\n",
                kdiff, kdiff == 0 ? "(bitwise identical)" : "");
    std::printf("  mass: survivor %.12f vs reference %.12f\n", lsur.mass,
                lref.mass);
  }
  return 0;
}
