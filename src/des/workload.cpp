#include "des/workload.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "grid/subgrid.hpp"

namespace octo::des {

namespace {

using machine::cpu_seconds;
using machine::gpu_seconds;

/// SSP-RK3 stages per timestep.
constexpr int rk_stages = 3;
/// Bookkeeping cost of the §VII-B promise/future notification, charged per
/// neighbor slab (local and remote) when comm_opt is on — the "make sure
/// the local neighbors are up-to-date" machinery.  Against the savings of
/// skipped serialization this produces Fig. 8's break-even.
constexpr real sync_overhead_us = real(3.9);

/// First (Morton-least) leaf descendant of a node — stands in for "the
/// restriction of this interior region is ready" dependencies.
index_t first_leaf(const tree::topology& topo, index_t n) {
  while (!topo.node(n).leaf) n = topo.node(n).children[0];
  return n;
}

}  // namespace

graph build_step_graph(const tree::topology& topo,
                       const tree::partition_result& part,
                       const machine::machine_spec& m,
                       const workload_options& opt) {
  OCTO_CHECK(opt.m2l_chunks >= 1);
  const auto& cpu = m.node.cpu;
  const bool gpus = opt.use_gpus && !m.node.gpus.empty();
  const auto kernel_kind = gpus ? unit_kind::gpu : unit_kind::cpu;
  const auto& w = opt.work;

  const auto kernel_cost = [&](real flops) {
    return gpus ? gpu_seconds(m.node.gpus.front(), flops)
                : cpu_seconds(cpu, flops, opt.boost, opt.simd);
  };
  const auto cpu_cost = [&](real flops) {
    return cpu_seconds(cpu, flops, opt.boost, opt.simd);
  };
  // Software cost of one serialized slab transfer end (action dispatch +
  // buffer copy), and the §VII-B bookkeeping cost.
  const auto ser_cost = [&](real bytes) {
    return m.action_overhead_us * real(1e-6) +
           bytes / (m.serialize_gbs * real(1e9));
  };
  const real sync_s = sync_overhead_us * real(1e-6);

  // Per-direction hydro slab bytes and gravity moment-halo bytes.
  real dir_bytes[NNEIGHBOR];
  real mom_bytes[NNEIGHBOR];
  for (int d = 0; d < NNEIGHBOR; ++d) {
    dir_bytes[d] =
        static_cast<real>(grid::subgrid::boundary_size(d)) * sizeof(real);
    // moments: 20 components, 3-deep halo (vs NFIELD components, 2-deep)
    mom_bytes[d] = dir_bytes[d] * (real(20) / grid::NFIELD) * real(1.5);
  }

  graph g;
  const index_t nn = topo.num_nodes();
  const int chunks = opt.m2l_chunks;

  // Task-id tables for the previous and current stage.
  std::vector<std::int32_t> h_prev(nn, -1), h_cur(nn, -1);
  std::vector<std::int32_t> ev_prev(nn, -1), ev_cur(nn, -1);
  std::vector<std::int32_t> mom_task(nn, -1);       // M2M or H (moments ready)
  std::vector<std::int32_t> m2l_first(nn, -1);      // chunk task range start
  std::vector<std::int32_t> l2l_task(nn, -1);

  for (int s = 0; s < rk_stages; ++s) {
    // ---- hydro kernels -------------------------------------------------
    for (const index_t leaf : topo.leaves()) {
      const int own = part.owner(leaf);
      real extra = 0;  // boundary serialization / sync handling (CPU work)
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t src = topo.neighbor_or_coarser(leaf, d);
        if (src == tree::invalid_node) continue;
        const bool local = part.owner(src) == own;
        if (opt.comm_opt) {
          // Direct access for local neighbors; the up-to-date bookkeeping
          // applies to every slab.
          extra += sync_s + (local ? real(0) : 2 * ser_cost(dir_bytes[d]));
        } else {
          extra += 2 * ser_cost(dir_bytes[d]);  // pack + unpack, all slabs
        }
      }
      // In GPU mode the boundary handling stays on the CPU (a "collect"
      // task); the kernel runs on a GPU stream once ghosts are assembled.
      std::int32_t recv;
      if (gpus) {
        recv = g.add_task(extra, own, unit_kind::cpu);
        h_cur[leaf] = g.add_task(kernel_cost(w.hydro_flops), own,
                                 kernel_kind);
        g.add_edge(recv, h_cur[leaf]);
      } else {
        recv = h_cur[leaf] =
            g.add_task(kernel_cost(w.hydro_flops) + extra, own, kernel_kind);
      }
      if (s > 0) {
        // previous stage of this leaf (gravity if enabled, else hydro)
        const std::int32_t self_prev =
            opt.gravity ? ev_prev[leaf] : h_prev[leaf];
        g.add_edge(self_prev, recv);
        for (int d = 0; d < NNEIGHBOR; ++d) {
          index_t src = topo.neighbor_or_coarser(leaf, d);
          if (src == tree::invalid_node) continue;
          if (!topo.node(src).leaf) src = first_leaf(topo, src);
          const bool remote = part.owner(src) != own;
          g.add_edge(h_prev[src], recv, remote ? dir_bytes[d] : real(0));
        }
      }
    }

    if (opt.gravity) {
      // ---- M2M bottom-up ------------------------------------------------
      for (int lvl = topo.max_depth(); lvl >= 0; --lvl) {
        for (const index_t n : topo.nodes_at_level(lvl)) {
          const auto& nd = topo.node(n);
          if (nd.leaf) {
            mom_task[n] = h_cur[n];  // P2M folded into the hydro task
            continue;
          }
          const std::int32_t t =
              g.add_task(cpu_cost(w.m2m_flops), part.owner(n));
          for (int c = 0; c < NCHILD; ++c) {
            const index_t ch = nd.children[c];
            const bool remote = part.owner(ch) != part.owner(n);
            g.add_edge(mom_task[ch], t, remote ? mom_bytes[0] : real(0));
          }
          mom_task[n] = t;
        }
      }

      // ---- Multipole kernel (M2L + leaf near field), chunked -------------
      // `m2l_done[n]` joins the chunks so downstream consumers (and the
      // cross-node expansion messages) fire once per node, not per chunk —
      // matching the real code, where the halo is exchanged per neighbor
      // pair regardless of how many tasks execute the kernel.
      std::vector<std::int32_t> m2l_done(nn, -1);
      for (index_t n = 0; n < nn; ++n) {
        const bool leaf = topo.node(n).leaf;
        const real flops =
            (leaf ? w.m2l_leaf_flops + w.p2p_flops : w.m2l_interior_flops) /
            chunks;
        const int own = part.owner(n);

        // Per-direction halo relays: one message per neighbor pair.
        std::int32_t halo[NNEIGHBOR];
        int nhalo = 0;
        for (int d = 0; d < NNEIGHBOR; ++d) {
          const index_t nb = topo.neighbor(n, d);
          if (nb == tree::invalid_node) continue;
          const bool remote = part.owner(nb) != own;
          const std::int32_t r = g.add_task(0, own);
          g.add_edge(mom_task[nb], r, remote ? mom_bytes[d] : real(0));
          halo[nhalo++] = r;
        }

        m2l_first[n] = static_cast<std::int32_t>(g.tasks.size());
        for (int c = 0; c < chunks; ++c) {
          const std::int32_t t = g.add_task(kernel_cost(flops), own,
                                            kernel_kind);
          g.add_edge(mom_task[n], t);
          for (int h = 0; h < nhalo; ++h) g.add_edge(halo[h], t);
        }
        if (chunks == 1) {
          m2l_done[n] = m2l_first[n];
        } else {
          const std::int32_t j = g.add_task(0, own);
          for (int c = 0; c < chunks; ++c) g.add_edge(m2l_first[n] + c, j);
          m2l_done[n] = j;
        }
      }

      // ---- L2L top-down ---------------------------------------------------
      for (int lvl = 1; lvl <= topo.max_depth(); ++lvl) {
        for (const index_t n : topo.nodes_at_level(lvl)) {
          const index_t p = topo.node(n).parent;
          const int own = part.owner(n);
          const std::int32_t t = g.add_task(cpu_cost(w.l2l_flops), own);
          const bool remote = part.owner(p) != own;
          // expansion slab from the parent (~64 parent cells x 20 comps)
          const real exp_bytes = real(64 * 20 * sizeof(real));
          g.add_edge(m2l_done[p], t, remote ? exp_bytes : real(0));
          if (l2l_task[p] >= 0)
            g.add_edge(l2l_task[p], t, remote ? exp_bytes : real(0));
          l2l_task[n] = t;
        }
      }

      // ---- evaluation at leaves -------------------------------------------
      for (const index_t leaf : topo.leaves()) {
        const int own = part.owner(leaf);
        const std::int32_t t =
            g.add_task(cpu_cost(real(0.05e6)), own);
        if (l2l_task[leaf] >= 0) g.add_edge(l2l_task[leaf], t);
        g.add_edge(m2l_done[leaf], t);
        ev_cur[leaf] = t;
      }
    }

    std::swap(h_prev, h_cur);
    std::swap(ev_prev, ev_cur);
    std::fill(h_cur.begin(), h_cur.end(), -1);
    std::fill(ev_cur.begin(), ev_cur.end(), -1);
    std::fill(l2l_task.begin(), l2l_task.end(), -1);
  }

  return g;
}

experiment_result run_experiment(const tree::topology& topo,
                                 const machine::machine_spec& m,
                                 int num_nodes, const workload_options& opt,
                                 int cores_override) {
  const auto part = tree::partition_sfc(topo, num_nodes);
  graph g = build_step_graph(topo, part, m, opt);

  engine_config cfg;
  cfg.machine = m;
  cfg.num_nodes = num_nodes;
  cfg.cores_per_node = cores_override;
  cfg.use_gpus = opt.use_gpus;
  const sim_result r = simulate(g, cfg);

  experiment_result out;
  out.step_seconds = r.makespan;
  out.cells_per_sec = static_cast<double>(topo.num_cells()) / r.makespan;
  out.subgrids_per_sec =
      static_cast<double>(topo.num_leaves()) / r.makespan;
  out.cpu_utilization = r.cpu_utilization;
  out.gpu_utilization = r.gpu_utilization;
  out.avg_node_power_w = r.avg_node_power_w;
  out.total_power_w = r.total_power_w;
  out.messages = r.messages;
  out.bytes = r.bytes;
  return out;
}

}  // namespace octo::des
