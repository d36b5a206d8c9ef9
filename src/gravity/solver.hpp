#pragma once
/// \file solver.hpp
/// Fast-multipole gravity solver on the sub-grid octree (Octo-Tiger's FMM).
///
/// The solve follows the paper's three phases (§VII-C):
///   1. bottom-up tree traversal: P2M at leaves, M2M upward;
///   2. same-level cell-to-cell interactions on every tree level — the
///      "Multipole kernel", a 316-offset stencil over each node's 8^3 cells
///      and its 26 same-level neighbors (plus monopole near field on
///      leaves);
///   3. top-down traversal: L2L shifts of the local expansions to children,
///      and evaluation phi = L0, g = -L1 at leaf cells.
///
/// Refinement boundaries (2:1-balanced): a fine leaf interacts its cells
/// directly and *mutually* with the adjacent coarser leaf's cells (pure
/// monopole pairs, exact), restricted to pairs not already covered by the
/// coarser level's stencil.  Every pair is therefore accounted for exactly
/// once, and the pairwise evaluation conserves linear momentum to machine
/// precision.

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "amt/task_graph.hpp"
#include "common/types.hpp"
#include "common/vec3.hpp"
#include "exec/execution_space.hpp"
#include "gravity/kernels.hpp"
#include "grid/subgrid.hpp"
#include "tree/topology.hpp"

namespace octo::gravity {

struct gravity_options {
  real G = units::G_code;
  /// Select the vector-ABI kernels (paper's SVE toggle, Fig. 7).
  bool use_simd = true;
  /// Tasks per Multipole-kernel launch (paper's Fig. 9: 1 vs 16).  The
  /// root's all-pairs launch always gets at least N row tasks.
  int m2l_chunks = 1;
};

class fmm_solver {
 public:
  static constexpr int N = SUBGRID_N;
  static constexpr index_t C3 = index_t(N) * N * N;      ///< cells per node
  static constexpr index_t CP = C3 + 8;                  ///< padded stride

  fmm_solver(const tree::topology& topo, gravity_options opt = {});

  /// Set a leaf's mass distribution from densities (layout (i*N+j)*N+k).
  void set_leaf_density(index_t node, std::span<const real> rho);

  /// Convenience: densities from a hydro sub-grid's owned cells.
  void set_leaf_from_subgrid(index_t node, const grid::subgrid& u);

  /// Run the full FMM: the barrier form of build_solve() (one join per
  /// phase, the Fig. 9 starvation baseline), drained; rethrows the first
  /// task error.  The execution space supplies the runtime; the option's
  /// m2l_chunks controls kernel splitting.
  void solve(const exec::amt_space& space = exec::amt_space{});

  /// Per-node edges out of one build_solve() that a graph-building step
  /// pipeline wires into the next stage's tasks.  All vectors are
  /// node-indexed; entries that do not apply (e.g. leaf_out of an interior
  /// node, or the pure joins of a barrier graph) are invalid
  /// shared_futures, which `amt::dataflow` ignores.
  struct solve_graph {
    /// Every task of this solve that *reads* node n's moments is done —
    /// the WAR gate before the next stage's set_leaf_density / M2M.
    std::vector<amt::shared_future<void>> mom_free;
    /// Node n's expansions are no longer read or written — the WAR/WAW
    /// gate before the next solve's zeroing pass.
    std::vector<amt::shared_future<void>> exp_free;
    /// Leaf n's outputs (phi/g) are ready — feeds the next hydro stage.
    std::vector<amt::shared_future<void>> leaf_out;
  };

  /// Add the full FMM to \p g, phase by phase: zero -> M2M (parent on
  /// children) -> M2L per (node, chunk) -> mutual fine-coarse pair tasks +
  /// deterministic per-node applies -> L2L (child on parent) -> leaf
  /// evaluation.  The root's M2L is split into max(m2l_chunks, N) row tasks
  /// writing disjoint expansion rows.  In a dataflow graph the phases are
  /// per-node dependencies (the Fig. 9 split); in a barrier graph each
  /// phase, and each M2M / L2L level, ends in a join.  \p mom_ready[n]
  /// gates reading leaf n's moments (the caller's set_leaf_from_subgrid
  /// task); \p prev carries the previous solve's read/write edges for
  /// WAR/WAW hazards across RK stages (nullptr when the step entry was a
  /// global join).  Every cell's accumulation order is zero -> M2L(+P2P)
  /// -> fine-coarse apply -> L2L in both shapes, so both are bitwise
  /// identical.
  solve_graph build_solve(
      amt::task_graph& g,
      const std::vector<amt::shared_future<void>>& mom_ready,
      const solve_graph* prev = nullptr);

  /// Potential at the leaf's cells (valid after solve; layout (i*N+j)*N+k,
  /// padded stride CP — use cell_index()).
  std::span<const real> phi(index_t node) const;

  /// Acceleration components at the leaf's cells.
  std::span<const real> gx(index_t node) const;
  std::span<const real> gy(index_t node) const;
  std::span<const real> gz(index_t node) const;

  static constexpr index_t cell_index(int i, int j, int k) {
    return (index_t(i) * N + j) * N + k;
  }

  /// Sum of m*g over all leaf cells; ~0 by momentum conservation.
  rvec3 total_force() const;
  /// Total torque about the origin; small but nonzero (octupole truncation).
  rvec3 total_torque() const;
  /// Gravitational potential energy 1/2 sum m_i phi_i.
  real potential_energy() const;
  /// Total mass seen by the solver.
  real total_mass() const;

  const tree::topology& topo() const { return topo_; }
  const gravity_options& options() const { return opt_; }
  gravity_options& options() { return opt_; }

  /// Raw moment array of a node (NMOM components x CP stride) — exposed for
  /// tests and diagnostics.
  std::span<const real> raw_moments(index_t node) const {
    return nodes_[node].mom;
  }
  /// Raw expansion array of a node (NEXP components x CP stride).
  std::span<const real> raw_expansions(index_t node) const {
    return nodes_[node].exp;
  }

  /// CRC-32 chained over every node's moment array — the SDC auditor's
  /// moment seal, taken after a solve and re-verified before the moments
  /// are next read or overwritten.
  std::uint32_t moments_crc() const;

  /// Flip one bit of node \p node's moment component (\p coeff mod NMOM)
  /// at cell (\p cell mod C3) — the OCTO_FAULT_MOMENT_BITFLIP injection
  /// point, modeling a soft error at rest in the multipole data.
  void apply_moment_bitflip(index_t node, std::uint64_t coeff,
                            std::uint64_t cell, std::uint64_t bit);

 private:
  struct node_data {
    std::vector<real> mom;  ///< NMOM x CP moments
    std::vector<real> exp;  ///< NEXP x CP expansions
    std::vector<real> out;  ///< 4 x CP: phi, gx, gy, gz (leaves only)
  };

  /// Refinement-boundary bookkeeping (fixed per topology).  The mutual
  /// fine-coarse monopole pass is split into a *pair* phase that writes
  /// private accumulation buffers and an *apply* phase that folds them into
  /// the expansions in deterministic order (own fine-side contribution
  /// first, then clients ascending by node index) — no locks, and bitwise
  /// identical between the barrier and dataflow graphs.
  struct fc_data {
    std::vector<index_t> hosts;    ///< coarser leaf neighbors (fine leaves)
    std::vector<index_t> clients;  ///< finer leaf neighbors, ascending
    std::vector<real> self_acc;    ///< 4 x C3 fine-side accumulator
    std::vector<std::vector<real>> host_acc;  ///< 4 x C3 per host, by hosts[]
  };

  /// Multipole-kernel case of a non-root node (kernels.hpp header).
  enum class m2l_case { full, leaf, mono };

  /// M2L tasks per solve for \p node: m2l_chunks, but at least N row tasks
  /// for the root, whose scalar all-pairs kernel is the longest launch.
  int m2l_tasks(index_t node) const {
    const int nc = std::max(opt_.m2l_chunks, 1);
    return node == topo_.root() ? std::max(nc, N) : nc;
  }

  void compute_m2m(index_t node);
  void compute_m2l(index_t node, int chunk, int nchunks);
  void compute_m2l_root(int row_begin, int row_end);
  void compute_fine_coarse_pairs(index_t node);
  void apply_fine_coarse(index_t node);
  void compute_l2l(index_t node);
  void evaluate_leaf(index_t node);
  bool has_fc_work(index_t node) const {
    const auto& fc = fc_[static_cast<std::size_t>(node)];
    return !fc.hosts.empty() || !fc.clients.empty();
  }

  template <typename P, m2l_case Case>
  void m2l_impl(index_t node, const std::vector<real>& halo, int row_begin,
                int row_end);
  template <typename P>
  void p2p_impl(index_t node, const std::vector<real>& halo,
                const std::vector<real>& nearmask, int row_begin,
                int row_end);

  void build_halo(index_t node, std::vector<real>& halo,
                  std::vector<real>& nearmask) const;

  const tree::topology& topo_;
  gravity_options opt_;
  std::vector<node_data> nodes_;
  std::vector<fc_data> fc_;                   ///< per node
  std::vector<m2l_case> m2l_case_;            ///< per node
  std::vector<std::vector<index_t>> levels_;  ///< node indices per level
};

// ---------------------------------------------------------------------------
// Reference solver
// ---------------------------------------------------------------------------

/// Brute-force direct summation over all leaf cells (monopoles), for
/// accuracy validation on small trees.  Outputs match fmm_solver layout.
class direct_solver {
 public:
  explicit direct_solver(const tree::topology& topo, real G = units::G_code);

  void set_leaf_density(index_t node, std::span<const real> rho);
  void solve();

  std::span<const real> phi(index_t node) const;
  std::span<const real> gx(index_t node) const;
  std::span<const real> gy(index_t node) const;
  std::span<const real> gz(index_t node) const;

 private:
  struct cellrec {
    rvec3 x;
    real m;
  };
  const tree::topology& topo_;
  real G_;
  std::vector<std::vector<real>> mass_;  // per leaf slot in topo.leaves()
  std::vector<std::vector<real>> out_;   // 4 x CP per leaf slot
  std::vector<index_t> leaf_slot_;       // node index -> slot (or -1)
};

}  // namespace octo::gravity
