#include "gravity/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "amt/task_graph.hpp"
#include "apex/race_audit.hpp"
#include "apex/trace.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace octo::gravity {

namespace {

constexpr int N = fmm_solver::N;
constexpr index_t C3 = fmm_solver::C3;
constexpr index_t CP = fmm_solver::CP;

/// Halo: the node's 8^3 cells plus a 3-deep shell from same-level neighbors
/// (the Multipole-kernel stencil reaches 3 cells).
constexpr int HN = N + 6;
constexpr index_t HS = index_t(HN) * HN * HN;
constexpr index_t HP = HS + 8;

constexpr index_t hidx(int i, int j, int k) {
  return (index_t(i + 3) * HN + (j + 3)) * HN + (k + 3);
}

using scalar_pack = octo::simd<real, octo::simd_abi::scalar>;
using vector_pack = octo::simd<real, octo::simd_abi::native<real>>;

/// Same-level interaction stencil.
///
/// A pair of same-level cells interacts at this level iff their *parent*
/// cells are adjacent (Chebyshev distance <= 1 at the parent level) while
/// the cells themselves are not (distance >= 2).  Parent adjacency depends
/// on the target cell's parity q per axis: offset o is parent-adjacent iff
///   q == 0:  o in [-2, 3]        q == 1:  o in [-3, 2].
/// So the union stencil is [-3,3]^3 with Chebyshev >= 2, and the extreme
/// offsets +3 / -3 are valid only for even / odd target parity.  In the
/// SIMD kernel the i/j components filter whole rows and the k component
/// becomes a lane mask.
struct stencil_t {
  std::vector<index_t> lin;                 ///< linear halo offset
  std::vector<std::array<int, 3>> ijk;      ///< (oi, oj, ok)
};

const stencil_t& stencil() {
  static const stencil_t s = [] {
    stencil_t st;
    for (int a = -3; a <= 3; ++a)
      for (int b = -3; b <= 3; ++b)
        for (int c = -3; c <= 3; ++c) {
          const int cheb = std::max({std::abs(a), std::abs(b), std::abs(c)});
          if (cheb < 2) continue;
          st.lin.push_back((index_t(a) * HN + b) * HN + c);
          st.ijk.push_back({a, b, c});
        }
    OCTO_ASSERT(st.lin.size() == 316);
    return st;
  }();
  return s;
}

/// Is offset \p o parent-adjacent for target parity \p q (0 or 1)?
constexpr bool offset_valid(int o, int q) {
  return q == 0 ? (o >= -2 && o <= 3) : (o >= -3 && o <= 2);
}

/// The 26 near-field offsets.
struct near_stencil_t {
  std::vector<index_t> lin;
};

const near_stencil_t& near_stencil() {
  static const near_stencil_t s = [] {
    near_stencil_t st;
    for (int a = -1; a <= 1; ++a)
      for (int b = -1; b <= 1; ++b)
        for (int c = -1; c <= 1; ++c) {
          if (a == 0 && b == 0 && c == 0) continue;
          st.lin.push_back((index_t(a) * HN + b) * HN + c);
        }
    return st;
  }();
  return s;
}

/// Per-thread halo scratch (one Multipole-kernel launch uses one).
struct halo_scratch {
  std::vector<real> halo;      // NMOM x HP
  std::vector<real> nearmask;  // HP
};

halo_scratch& tls_scratch() {
  static thread_local halo_scratch s;
  if (s.halo.empty()) {
    s.halo.assign(static_cast<std::size_t>(NMOM) * HP, 0);
    s.nearmask.assign(static_cast<std::size_t>(HP), 0);
  }
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// construction & inputs
// ---------------------------------------------------------------------------

fmm_solver::fmm_solver(const tree::topology& topo, gravity_options opt)
    : topo_(topo), opt_(opt) {
  nodes_.resize(static_cast<std::size_t>(topo.num_nodes()));
  for (index_t n = 0; n < topo.num_nodes(); ++n) {
    auto& nd = nodes_[n];
    nd.mom.assign(static_cast<std::size_t>(NMOM) * CP, 0);
    nd.exp.assign(static_cast<std::size_t>(NEXP) * CP, 0);
    if (topo.node(n).leaf)
      nd.out.assign(static_cast<std::size_t>(4) * CP, 0);
    // Default COMs: geometric cell centers (zero-mass cells keep these).
    const rvec3 c = topo.center(n);
    const real dx = topo.cell_width(n);
    const real half = real(0.5) * N * dx;
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k) {
          const index_t cell = cell_index(i, j, k);
          nd.mom[mc_cx * CP + cell] = c.x - half + (i + real(0.5)) * dx;
          nd.mom[mc_cy * CP + cell] = c.y - half + (j + real(0.5)) * dx;
          nd.mom[mc_cz * CP + cell] = c.z - half + (k + real(0.5)) * dx;
        }
  }
  levels_.assign(static_cast<std::size_t>(topo.max_depth()) + 1, {});
  for (index_t n = 0; n < topo.num_nodes(); ++n)
    levels_[static_cast<std::size_t>(topo.node(n).level)].push_back(n);

  // Refinement-boundary pair relations (fixed per topology): every fine
  // leaf records its distinct coarser leaf hosts in direction-discovery
  // order; every host records its fine clients ascending by node index.
  fc_.resize(static_cast<std::size_t>(topo.num_nodes()));
  for (const index_t l : topo.leaves()) {
    const tree::tnode& tn = topo.node(l);
    auto& fc = fc_[static_cast<std::size_t>(l)];
    for (int d = 0; d < NNEIGHBOR; ++d) {
      if (tn.neighbors[d] != tree::invalid_node) continue;
      const index_t host = topo.neighbor_or_coarser(l, d);
      if (host == tree::invalid_node) continue;  // domain boundary
      OCTO_CHECK_MSG(topo.node(host).leaf &&
                         topo.node(host).level == tn.level - 1,
                     "2:1 balance violated at node " << l);
      if (std::find(fc.hosts.begin(), fc.hosts.end(), host) ==
          fc.hosts.end())
        fc.hosts.push_back(host);
    }
    if (!fc.hosts.empty()) {
      fc.self_acc.assign(static_cast<std::size_t>(4) * C3, 0);
      fc.host_acc.assign(fc.hosts.size(),
                         std::vector<real>(static_cast<std::size_t>(4) * C3));
    }
  }
  for (const index_t l : topo.leaves())
    for (const index_t h : fc_[static_cast<std::size_t>(l)].hosts)
      fc_[static_cast<std::size_t>(h)].clients.push_back(l);
  for (auto& fc : fc_) std::sort(fc.clients.begin(), fc.clients.end());

  // Multipole-kernel case (kernels.hpp, fixed per topology): a leaf whose
  // existing same-level neighbors are all leaves sees only monopole sources;
  // missing neighbors leave zero-mass halo fill, also a monopole.
  m2l_case_.resize(static_cast<std::size_t>(topo.num_nodes()));
  for (index_t n = 0; n < topo.num_nodes(); ++n) {
    auto& mc = m2l_case_[static_cast<std::size_t>(n)];
    if (!topo.node(n).leaf) {
      mc = m2l_case::full;
      continue;
    }
    mc = m2l_case::mono;
    for (int d = 0; d < NNEIGHBOR; ++d) {
      const index_t nb = topo.neighbor(n, d);
      if (nb != tree::invalid_node && !topo.node(nb).leaf)
        mc = m2l_case::leaf;
    }
  }
}

void fmm_solver::set_leaf_density(index_t node, std::span<const real> rho) {
  OCTO_CHECK(topo_.node(node).leaf);
  OCTO_CHECK(rho.size() == static_cast<std::size_t>(C3));
  auto& nd = nodes_[node];
  const real dx = topo_.cell_width(node);
  const real vol = dx * dx * dx;
  const rvec3 c = topo_.center(node);
  const real half = real(0.5) * N * dx;
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k) {
        const index_t cell = cell_index(i, j, k);
        nd.mom[mc_m * CP + cell] = rho[static_cast<std::size_t>(cell)] * vol;
        nd.mom[mc_cx * CP + cell] = c.x - half + (i + real(0.5)) * dx;
        nd.mom[mc_cy * CP + cell] = c.y - half + (j + real(0.5)) * dx;
        nd.mom[mc_cz * CP + cell] = c.z - half + (k + real(0.5)) * dx;
        for (int s = 0; s < NSYM2; ++s) nd.mom[(mc_q + s) * CP + cell] = 0;
        for (int s = 0; s < NSYM3; ++s) nd.mom[(mc_o + s) * CP + cell] = 0;
      }
}

void fmm_solver::set_leaf_from_subgrid(index_t node, const grid::subgrid& u) {
  std::vector<real> rho(static_cast<std::size_t>(C3));
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k)
        rho[static_cast<std::size_t>(cell_index(i, j, k))] =
            u.at(grid::f_rho, i, j, k);
  set_leaf_density(node, rho);
}

// ---------------------------------------------------------------------------
// M2M (bottom-up)
// ---------------------------------------------------------------------------

void fmm_solver::compute_m2m(index_t node) {
  const tree::tnode& tn = topo_.node(node);
  OCTO_ASSERT(!tn.leaf);
  auto& nd = nodes_[node];
  const rvec3 c = topo_.center(node);
  const real dx = topo_.cell_width(node);
  const real half = real(0.5) * N * dx;

  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      for (int K = 0; K < N; ++K) {
        const index_t cell = cell_index(I, J, K);
        // Which child node holds this parent cell's 2x2x2 fine cells.
        const int ox = I / (N / 2), oy = J / (N / 2), oz = K / (N / 2);
        const int oct = ox + 2 * oy + 4 * oz;
        const auto& cd = nodes_[tn.children[oct]];
        const int fi = 2 * I - N * ox;
        const int fj = 2 * J - N * oy;
        const int fk = 2 * K - N * oz;

        // Gather the 8 children.
        multipole children[8];
        real msum = 0;
        rvec3 mx{0, 0, 0};
        int nc = 0;
        for (int a = 0; a < 2; ++a)
          for (int b = 0; b < 2; ++b)
            for (int g = 0; g < 2; ++g) {
              const index_t f = cell_index(fi + a, fj + b, fk + g);
              multipole& ch = children[nc++];
              ch.m = cd.mom[mc_m * CP + f];
              ch.com = rvec3{cd.mom[mc_cx * CP + f], cd.mom[mc_cy * CP + f],
                             cd.mom[mc_cz * CP + f]};
              for (int s = 0; s < NSYM2; ++s)
                ch.q[s] = cd.mom[(mc_q + s) * CP + f];
              for (int s = 0; s < NSYM3; ++s)
                ch.o[s] = cd.mom[(mc_o + s) * CP + f];
              msum += ch.m;
              mx += ch.m * ch.com;
            }

        multipole parent;
        parent.m = msum;
        parent.com = msum > 0
                         ? mx / msum
                         : rvec3{c.x - half + (I + real(0.5)) * dx,
                                 c.y - half + (J + real(0.5)) * dx,
                                 c.z - half + (K + real(0.5)) * dx};
        for (auto& ch : children) m2m_accumulate(ch, parent);

        nd.mom[mc_m * CP + cell] = parent.m;
        nd.mom[mc_cx * CP + cell] = parent.com.x;
        nd.mom[mc_cy * CP + cell] = parent.com.y;
        nd.mom[mc_cz * CP + cell] = parent.com.z;
        for (int s = 0; s < NSYM2; ++s)
          nd.mom[(mc_q + s) * CP + cell] = parent.q[s];
        for (int s = 0; s < NSYM3; ++s)
          nd.mom[(mc_o + s) * CP + cell] = parent.o[s];
      }
}

// ---------------------------------------------------------------------------
// halo construction
// ---------------------------------------------------------------------------

void fmm_solver::build_halo(index_t node, std::vector<real>& halo,
                            std::vector<real>& nearmask) const {
  // Empty cells: zero mass, far-away COM so r never vanishes.
  for (int comp = 0; comp < NMOM; ++comp) {
    real fillv = 0;
    if (comp == mc_cx || comp == mc_cy || comp == mc_cz) fillv = real(1e30);
    real* h = halo.data() + comp * HP;
    std::fill(h, h + HP, fillv);
  }
  std::fill(nearmask.begin(), nearmask.end(), real(0));

  const auto copy_block = [&](index_t src_node, const ivec3& dir) {
    const auto& sm = nodes_[src_node].mom;
    int slo[3], shi[3], dlo[3];
    for (int a = 0; a < 3; ++a) {
      const int dc = static_cast<int>(dir[a]);
      if (dc > 0) {
        slo[a] = 0;
        shi[a] = 3;
        dlo[a] = N;
      } else if (dc < 0) {
        slo[a] = N - 3;
        shi[a] = N;
        dlo[a] = -3;
      } else {
        slo[a] = 0;
        shi[a] = N;
        dlo[a] = 0;
      }
    }
    const real mask = topo_.node(src_node).leaf ? real(1) : real(0);
    for (int i = slo[0]; i < shi[0]; ++i)
      for (int j = slo[1]; j < shi[1]; ++j)
        for (int k = slo[2]; k < shi[2]; ++k) {
          const index_t s = cell_index(i, j, k);
          const index_t h =
              hidx(dlo[0] + i - slo[0], dlo[1] + j - slo[1],
                   dlo[2] + k - slo[2]);
          for (int comp = 0; comp < NMOM; ++comp)
            halo[comp * HP + h] = sm[comp * CP + s];
          nearmask[static_cast<std::size_t>(h)] = mask;
        }
  };

  copy_block(node, ivec3{0, 0, 0});
  for (int d = 0; d < NNEIGHBOR; ++d) {
    const index_t nb = topo_.neighbor(node, d);
    if (nb != tree::invalid_node) copy_block(nb, tree::directions()[d]);
  }
}

// ---------------------------------------------------------------------------
// M2L: the Multipole kernel
// ---------------------------------------------------------------------------

template <typename P, fmm_solver::m2l_case Case>
void fmm_solver::m2l_impl(index_t node, const std::vector<real>& halo,
                          int row_begin, int row_end) {
  constexpr bool full = Case == m2l_case::full;
  constexpr bool mono = Case == m2l_case::mono;
  auto& nd = nodes_[node];
  const auto& st = stencil();
  const int W = P::size();
  const real G = opt_.G;

  for (int row = row_begin; row < row_end; ++row) {
    const int i = row / N;
    const int j = row % N;
    for (int k = 0; k < N; k += W) {
      const index_t cell = cell_index(i, j, k);
      P tx, ty, tz;
      tx.copy_from(nd.mom.data() + mc_cx * CP + cell);
      ty.copy_from(nd.mom.data() + mc_cy * CP + cell);
      tz.copy_from(nd.mom.data() + mc_cz * CP + cell);

      // Lane masks for the parity-dependent +/-3 k-offsets: lane l handles
      // cell k + l, so its parity is (k + l) & 1.
      P even_mask, odd_mask;
      for (int l = 0; l < W; ++l) {
        const bool even = ((k + l) & 1) == 0;
        even_mask.set(l, even ? real(1) : real(0));
        odd_mask.set(l, even ? real(0) : real(1));
      }

      pack_expansion<P> acc;
      const index_t hb = hidx(i, j, k);
      for (std::size_t s = 0; s < st.lin.size(); ++s) {
        const auto [oi, oj, ok] = st.ijk[s];
        if (!offset_valid(oi, i & 1) || !offset_valid(oj, j & 1)) continue;
        const index_t h = hb + st.lin[s];
        pack_multipole<P> src;
        src.m.copy_from(halo.data() + mc_m * HP + h);
        src.cx.copy_from(halo.data() + mc_cx * HP + h);
        src.cy.copy_from(halo.data() + mc_cy * HP + h);
        src.cz.copy_from(halo.data() + mc_cz * HP + h);
        if constexpr (!mono) {
          for (int q = 0; q < NSYM2; ++q)
            src.q[q].copy_from(halo.data() + (mc_q + q) * HP + h);
          for (int o = 0; o < NSYM3; ++o)
            src.o[o].copy_from(halo.data() + (mc_o + o) * HP + h);
        }

        if (ok == 3 || ok == -3) {
          // Valid only for even (+3) or odd (-3) target parity lanes:
          // zero the source moments on the other lanes.
          const P mask = (ok == 3) ? even_mask : odd_mask;
          src.m *= mask;
          if constexpr (!mono) {
            for (int q = 0; q < NSYM2; ++q) src.q[q] *= mask;
            for (int o = 0; o < NSYM3; ++o) src.o[o] *= mask;
          }
        }

        pack_derivs<P> d;
        compute_derivs<mono ? 1 : 3>(tx - src.cx, ty - src.cy, tz - src.cz, G,
                                     d);
        if constexpr (mono) {
          m2l_mono_pack(src.m, d, acc);
        } else {
          m2l_pack<P, full>(src, d, acc);
        }
      }

      // Accumulate into the node's expansion arrays (exclusive rows).
      const auto add = [&](int comp, const P& v) {
        P cur;
        cur.copy_from(nd.exp.data() + comp * CP + cell);
        cur += v;
        cur.copy_to(nd.exp.data() + comp * CP + cell);
      };
      add(ec_l0, acc.l0);
      for (int a = 0; a < 3; ++a) add(ec_l1 + a, acc.l1[a]);
      if constexpr (full) {
        for (int s = 0; s < NSYM2; ++s) add(ec_l2 + s, acc.l2[s]);
        for (int s = 0; s < NSYM3; ++s) add(ec_l3 + s, acc.l3[s]);
      }
    }
  }
}

template <typename P>
void fmm_solver::p2p_impl(index_t node, const std::vector<real>& halo,
                          const std::vector<real>& nearmask, int row_begin,
                          int row_end) {
  auto& nd = nodes_[node];
  const auto& st = near_stencil();
  const int W = P::size();
  const real G = opt_.G;

  for (int row = row_begin; row < row_end; ++row) {
    const int i = row / N;
    const int j = row % N;
      for (int k = 0; k < N; k += W) {
        const index_t cell = cell_index(i, j, k);
        P tx, ty, tz;
        tx.copy_from(nd.mom.data() + mc_cx * CP + cell);
        ty.copy_from(nd.mom.data() + mc_cy * CP + cell);
        tz.copy_from(nd.mom.data() + mc_cz * CP + cell);
        pack_expansion<P> acc;
        const index_t hb = hidx(i, j, k);
        for (const index_t off : st.lin) {
          const index_t h = hb + off;
          P m, sx, sy, sz, mask;
          m.copy_from(halo.data() + mc_m * HP + h);
          mask.copy_from(nearmask.data() + h);
          sx.copy_from(halo.data() + mc_cx * HP + h);
          sy.copy_from(halo.data() + mc_cy * HP + h);
          sz.copy_from(halo.data() + mc_cz * HP + h);
          p2p_pack(m * mask, tx - sx, ty - sy, tz - sz, G, acc);
        }
        const auto add = [&](int comp, const P& v) {
          P cur;
          cur.copy_from(nd.exp.data() + comp * CP + cell);
          cur += v;
          cur.copy_to(nd.exp.data() + comp * CP + cell);
        };
        add(ec_l0, acc.l0);
        for (int a = 0; a < 3; ++a) add(ec_l1 + a, acc.l1[a]);
      }
  }
}

void fmm_solver::compute_m2l(index_t node, int chunk, int nchunks) {
  const int rows = N * N;
  const int rb = rows * chunk / nchunks;
  const int re = rows * (chunk + 1) / nchunks;
  const bool leaf = topo_.node(node).leaf;
  auto& scratch = tls_scratch();
  // The root's all-pairs M2L reads its moments directly; its halo only
  // feeds the P2P of a root that is itself a leaf.
  if (node != topo_.root() || leaf)
    build_halo(node, scratch.halo, scratch.nearmask);
  const auto launch = [&](auto pack) {
    using P = decltype(pack);
    switch (m2l_case_[static_cast<std::size_t>(node)]) {
      case m2l_case::full:
        m2l_impl<P, m2l_case::full>(node, scratch.halo, rb, re);
        break;
      case m2l_case::leaf:
        m2l_impl<P, m2l_case::leaf>(node, scratch.halo, rb, re);
        break;
      case m2l_case::mono:
        m2l_impl<P, m2l_case::mono>(node, scratch.halo, rb, re);
        break;
    }
  };
  if (node == topo_.root()) {
    compute_m2l_root(rb, re);
  } else if (opt_.use_simd) {
    launch(vector_pack{});
  } else {
    launch(scalar_pack{});
  }
  // Near field on leaves, over the same (disjoint) row range so chunked
  // launches never race on the expansion arrays.
  if (leaf) {
    if (opt_.use_simd) {
      p2p_impl<vector_pack>(node, scratch.halo, scratch.nearmask, rb, re);
    } else {
      p2p_impl<scalar_pack>(node, scratch.halo, scratch.nearmask, rb, re);
    }
  }
}

/// The root has no parent to inherit far-field interactions from, so its
/// cell pairs interact over the full [-7,7] offset range (Chebyshev >= 2;
/// nearer pairs are either deferred to children or, when the root is a
/// leaf, handled by its own P2P pass).  Rows [row_begin, row_end) of
/// targets only: row tasks write disjoint cells.
void fmm_solver::compute_m2l_root(int row_begin, int row_end) {
  const index_t node = topo_.root();
  auto& nd = nodes_[node];
  const bool full = !topo_.node(node).leaf;
  const real G = opt_.G;

  for (int row = row_begin; row < row_end; ++row) {
    const int ti = row / N;
    const int tj = row % N;
    for (int tk = 0; tk < N; ++tk) {
      const index_t t = cell_index(ti, tj, tk);
      const rvec3 xt{nd.mom[mc_cx * CP + t], nd.mom[mc_cy * CP + t],
                     nd.mom[mc_cz * CP + t]};
      expansion acc;
      for (int si = 0; si < N; ++si)
        for (int sj = 0; sj < N; ++sj)
          for (int sk = 0; sk < N; ++sk) {
            const int cheb = std::max(
                {std::abs(si - ti), std::abs(sj - tj), std::abs(sk - tk)});
            if (cheb < 2) continue;
            const index_t s = cell_index(si, sj, sk);
            multipole src;
            src.m = nd.mom[mc_m * CP + s];
            src.com = rvec3{nd.mom[mc_cx * CP + s], nd.mom[mc_cy * CP + s],
                            nd.mom[mc_cz * CP + s]};
            for (int q = 0; q < NSYM2; ++q)
              src.q[q] = nd.mom[(mc_q + q) * CP + s];
            for (int o = 0; o < NSYM3; ++o)
              src.o[o] = nd.mom[(mc_o + o) * CP + s];
            const deriv_tensors d = derivatives(xt - src.com, G);
            m2l_accumulate(src, d, acc);
          }
      nd.exp[ec_l0 * CP + t] += acc.l0;
      for (int a = 0; a < 3; ++a) nd.exp[(ec_l1 + a) * CP + t] += acc.l1[a];
      if (full) {
        for (int s2 = 0; s2 < NSYM2; ++s2)
          nd.exp[(ec_l2 + s2) * CP + t] += acc.l2[s2];
        for (int s3 = 0; s3 < NSYM3; ++s3)
          nd.exp[(ec_l3 + s3) * CP + t] += acc.l3[s3];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// refinement boundaries: mutual fine-coarse monopole pairs
// ---------------------------------------------------------------------------

/// Pair phase: compute this fine leaf's mutual monopole interactions with
/// each coarser host into *private* buffers (self_acc for the fine side,
/// host_acc[h] for each coarse side).  No shared state is touched, so every
/// fine leaf's pair task runs lock-free and in any order.
void fmm_solver::compute_fine_coarse_pairs(index_t node) {
  const tree::tnode& tn = topo_.node(node);
  OCTO_ASSERT(tn.leaf);
  auto& fcd = fc_[static_cast<std::size_t>(node)];
  if (fcd.hosts.empty()) return;

  auto& fd = nodes_[node];
  const ivec3 fc = tree::code_coords(tn.code);
  const real G = opt_.G;

  std::vector<real>& facc = fcd.self_acc;
  std::fill(facc.begin(), facc.end(), real(0));

  for (std::size_t hi = 0; hi < fcd.hosts.size(); ++hi) {
    const index_t cn = fcd.hosts[hi];
    auto& cd = nodes_[cn];
    const ivec3 cc = tree::code_coords(topo_.node(cn).code);
    std::vector<real>& cacc = fcd.host_acc[hi];
    std::fill(cacc.begin(), cacc.end(), real(0));

    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k) {
          const index_t fcell = cell_index(i, j, k);
          const real mf = fd.mom[mc_m * CP + fcell];
          const rvec3 xf{fd.mom[mc_cx * CP + fcell],
                         fd.mom[mc_cy * CP + fcell],
                         fd.mom[mc_cz * CP + fcell]};
          // Parent cell (level-1 units) of this fine cell.
          const index_t gp[3] = {(fc.x * N + i) / 2, (fc.y * N + j) / 2,
                                 (fc.z * N + k) / 2};
          // Coarse cells adjacent to the parent cell.
          int jlo[3], jhi[3];
          bool any = true;
          for (int a = 0; a < 3; ++a) {
            const index_t base = (a == 0 ? cc.x : (a == 1 ? cc.y : cc.z)) * N;
            jlo[a] = static_cast<int>(std::max<index_t>(gp[a] - 1 - base, 0));
            jhi[a] =
                static_cast<int>(std::min<index_t>(gp[a] + 1 - base, N - 1));
            if (jlo[a] > jhi[a]) any = false;
          }
          if (!any) continue;
          for (int ci = jlo[0]; ci <= jhi[0]; ++ci)
            for (int cj = jlo[1]; cj <= jhi[1]; ++cj)
              for (int ck = jlo[2]; ck <= jhi[2]; ++ck) {
                const index_t ccell = cell_index(ci, cj, ck);
                const real mc = cd.mom[mc_m * CP + ccell];
                const rvec3 xc{cd.mom[mc_cx * CP + ccell],
                               cd.mom[mc_cy * CP + ccell],
                               cd.mom[mc_cz * CP + ccell]};
                const rvec3 r = xf - xc;  // target (fine) minus source
                const real r2 = dot(r, r);
                const real rinv = real(1) / std::sqrt(r2);
                const real rinv3 = rinv * rinv * rinv;
                // fine side: phi += -G mc / r, L1 += G mc r / r^3
                facc[0 * C3 + fcell] += -G * mc * rinv;
                facc[1 * C3 + fcell] += G * mc * rinv3 * r.x;
                facc[2 * C3 + fcell] += G * mc * rinv3 * r.y;
                facc[3 * C3 + fcell] += G * mc * rinv3 * r.z;
                // coarse side: flipped r
                cacc[0 * C3 + ccell] += -G * mf * rinv;
                cacc[1 * C3 + ccell] -= G * mf * rinv3 * r.x;
                cacc[2 * C3 + ccell] -= G * mf * rinv3 * r.y;
                cacc[3 * C3 + ccell] -= G * mf * rinv3 * r.z;
              }
        }
  }
}

/// Apply phase: fold the pair buffers into node's expansions in a fixed
/// order — own fine-side buffer first, then each client's coarse-side
/// buffer ascending by client node index.  Each node's expansions are
/// written by exactly one apply task, so the accumulation order (and hence
/// the floating-point result) is deterministic with no locking.
void fmm_solver::apply_fine_coarse(index_t node) {
  auto& nd = nodes_[node];
  const auto& fcd = fc_[static_cast<std::size_t>(node)];
  const auto add4 = [&](const std::vector<real>& acc) {
    for (index_t c = 0; c < C3; ++c) {
      nd.exp[ec_l0 * CP + c] += acc[static_cast<std::size_t>(0 * C3 + c)];
      nd.exp[(ec_l1 + 0) * CP + c] += acc[static_cast<std::size_t>(1 * C3 + c)];
      nd.exp[(ec_l1 + 1) * CP + c] += acc[static_cast<std::size_t>(2 * C3 + c)];
      nd.exp[(ec_l1 + 2) * CP + c] += acc[static_cast<std::size_t>(3 * C3 + c)];
    }
  };
  if (!fcd.hosts.empty()) add4(fcd.self_acc);
  for (const index_t f : fcd.clients) {
    const auto& ffc = fc_[static_cast<std::size_t>(f)];
    const auto it = std::find(ffc.hosts.begin(), ffc.hosts.end(), node);
    OCTO_ASSERT(it != ffc.hosts.end());
    add4(ffc.host_acc[static_cast<std::size_t>(it - ffc.hosts.begin())]);
  }
}

// ---------------------------------------------------------------------------
// L2L (top-down) and evaluation
// ---------------------------------------------------------------------------

void fmm_solver::compute_l2l(index_t node) {
  // Shift this (child) node's cells from the parent's expansions.
  const tree::tnode& tn = topo_.node(node);
  if (tn.parent == tree::invalid_node) return;
  auto& nd = nodes_[node];
  const auto& pd = nodes_[tn.parent];
  const ivec3 nc = tree::code_coords(tn.code);
  const ivec3 pc = tree::code_coords(topo_.node(tn.parent).code);

  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k) {
        const index_t cell = cell_index(i, j, k);
        const index_t gp[3] = {(nc.x * N + i) / 2, (nc.y * N + j) / 2,
                               (nc.z * N + k) / 2};
        const int pi = static_cast<int>(gp[0] - pc.x * N);
        const int pj = static_cast<int>(gp[1] - pc.y * N);
        const int pk = static_cast<int>(gp[2] - pc.z * N);
        const index_t pcell = cell_index(pi, pj, pk);

        expansion pin;
        pin.l0 = pd.exp[ec_l0 * CP + pcell];
        for (int a = 0; a < 3; ++a)
          pin.l1[a] = pd.exp[(ec_l1 + a) * CP + pcell];
        for (int s = 0; s < NSYM2; ++s)
          pin.l2[s] = pd.exp[(ec_l2 + s) * CP + pcell];
        for (int s = 0; s < NSYM3; ++s)
          pin.l3[s] = pd.exp[(ec_l3 + s) * CP + pcell];

        const rvec3 child_com{nd.mom[mc_cx * CP + cell],
                              nd.mom[mc_cy * CP + cell],
                              nd.mom[mc_cz * CP + cell]};
        const rvec3 parent_com{pd.mom[mc_cx * CP + pcell],
                               pd.mom[mc_cy * CP + pcell],
                               pd.mom[mc_cz * CP + pcell]};
        expansion shifted;
        l2l_shift(pin, child_com - parent_com, shifted);

        nd.exp[ec_l0 * CP + cell] += shifted.l0;
        for (int a = 0; a < 3; ++a)
          nd.exp[(ec_l1 + a) * CP + cell] += shifted.l1[a];
        for (int s = 0; s < NSYM2; ++s)
          nd.exp[(ec_l2 + s) * CP + cell] += shifted.l2[s];
        for (int s = 0; s < NSYM3; ++s)
          nd.exp[(ec_l3 + s) * CP + cell] += shifted.l3[s];
      }
}

void fmm_solver::evaluate_leaf(index_t node) {
  auto& nd = nodes_[node];
  for (index_t c = 0; c < C3; ++c) {
    nd.out[0 * CP + c] = nd.exp[ec_l0 * CP + c];
    nd.out[1 * CP + c] = -nd.exp[(ec_l1 + 0) * CP + c];
    nd.out[2 * CP + c] = -nd.exp[(ec_l1 + 1) * CP + c];
    nd.out[3 * CP + c] = -nd.exp[(ec_l1 + 2) * CP + c];
  }
}

// ---------------------------------------------------------------------------
// solve: one task graph, barriered or dependency-driven
// ---------------------------------------------------------------------------

void fmm_solver::solve(const exec::amt_space& space) {
  amt::task_graph g(space.runtime(), /*barrier=*/true);
  build_solve(g, std::vector<amt::shared_future<void>>(
                     static_cast<std::size_t>(topo_.num_nodes())));
  if (auto e = g.drain()) std::rethrow_exception(e);
}

fmm_solver::solve_graph fmm_solver::build_solve(
    amt::task_graph& g, const std::vector<amt::shared_future<void>>& mom_ready,
    const solve_graph* prev) {
  const auto nn = static_cast<std::size_t>(topo_.num_nodes());
  OCTO_CHECK(mom_ready.size() == nn);
  OCTO_CHECK(prev == nullptr ||
             (prev->mom_free.size() == nn && prev->exp_free.size() == nn));

  using sf = amt::shared_future<void>;
  solve_graph out;
  out.mom_free.resize(nn);
  out.exp_free.resize(nn);
  out.leaf_out.resize(nn);

  // Zero pass: one task per node, gated on the previous solve being done
  // with that node's expansions (WAW across RK stages).
  std::vector<sf> zero(nn);
  for (index_t n = 0; n < topo_.num_nodes(); ++n) {
    auto deps = g.edges();
    if (prev != nullptr)
      deps.push_back(prev->exp_free[static_cast<std::size_t>(n)]);
    zero[static_cast<std::size_t>(n)] = g.add(
        "zero", apex::access_set{}.w(apex::rgn::expansion, n),
        [this, n] {
          std::fill(nodes_[n].exp.begin(), nodes_[n].exp.end(), real(0));
        },
        std::move(deps));
  }
  g.join();

  // mom_set[n]: leaf -> the caller's set-density edge; interior -> an M2M
  // task chained on the children's mom_set (the bottom-up traversal as
  // parent-on-child dependencies, or one join per level when barriered).
  std::vector<sf> mom_set(nn);
  for (int lvl = static_cast<int>(levels_.size()) - 1; lvl >= 0; --lvl) {
    for (const index_t n : levels_[static_cast<std::size_t>(lvl)]) {
      const auto ni = static_cast<std::size_t>(n);
      if (topo_.node(n).leaf) {
        mom_set[ni] = mom_ready[ni];
        continue;
      }
      auto deps = g.edges();
      apex::access_set fp;
      fp.w(apex::rgn::moment, n);
      for (const index_t ch : topo_.node(n).children) {
        deps.push_back(mom_set[static_cast<std::size_t>(ch)]);
        fp.r(apex::rgn::moment, ch);
      }
      if (prev != nullptr) deps.push_back(prev->mom_free[ni]);
      mom_set[ni] = g.add(
          "M2M", std::move(fp),
          [this, n] {
            const apex::scoped_trace_span span("gravity.m2m");
            compute_m2m(n);
          },
          std::move(deps));
    }
    g.join();
  }

  // M2L per (node, chunk), leaf P2P fused over the same disjoint rows —
  // ready once the node is zeroed and the node's + same-level neighbors'
  // moments are set.  The root's all-pairs kernel (compute_m2l_root) is
  // split into at least N row tasks so it does not serialize the solve.
  std::vector<std::vector<sf>> m2l(nn);
  for (index_t n = 0; n < topo_.num_nodes(); ++n) {
    const auto ni = static_cast<std::size_t>(n);
    const int nc = m2l_tasks(n);
    auto deps = g.edges();
    deps.push_back(zero[ni]);
    deps.push_back(mom_set[ni]);
    apex::access_set fp_moms;
    fp_moms.r(apex::rgn::moment, n);
    if (n != topo_.root()) {
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t nb = topo_.neighbor(n, d);
        if (nb != tree::invalid_node) {
          deps.push_back(mom_set[static_cast<std::size_t>(nb)]);
          fp_moms.r(apex::rgn::moment, nb);
        }
      }
    }
    m2l[ni].reserve(static_cast<std::size_t>(nc));
    for (int c = 0; c < nc; ++c) {
      // Chunked launches write disjoint expansion rows of n: part = chunk.
      apex::access_set fp = fp_moms;
      fp.w(apex::rgn::expansion, n, nc == 1 ? apex::any_part : c);
      m2l[ni].push_back(g.add(
          "M2L", std::move(fp),
          [this, n, c, nc] {
            const apex::scoped_trace_span span("gravity.m2l");
            compute_m2l(n, c, nc);
          },
          deps));
    }
  }
  g.join();

  // Fine-coarse pair tasks write private buffers; the buffers are re-read
  // by the *previous* solve's applies, so re-filling waits for those too.
  std::vector<sf> fcpair(nn);
  for (const index_t l : topo_.leaves()) {
    const auto li = static_cast<std::size_t>(l);
    const auto& fcd = fc_[li];
    if (fcd.hosts.empty()) continue;
    auto deps = g.edges();
    apex::access_set fp;
    fp.r(apex::rgn::moment, l).w(apex::rgn::fcbuf, l);
    deps.push_back(mom_set[li]);
    for (const index_t h : fcd.hosts) {
      deps.push_back(mom_set[static_cast<std::size_t>(h)]);
      fp.r(apex::rgn::moment, h);
    }
    if (prev != nullptr) {
      deps.push_back(prev->exp_free[li]);
      for (const index_t h : fcd.hosts)
        deps.push_back(prev->exp_free[static_cast<std::size_t>(h)]);
    }
    fcpair[li] = g.add(
        "fc-pair", std::move(fp),
        [this, l] {
          const apex::scoped_trace_span span("gravity.fine_coarse");
          compute_fine_coarse_pairs(l);
        },
        std::move(deps));
  }
  g.join();

  // Apply tasks fold the pair buffers into the expansions after every M2L
  // chunk of the node (the same per-cell accumulation order either way).
  std::vector<sf> fcapply(nn);
  for (index_t n = 0; n < topo_.num_nodes(); ++n) {
    const auto ni = static_cast<std::size_t>(n);
    if (!has_fc_work(n)) continue;
    auto deps = g.edges();
    for (const auto& t : m2l[ni]) deps.push_back(t);
    apex::access_set fp;
    fp.w(apex::rgn::expansion, n);
    if (fcpair[ni].valid()) {
      deps.push_back(fcpair[ni]);
      fp.r(apex::rgn::fcbuf, n);
    }
    for (const index_t f : fc_[ni].clients) {
      deps.push_back(fcpair[static_cast<std::size_t>(f)]);
      fp.r(apex::rgn::fcbuf, f);
    }
    fcapply[ni] = g.add(
        "fc-apply", std::move(fp),
        [this, n] {
          const apex::scoped_trace_span span("gravity.fine_coarse_apply");
          apply_fine_coarse(n);
        },
        std::move(deps));
  }
  g.join();

  // L2L child-on-parent: a node's expansions are complete (exp_done) once
  // its M2L chunks, fine-coarse apply and own L2L shift have run; each
  // child's L2L waits on the parent's exp_done (barriered: on the level
  // join).
  std::vector<sf> exp_done(nn);
  std::vector<sf> l2l(nn);
  for (std::size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    for (const index_t n : levels_[lvl]) {
      const auto ni = static_cast<std::size_t>(n);
      if (n == topo_.root()) {
        auto deps = g.edges();
        for (const auto& t : m2l[ni]) deps.push_back(t);
        if (fcapply[ni].valid()) deps.push_back(fcapply[ni]);
        exp_done[ni] = g.when_all(std::move(deps));
        continue;
      }
      const index_t par = topo_.node(n).parent;
      auto deps = g.edges();
      deps.push_back(exp_done[static_cast<std::size_t>(par)]);
      for (const auto& t : m2l[ni]) deps.push_back(t);
      if (fcapply[ni].valid()) deps.push_back(fcapply[ni]);
      l2l[ni] = g.add(
          "L2L",
          apex::access_set{}
              .r(apex::rgn::expansion, par)
              .r(apex::rgn::moment, n)
              .r(apex::rgn::moment, par)
              .w(apex::rgn::expansion, n),
          [this, n] {
            const apex::scoped_trace_span span("gravity.l2l");
            compute_l2l(n);
          },
          std::move(deps));
      exp_done[ni] = l2l[ni];
    }
    g.join();
  }

  // Leaf evaluation: phi/g out the moment the leaf's expansions settle.
  for (const index_t l : topo_.leaves()) {
    const auto li = static_cast<std::size_t>(l);
    auto deps = g.edges();
    deps.push_back(exp_done[li]);
    out.leaf_out[li] = g.add(
        "evaluate",
        apex::access_set{}.r(apex::rgn::expansion, l).w(apex::rgn::gout, l),
        [this, l] {
          const apex::scoped_trace_span span("gravity.evaluate_leaf");
          evaluate_leaf(l);
        },
        std::move(deps));
  }
  g.join();

  // mom_free[n]: every reader of n's moments — the parent's M2M, the M2L
  // launches of n and its neighbors (halo), the fine-coarse pair tasks on
  // either side, and the L2L shifts of n (own + parent COMs) and of its
  // children (which read n's COMs).
  for (index_t n = 0; n < topo_.num_nodes(); ++n) {
    const auto ni = static_cast<std::size_t>(n);
    const tree::tnode& tn = topo_.node(n);
    auto readers = g.edges();
    if (tn.parent != tree::invalid_node)
      readers.push_back(mom_set[static_cast<std::size_t>(tn.parent)]);
    for (const auto& t : m2l[ni]) readers.push_back(t);
    for (int d = 0; d < NNEIGHBOR; ++d) {
      const index_t nb = topo_.neighbor(n, d);
      if (nb == tree::invalid_node) continue;
      for (const auto& t : m2l[static_cast<std::size_t>(nb)])
        readers.push_back(t);
    }
    if (fcpair[ni].valid()) readers.push_back(fcpair[ni]);
    for (const index_t f : fc_[ni].clients)
      readers.push_back(fcpair[static_cast<std::size_t>(f)]);
    if (l2l[ni].valid()) readers.push_back(l2l[ni]);
    if (!tn.leaf)
      for (const index_t ch : tn.children)
        readers.push_back(l2l[static_cast<std::size_t>(ch)]);
    out.mom_free[ni] = g.when_all(std::move(readers));
  }

  // exp_free[n]: leaves are done once evaluated; interior expansions are
  // last read by the children's L2L shifts.
  for (index_t n = 0; n < topo_.num_nodes(); ++n) {
    const auto ni = static_cast<std::size_t>(n);
    const tree::tnode& tn = topo_.node(n);
    if (tn.leaf) {
      out.exp_free[ni] = out.leaf_out[ni];
    } else {
      auto readers = g.edges();
      for (const index_t ch : tn.children)
        readers.push_back(l2l[static_cast<std::size_t>(ch)]);
      out.exp_free[ni] = g.when_all(std::move(readers));
    }
  }

  return out;
}

// ---------------------------------------------------------------------------
// outputs & diagnostics
// ---------------------------------------------------------------------------

std::span<const real> fmm_solver::phi(index_t node) const {
  return {nodes_[node].out.data() + 0 * CP, static_cast<std::size_t>(C3)};
}
std::span<const real> fmm_solver::gx(index_t node) const {
  return {nodes_[node].out.data() + 1 * CP, static_cast<std::size_t>(C3)};
}
std::span<const real> fmm_solver::gy(index_t node) const {
  return {nodes_[node].out.data() + 2 * CP, static_cast<std::size_t>(C3)};
}
std::span<const real> fmm_solver::gz(index_t node) const {
  return {nodes_[node].out.data() + 3 * CP, static_cast<std::size_t>(C3)};
}

rvec3 fmm_solver::total_force() const {
  rvec3 f{0, 0, 0};
  for (const index_t n : topo_.leaves()) {
    const auto& nd = nodes_[n];
    for (index_t c = 0; c < C3; ++c) {
      const real m = nd.mom[mc_m * CP + c];
      f += m * rvec3{nd.out[1 * CP + c], nd.out[2 * CP + c],
                     nd.out[3 * CP + c]};
    }
  }
  return f;
}

rvec3 fmm_solver::total_torque() const {
  rvec3 t{0, 0, 0};
  for (const index_t n : topo_.leaves()) {
    const auto& nd = nodes_[n];
    for (index_t c = 0; c < C3; ++c) {
      const real m = nd.mom[mc_m * CP + c];
      const rvec3 x{nd.mom[mc_cx * CP + c], nd.mom[mc_cy * CP + c],
                    nd.mom[mc_cz * CP + c]};
      const rvec3 g{nd.out[1 * CP + c], nd.out[2 * CP + c],
                    nd.out[3 * CP + c]};
      t += cross(x, m * g);
    }
  }
  return t;
}

real fmm_solver::potential_energy() const {
  real w = 0;
  for (const index_t n : topo_.leaves()) {
    const auto& nd = nodes_[n];
    for (index_t c = 0; c < C3; ++c)
      w += real(0.5) * nd.mom[mc_m * CP + c] * nd.out[0 * CP + c];
  }
  return w;
}

real fmm_solver::total_mass() const {
  real m = 0;
  for (const index_t n : topo_.leaves()) {
    const auto& nd = nodes_[n];
    for (index_t c = 0; c < C3; ++c) m += nd.mom[mc_m * CP + c];
  }
  return m;
}

std::uint32_t fmm_solver::moments_crc() const {
  std::uint32_t c = 0;
  for (const auto& nd : nodes_)
    c = crc32(nd.mom.data(), nd.mom.size() * sizeof(real), c);
  return c;
}

void fmm_solver::apply_moment_bitflip(index_t node, std::uint64_t coeff,
                                      std::uint64_t cell, std::uint64_t bit) {
  auto& mom = nodes_[node].mom;
  real& v = mom[static_cast<std::size_t>(coeff % NMOM) * CP +
                static_cast<std::size_t>(cell % static_cast<std::uint64_t>(
                                                    C3))];
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(real));
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= std::uint64_t(1) << (bit % 64);
  std::memcpy(&v, &bits, sizeof(bits));
}

// ---------------------------------------------------------------------------
// direct reference solver
// ---------------------------------------------------------------------------

direct_solver::direct_solver(const tree::topology& topo, real G)
    : topo_(topo), G_(G) {
  const auto nleaves = static_cast<std::size_t>(topo.num_leaves());
  mass_.assign(nleaves, std::vector<real>(static_cast<std::size_t>(
                            fmm_solver::C3)));
  out_.assign(nleaves, std::vector<real>(
                           static_cast<std::size_t>(4 * fmm_solver::CP), 0));
  leaf_slot_.assign(static_cast<std::size_t>(topo.num_nodes()), -1);
  for (std::size_t s = 0; s < nleaves; ++s)
    leaf_slot_[static_cast<std::size_t>(topo.leaves()[s])] =
        static_cast<index_t>(s);
}

void direct_solver::set_leaf_density(index_t node, std::span<const real> rho) {
  const index_t slot = leaf_slot_[static_cast<std::size_t>(node)];
  OCTO_CHECK(slot >= 0);
  const real dx = topo_.cell_width(node);
  const real vol = dx * dx * dx;
  auto& m = mass_[static_cast<std::size_t>(slot)];
  for (index_t c = 0; c < fmm_solver::C3; ++c)
    m[static_cast<std::size_t>(c)] = rho[static_cast<std::size_t>(c)] * vol;
}

void direct_solver::solve() {
  constexpr int N = fmm_solver::N;
  struct cellrec {
    rvec3 x;
    real m;
  };
  std::vector<cellrec> cells;
  std::vector<std::pair<std::size_t, index_t>> where;  // (slot, cell)
  for (std::size_t s = 0; s < mass_.size(); ++s) {
    const index_t node = topo_.leaves()[s];
    const rvec3 c = topo_.center(node);
    const real dx = topo_.cell_width(node);
    const real half = real(0.5) * N * dx;
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k) {
          const index_t cell = fmm_solver::cell_index(i, j, k);
          cells.push_back(
              {rvec3{c.x - half + (i + real(0.5)) * dx,
                     c.y - half + (j + real(0.5)) * dx,
                     c.z - half + (k + real(0.5)) * dx},
               mass_[s][static_cast<std::size_t>(cell)]});
          where.emplace_back(s, cell);
        }
  }
  const std::size_t n = cells.size();
  for (std::size_t a = 0; a < n; ++a) {
    real phi = 0;
    rvec3 g{0, 0, 0};
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const rvec3 r = cells[a].x - cells[b].x;
      const real rinv = real(1) / norm(r);
      const real rinv3 = rinv * rinv * rinv;
      phi -= G_ * cells[b].m * rinv;
      g -= G_ * cells[b].m * rinv3 * r;
    }
    auto& o = out_[where[a].first];
    o[static_cast<std::size_t>(0 * fmm_solver::CP + where[a].second)] = phi;
    o[static_cast<std::size_t>(1 * fmm_solver::CP + where[a].second)] = g.x;
    o[static_cast<std::size_t>(2 * fmm_solver::CP + where[a].second)] = g.y;
    o[static_cast<std::size_t>(3 * fmm_solver::CP + where[a].second)] = g.z;
  }
}

std::span<const real> direct_solver::phi(index_t node) const {
  const auto& o = out_[static_cast<std::size_t>(
      leaf_slot_[static_cast<std::size_t>(node)])];
  return {o.data(), static_cast<std::size_t>(fmm_solver::C3)};
}
std::span<const real> direct_solver::gx(index_t node) const {
  const auto& o = out_[static_cast<std::size_t>(
      leaf_slot_[static_cast<std::size_t>(node)])];
  return {o.data() + fmm_solver::CP, static_cast<std::size_t>(fmm_solver::C3)};
}
std::span<const real> direct_solver::gy(index_t node) const {
  const auto& o = out_[static_cast<std::size_t>(
      leaf_slot_[static_cast<std::size_t>(node)])];
  return {o.data() + 2 * fmm_solver::CP,
          static_cast<std::size_t>(fmm_solver::C3)};
}
std::span<const real> direct_solver::gz(index_t node) const {
  const auto& o = out_[static_cast<std::size_t>(
      leaf_slot_[static_cast<std::size_t>(node)])];
  return {o.data() + 3 * fmm_solver::CP,
          static_cast<std::size_t>(fmm_solver::C3)};
}

}  // namespace octo::gravity
