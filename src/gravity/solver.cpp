#include "gravity/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "amt/task_graph.hpp"
#include "apex/race_audit.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace octo::gravity {

namespace {

constexpr int N = fmm_solver::N;
constexpr index_t C3 = fmm_solver::C3;
constexpr index_t CP = fmm_solver::CP;

/// Halo: the node's 8^3 cells plus a 3-deep shell from same-level neighbors
/// (the Multipole-kernel stencil reaches 3 cells), k-deinterleaved: each
/// (i, j) row holds its even-k cells, then its odd-k cells, HK/2 slots per
/// parity, slot kk of parity p holding k = 2 kk - 4 + p (the slots of
/// k = -4 and k = N + 3 are never read).  A parity-class target pack then
/// meets, for every stencil offset, a contiguous run of sources.
constexpr int HN = N + 6;  ///< halo rows per axis: i, j in [-3, N + 3)
constexpr int HK = N + 8;  ///< slots per halo row
constexpr index_t HP = index_t(HN) * HN * HK;  ///< slots per component

constexpr index_t hidx(int i, int j, int k) {
  const int p = k & 1;
  return (index_t(i + 3) * HN + (j + 3)) * HK + p * (HK / 2) + (k + 4 - p) / 2;
}

using scalar_pack = octo::simd<real, octo::simd_abi::scalar>;
/// The root's pack: consecutive k.
using vector_pack = octo::simd<real, octo::simd_abi::native<real>>;
/// The halo kernels' pack: one parity class holds N/2 targets per row.
using parity_pack =
    octo::simd<real, octo::simd_abi::fixed<std::min(vector_pack::size(),
                                                    N / 2)>>;

/// Offsets of [-3,3]^3 whose Chebyshev norm lies in [lo, hi].
std::vector<std::array<int, 3>> make_stencil(int lo, int hi) {
  std::vector<std::array<int, 3>> st;
  for (int a = -3; a <= 3; ++a)
    for (int b = -3; b <= 3; ++b)
      for (int c = -3; c <= 3; ++c) {
        const int cheb = std::max({std::abs(a), std::abs(b), std::abs(c)});
        if (cheb >= lo && cheb <= hi) st.push_back({a, b, c});
      }
  return st;
}

/// Same-level interaction stencil.
///
/// A pair of same-level cells interacts at this level iff their *parent*
/// cells are adjacent (Chebyshev distance <= 1 at the parent level) while
/// the cells themselves are not (distance >= 2).  Parent adjacency depends
/// on the target cell's parity q per axis: offset o is parent-adjacent iff
///   q == 0:  o in [-2, 3]        q == 1:  o in [-3, 2].
/// So the union stencil is [-3,3]^3 with Chebyshev >= 2, and the extreme
/// offsets +3 / -3 are valid only for even / odd target parity.  The SIMD
/// kernels run one target parity class per pack, each over the 189 offsets
/// valid for its class (class_stencils).
const std::vector<std::array<int, 3>>& stencil() {
  static const auto s = [] {
    auto st = make_stencil(2, 3);
    OCTO_ASSERT(st.size() == 316);
    return st;
  }();
  return s;
}

/// Is offset \p o parent-adjacent for target parity \p q (0 or 1)?
constexpr bool offset_valid(int o, int q) {
  return q == 0 ? (o >= -2 && o <= 3) : (o >= -3 && o <= 2);
}

/// A stencil offset as a parity-class pack reads it: the linear halo
/// offset from the pack's first target to its first source, and the
/// offset's stencil() (mono table) index.
struct class_offset {
  index_t lin;
  int s;
};

/// Target parity class of cell (i, j, k), indexing class_stencils::far.
constexpr int parity_class(int i, int j, int k) {
  return 4 * (i & 1) + 2 * (j & 1) + (k & 1);
}

/// Per target parity class, the parent-adjacent stencil offsets in stencil
/// order (189 each); per k parity, the 26 near-field offsets.
struct class_stencils {
  std::array<std::vector<class_offset>, 8> far;
  std::array<std::vector<index_t>, 2> near;
};

const class_stencils& class_stencil() {
  static const class_stencils cs = [] {
    class_stencils c;
    const auto& st = stencil();
    for (int cls = 0; cls < 8; ++cls) {
      const int pi = cls >> 2, pj = (cls >> 1) & 1, pk = cls & 1;
      for (std::size_t s = 0; s < st.size(); ++s) {
        const auto [oi, oj, ok] = st[s];
        if (offset_valid(oi, pi) && offset_valid(oj, pj) &&
            offset_valid(ok, pk))
          c.far[static_cast<std::size_t>(cls)].push_back(
              {hidx(oi, oj, pk + ok) - hidx(0, 0, pk), static_cast<int>(s)});
      }
      OCTO_ASSERT(c.far[static_cast<std::size_t>(cls)].size() == 189);
    }
    for (int pk = 0; pk < 2; ++pk)
      for (const auto& [oi, oj, ok] : make_stencil(1, 1))
        c.near[static_cast<std::size_t>(pk)].push_back(hidx(oi, oj, pk + ok) -
                                                       hidx(0, 0, pk));
    return c;
  }();
  return cs;
}

/// Visit the parity-class packs of W targets in rows [row_begin, row_end):
/// f(i, j, k), k the pack's first target, its lanes k, k + 2, ...
template <int W, typename F>
void for_each_pack(int row_begin, int row_end, F&& f) {
  static_assert((N / 2) % W == 0);
  for (int row = row_begin; row < row_end; ++row)
    for (int pk = 0; pk < 2; ++pk)
      for (int k = pk; k < N; k += 2 * W) f(row / N, row % N, k);
}

/// Does any of the W halo slots from \p p hold a cell of the node or of an
/// existing same-level neighbor?  (Slots of a missing neighbor hold zero
/// moments, whose interactions add exact zeros.)
template <int W>
bool any_present(const std::uint8_t* p) {
  static_assert(W <= 4);
  std::uint32_t v = 0;
  std::memcpy(&v, p, W);
  return v != 0;
}

/// Per-thread halo scratch (one Multipole-kernel launch uses one).
struct halo_scratch {
  std::vector<real> halo;              // NMOM x HP
  std::vector<real> nearmask;          // HP
  std::vector<std::uint8_t> present;   // HP
};

halo_scratch& tls_scratch() {
  static thread_local halo_scratch s;
  if (s.halo.empty()) {
    s.halo.assign(static_cast<std::size_t>(NMOM) * HP, 0);
    s.nearmask.assign(static_cast<std::size_t>(HP), 0);
    s.present.assign(static_cast<std::size_t>(HP), 0);
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
  // existing same-level neighbors are all leaves sees only point-mass
  // sources at cell centres; missing neighbors leave zero-mass halo fill.
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

  // Mono-case tables, one per level (every level holds a node).
  const auto offsets = mono_offsets();
  mono_table_.resize(static_cast<std::size_t>(topo.max_depth()) + 1);
  for (int lvl = 0; lvl <= topo.max_depth(); ++lvl) {
    const real dx = topo.cell_width(topo.nodes_at_level(lvl).front());
    for (const auto& o : offsets)
      mono_table_[static_cast<std::size_t>(lvl)].push_back(
          lattice_derivs(o, dx, units::G_code));
  }
}

std::span<const std::array<int, 3>> fmm_solver::mono_offsets() {
  return stencil();
}

template <typename Rho>
void fmm_solver::set_leaf_moments(index_t node, const Rho& rho) {
  OCTO_CHECK(topo_.node(node).leaf);
  auto& nd = nodes_[node];
  const real dx = topo_.cell_width(node);
  const real vol = dx * dx * dx;
  const rvec3 c = topo_.center(node);
  const real half = real(0.5) * N * dx;
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k) {
        const index_t cell = cell_index(i, j, k);
        nd.mom[mc_m * CP + cell] = rho(i, j, k) * vol;
        // A leaf's centre of mass is its cell centre: the mono-case tables
        // (mono_table_) evaluate every leaf source at its lattice position.
        nd.mom[mc_cx * CP + cell] = c.x - half + (i + real(0.5)) * dx;
        nd.mom[mc_cy * CP + cell] = c.y - half + (j + real(0.5)) * dx;
        nd.mom[mc_cz * CP + cell] = c.z - half + (k + real(0.5)) * dx;
        for (int s = 0; s < NSYM2; ++s) nd.mom[(mc_q + s) * CP + cell] = 0;
        for (int s = 0; s < NSYM3; ++s) nd.mom[(mc_o + s) * CP + cell] = 0;
      }
}

void fmm_solver::set_leaf_density(index_t node, std::span<const real> rho) {
  OCTO_CHECK(rho.size() == static_cast<std::size_t>(C3));
  set_leaf_moments(node, [&](int i, int j, int k) {
    return rho[static_cast<std::size_t>(cell_index(i, j, k))];
  });
}

void fmm_solver::set_leaf_from_subgrid(index_t node, const grid::subgrid& u) {
  set_leaf_moments(node, [&](int i, int j, int k) {
    return u.at(grid::f_rho, i, j, k);
  });
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

void fmm_solver::build_halo(index_t node, m2l_case mcase,
                            std::vector<real>& halo,
                            std::vector<real>& nearmask,
                            std::vector<std::uint8_t>& present) const {
  // Only the components the case's kernels read: the mono table kernel
  // loads m, its P2P also the centres of mass and the near-field mask;
  // full targets load every moment and have no P2P.
  static_assert(mc_m == 0 && mc_cx == 1 && mc_cy == 2 && mc_cz == 3);
  const int ncomp = mcase == m2l_case::mono ? 4 : NMOM;
  const bool near = mcase != m2l_case::full;
  // Empty cells: zero mass, far-away COM so r never vanishes.
  for (int comp = 0; comp < ncomp; ++comp) {
    real fillv = 0;
    if (comp == mc_cx || comp == mc_cy || comp == mc_cz) fillv = real(1e30);
    real* h = halo.data() + comp * HP;
    std::fill(h, h + HP, fillv);
  }
  if (near) std::fill(nearmask.begin(), nearmask.end(), real(0));
  std::fill(present.begin(), present.end(), std::uint8_t(0));

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
          for (int comp = 0; comp < ncomp; ++comp)
            halo[comp * HP + h] = sm[comp * CP + s];
          if (near) nearmask[static_cast<std::size_t>(h)] = mask;
          present[static_cast<std::size_t>(h)] = 1;
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

/// Add a target pack's L0/L1 (and, for \p Full, L2/L3) into the node's
/// expansion arrays at \p cell, lane l at cell + Stride * l (exclusive
/// rows).
template <int Stride, bool Full, typename P>
void add_expansion(std::vector<real>& exp, index_t cell,
                   const pack_expansion<P>& acc) {
  const auto add = [&](int comp, const P& v) {
    real* e = exp.data() + comp * CP + cell;
    for (int l = 0; l < P::size(); ++l) e[Stride * l] += v[l];
  };
  add(ec_l0, acc.l0);
  for (int a = 0; a < 3; ++a) add(ec_l1 + a, acc.l1[a]);
  if constexpr (Full) {
    for (int s = 0; s < NSYM2; ++s) add(ec_l2 + s, acc.l2[s]);
    for (int s = 0; s < NSYM3; ++s) add(ec_l3 + s, acc.l3[s]);
  }
}

template <typename P, bool Full>
void fmm_solver::m2l_impl(index_t node, const std::vector<real>& halo,
                          const std::vector<std::uint8_t>& present,
                          int row_begin, int row_end) {
  auto& nd = nodes_[node];
  const auto& cs = class_stencil();
  const real G = units::G_code;
  const auto load = [&](P& v, int comp, index_t h) {
    v.copy_from(halo.data() + comp * HP + h);
  };

  for_each_pack<P::size()>(row_begin, row_end, [&](int i, int j, int k) {
    const index_t hb = hidx(i, j, k);
    P tx, ty, tz;
    load(tx, mc_cx, hb);
    load(ty, mc_cy, hb);
    load(tz, mc_cz, hb);
    pack_expansion<P> acc;
    for (const class_offset& e : cs.far[parity_class(i, j, k)]) {
      const index_t h = hb + e.lin;
      if (!any_present<P::size()>(present.data() + h)) continue;
      pack_multipole<P> src;
      load(src.m, mc_m, h);
      load(src.cx, mc_cx, h);
      load(src.cy, mc_cy, h);
      load(src.cz, mc_cz, h);
      for (int q = 0; q < NSYM2; ++q) load(src.q[q], mc_q + q, h);
      for (int o = 0; o < NSYM3; ++o) load(src.o[o], mc_o + o, h);
      pack_derivs<P> d;
      compute_derivs(tx - src.cx, ty - src.cy, tz - src.cz, G, d);
      m2l_pack<P, Full>(src, d, acc);
    }
    add_expansion<2, Full>(nd.exp, cell_index(i, j, k), acc);
  });
}

/// The mono case: the M2L of a leaf whose sources are all point masses on
/// the lattice, as one convolution of m with the level's table.  No pack is
/// skipped: against 4 FMAs per offset, the presence test measured no gain.
template <typename P>
void fmm_solver::mono_impl(index_t node, const std::vector<real>& halo,
                           int row_begin, int row_end) {
  auto& nd = nodes_[node];
  const auto& cs = class_stencil();
  const auto table = mono_table(topo_.node(node).level);

  for_each_pack<P::size()>(row_begin, row_end, [&](int i, int j, int k) {
    const index_t hb = hidx(i, j, k);
    pack_expansion<P> acc;
    for (const class_offset& e : cs.far[parity_class(i, j, k)]) {
      P m;
      m.copy_from(halo.data() + mc_m * HP + hb + e.lin);
      const lattice_deriv& t = table[static_cast<std::size_t>(e.s)];
      acc.l0 = fma(m, P(t.d0), acc.l0);
      for (int a = 0; a < 3; ++a) acc.l1[a] = fma(m, P(t.d1[a]), acc.l1[a]);
    }
    add_expansion<2, false>(nd.exp, cell_index(i, j, k), acc);
  });
}

template <typename P>
void fmm_solver::p2p_impl(index_t node, const std::vector<real>& halo,
                          const std::vector<real>& nearmask,
                          const std::vector<std::uint8_t>& present,
                          int row_begin, int row_end) {
  auto& nd = nodes_[node];
  const auto& cs = class_stencil();
  const real G = units::G_code;
  const auto load = [&](P& v, int comp, index_t h) {
    v.copy_from(halo.data() + comp * HP + h);
  };

  for_each_pack<P::size()>(row_begin, row_end, [&](int i, int j, int k) {
    const index_t hb = hidx(i, j, k);
    P tx, ty, tz;
    load(tx, mc_cx, hb);
    load(ty, mc_cy, hb);
    load(tz, mc_cz, hb);
    pack_expansion<P> acc;
    for (const index_t off : cs.near[static_cast<std::size_t>(k & 1)]) {
      const index_t h = hb + off;
      if (!any_present<P::size()>(present.data() + h)) continue;
      P m, sx, sy, sz, mask;
      load(m, mc_m, h);
      mask.copy_from(nearmask.data() + h);
      load(sx, mc_cx, h);
      load(sy, mc_cy, h);
      load(sz, mc_cz, h);
      p2p_pack(m * mask, tx - sx, ty - sy, tz - sz, G, acc);
    }
    add_expansion<2, false>(nd.exp, cell_index(i, j, k), acc);
  });
}

/// The root has no parent to inherit far-field interactions from, so its
/// cell pairs interact over the full [-7,7] offset range: Chebyshev >= 2
/// when its nearer pairs are deferred to its children, >= 1 (exact monopole
/// pairs, its sources having q = o = 0) when the root is itself a leaf.
/// Each k-pack of targets meets one broadcast source at a time; lanes whose
/// pair is too near get zero moments and a far-away COM, so r never
/// vanishes.  Rows [row_begin, row_end) of targets only: row tasks write
/// disjoint cells.
template <typename P, bool Full>
void fmm_solver::m2l_root_impl(int row_begin, int row_end) {
  auto& nd = nodes_[topo_.root()];
  const int W = P::size();
  const real G = units::G_code;
  const int min_cheb = Full ? 2 : 1;
  P lane;
  for (int l = 0; l < W; ++l) lane.set(l, real(l));
  const auto src_comp = [&](int comp, index_t s) {
    return P(nd.mom[static_cast<std::size_t>(comp * CP + s)]);
  };

  for (int row = row_begin; row < row_end; ++row) {
    const int ti = row / N;
    const int tj = row % N;
    for (int tk = 0; tk < N; tk += W) {
      const index_t t = cell_index(ti, tj, tk);
      P tx, ty, tz;
      tx.copy_from(nd.mom.data() + mc_cx * CP + t);
      ty.copy_from(nd.mom.data() + mc_cy * CP + t);
      tz.copy_from(nd.mom.data() + mc_cz * CP + t);
      pack_expansion<P> acc;
      for (int si = 0; si < N; ++si)
        for (int sj = 0; sj < N; ++sj)
          for (int sk = 0; sk < N; ++sk) {
            // Lane l is the pair (tk + l, sk): only its k distance varies.
            typename P::mask_type far(true);
            if (std::max(std::abs(si - ti), std::abs(sj - tj)) < min_cheb) {
              far = abs(P(real(sk - tk)) - lane) >= P(real(min_cheb));
              if (none_of(far)) continue;
            }
            const index_t s = cell_index(si, sj, sk);
            pack_multipole<P> src;
            src.m = src_comp(mc_m, s);
            src.cx = src_comp(mc_cx, s);
            src.cy = src_comp(mc_cy, s);
            src.cz = src_comp(mc_cz, s);
            for (int q = 0; q < NSYM2; ++q) src.q[q] = src_comp(mc_q + q, s);
            for (int o = 0; o < NSYM3; ++o) src.o[o] = src_comp(mc_o + o, s);
            if (!all_of(far)) {
              const P zero(0), away(real(1e30));
              src.m = select(far, src.m, zero);
              src.cx = select(far, src.cx, away);
              src.cy = select(far, src.cy, away);
              src.cz = select(far, src.cz, away);
              for (auto& q : src.q) q = select(far, q, zero);
              for (auto& o : src.o) o = select(far, o, zero);
            }
            pack_derivs<P> d;
            compute_derivs(tx - src.cx, ty - src.cy, tz - src.cz, G, d);
            m2l_pack<P, Full>(src, d, acc);
          }
      add_expansion<1, Full>(nd.exp, t, acc);
    }
  }
}

void fmm_solver::compute_m2l(index_t node, int chunk, int nchunks) {
  const int rows = N * N;
  const int rb = rows * chunk / nchunks;
  const int re = rows * (chunk + 1) / nchunks;
  const auto launch = [&](auto root_pack, auto halo_pack) {
    using R = decltype(root_pack);
    using P = decltype(halo_pack);
    if (node == topo_.root()) {
      // The root's all-pairs M2L reads its own moments; no halo.
      if (topo_.node(node).leaf) {
        m2l_root_impl<R, false>(rb, re);
      } else {
        m2l_root_impl<R, true>(rb, re);
      }
      return;
    }
    const m2l_case mcase = m2l_case_[static_cast<std::size_t>(node)];
    auto& hs = tls_scratch();
    build_halo(node, mcase, hs.halo, hs.nearmask, hs.present);
    switch (mcase) {
      case m2l_case::full:
        m2l_impl<P, true>(node, hs.halo, hs.present, rb, re);
        break;
      case m2l_case::leaf:
        m2l_impl<P, false>(node, hs.halo, hs.present, rb, re);
        break;
      case m2l_case::mono:
        mono_impl<P>(node, hs.halo, rb, re);
        break;
    }
    // Near field on leaves, over the same (disjoint) row range so chunked
    // launches never race on the expansion arrays.
    if (mcase != m2l_case::full)
      p2p_impl<P>(node, hs.halo, hs.nearmask, hs.present, rb, re);
  };
  if (opt_.use_simd) {
    launch(vector_pack{}, parity_pack{});
  } else {
    launch(scalar_pack{}, scalar_pack{});
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
  const real G = units::G_code;

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
  build_solve(g);
  if (auto e = g.drain()) std::rethrow_exception(e);
}

void fmm_solver::build_solve(amt::task_graph& g) {
  // Zero pass: one task per node.
  for (index_t n = 0; n < topo_.num_nodes(); ++n)
    g.add("gravity.zero", g.footprint().w(apex::rgn::expansion, n),
          [this, n] {
            std::fill(nodes_[n].exp.begin(), nodes_[n].exp.end(), real(0));
          });
  g.join();

  // M2M bottom-up: a leaf's moments are the caller's (set_leaf_density);
  // an interior node's M2M reads its children's (one join per level when
  // barriered).
  for (int lvl = topo_.max_depth(); lvl >= 0; --lvl) {
    for (const index_t n : topo_.nodes_at_level(lvl)) {
      if (topo_.node(n).leaf) continue;
      auto fp = g.footprint();
      fp.w(apex::rgn::moment, n);
      for (const index_t ch : topo_.node(n).children)
        fp.r(apex::rgn::moment, ch);
      g.add("gravity.m2m", std::move(fp), [this, n] { compute_m2m(n); });
    }
    g.join();
  }

  // M2L per (node, chunk), leaf P2P fused over the same disjoint rows: it
  // reads the node's and its same-level neighbors' moments (the halo).
  // The root's all-pairs kernel (m2l_root_impl) is split into at least N
  // row tasks so it does not serialize the solve.
  for (index_t n = 0; n < topo_.num_nodes(); ++n) {
    const int nc = m2l_tasks(n);
    auto fp_moms = g.footprint();
    fp_moms.r(apex::rgn::moment, n);
    if (n != topo_.root()) {
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t nb = topo_.neighbor(n, d);
        if (nb != tree::invalid_node) fp_moms.r(apex::rgn::moment, nb);
      }
    }
    for (int c = 0; c < nc; ++c) {
      // Chunked launches write disjoint expansion rows of n: part = chunk.
      auto fp = fp_moms;
      fp.w(apex::rgn::expansion, n, nc == 1 ? apex::any_part : c);
      g.add("gravity.m2l", std::move(fp),
            [this, n, c, nc] { compute_m2l(n, c, nc); });
    }
  }
  g.join();

  // Fine-coarse pair tasks write each fine leaf's private buffers.
  for (const index_t l : topo_.leaves()) {
    const auto& fcd = fc_[static_cast<std::size_t>(l)];
    if (fcd.hosts.empty()) continue;
    auto fp = g.footprint();
    fp.r(apex::rgn::moment, l).w(apex::rgn::fcbuf, l);
    for (const index_t h : fcd.hosts) fp.r(apex::rgn::moment, h);
    g.add("gravity.fine_coarse", std::move(fp),
          [this, l] { compute_fine_coarse_pairs(l); });
  }
  g.join();

  // Apply tasks fold the pair buffers into the expansions after every M2L
  // chunk of the node (the same per-cell accumulation order either way).
  for (index_t n = 0; n < topo_.num_nodes(); ++n) {
    if (!has_fc_work(n)) continue;
    const auto& fcd = fc_[static_cast<std::size_t>(n)];
    auto fp = g.footprint();
    fp.w(apex::rgn::expansion, n);
    if (!fcd.hosts.empty()) fp.r(apex::rgn::fcbuf, n);
    for (const index_t f : fcd.clients) fp.r(apex::rgn::fcbuf, f);
    g.add("gravity.fine_coarse_apply", std::move(fp),
          [this, n] { apply_fine_coarse(n); });
  }
  g.join();

  // L2L top-down: a child's shift reads its parent's complete expansions
  // (one join per level when barriered).
  for (int lvl = 1; lvl <= topo_.max_depth(); ++lvl) {
    for (const index_t n : topo_.nodes_at_level(lvl)) {
      const index_t par = topo_.node(n).parent;
      g.add("gravity.l2l",
            g.footprint()
                .r(apex::rgn::expansion, par)
                .r(apex::rgn::moment, n)
                .r(apex::rgn::moment, par)
                .w(apex::rgn::expansion, n),
            [this, n] { compute_l2l(n); });
    }
    g.join();
  }

  // Leaf evaluation: phi/g out the moment the leaf's expansions settle.
  for (const index_t l : topo_.leaves())
    g.add("gravity.evaluate_leaf",
          g.footprint().r(apex::rgn::expansion, l).w(apex::rgn::gout, l),
          [this, l] { evaluate_leaf(l); });
  g.join();
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
