#pragma once
/// \file kernels.hpp
/// SIMD pack versions of the gravity interaction kernels.
///
/// These are the paper's two hot Kokkos kernels: the *Multipole kernel*
/// (same-level cell-to-cell M2L over the 316-offset stencil, split into
/// multiple HPX tasks in Fig. 9) and the *Monopole/P2P kernel* (near-field
/// direct sums on leaves).  Both are templated on the SIMD pack and
/// vectorize over the k index of the sub-grid.
///
/// The Multipole kernel has three cases, chosen per target node from the
/// topology alone:
///   - *full* (`m2l_pack<P, true>`): interior targets keep L0..L3 for the
///     L2L shift to their children; the root's all-pairs M2L also runs it on
///     k-packs of targets against one broadcast source (`m2l_pack<P, false>`
///     when the root is itself a leaf);
///   - *leaf target* (`m2l_pack<P, false>`): leaf targets keep L0/L1 only,
///     but some source cell in the halo carries a quadrupole/octupole — a
///     same-level neighbor is refined;
///   - *mono* (fmm_solver's per-level stencil table): a leaf target whose
///     existing same-level neighbors are all leaves (missing neighbors are
///     zero-mass halo fill).  Every source is then a point mass at its cell
///     centre, so D0/D1 depend only on the stencil offset and the level's
///     cell width: the M2L becomes a convolution of m with a fixed
///     316-entry table, 4 FMAs per offset, with no COM load, sqrt or
///     division.
///
/// Outside the root, a pack holds targets of one *parity class*: one (i, j)
/// row and every second k, so all its lanes share (i & 1, j & 1, k & 1).
/// Which stencil offsets are parent-adjacent depends only on that class
/// (189 of the 316), so no lane is masked, and the halo stores each row's
/// even-k cells before its odd-k cells, which keeps every offset's sources
/// contiguous.  A class holds N/2 targets per row, so the pack is at most
/// N/2 lanes wide.  The full and leaf cases and the P2P also skip a pack
/// whose sources all lie in same-level neighbors that do not exist.
///
/// Rounding contract: the kernels here are straight-line code (every
/// fixed-trip loop is unrolled, so table indices, multiplicities and the
/// branches on them are constants) compiled with floating-point contraction
/// off (OCTO_NO_CONTRACT_BEGIN).  Every fused multiply-add is an explicit
/// `fma` and every other product and sum is rounded on its own, so the
/// result is fixed by the source: it does not depend on the contraction
/// mode, the optimization level or the unrolling heuristics of the file that
/// includes this header.  The fused points are the ones GCC 12 chose at -O2
/// for the earlier loop forms, so the pinned kernels kept those bits.

#include <array>
#include <cmath>

#include "common/types.hpp"
#include "gravity/multipole.hpp"
#include "simd/simd.hpp"

namespace octo::gravity {

/// Moment component indices in the SoA node arrays.
enum moment_comp : int {
  mc_m = 0,
  mc_cx = 1,
  mc_cy = 2,
  mc_cz = 3,
  mc_q = 4,   // 6 components: 4..9
  mc_o = 10,  // 10 components: 10..19
};
inline constexpr int NMOM = 20;

/// Expansion component indices.
enum exp_comp : int {
  ec_l0 = 0,
  ec_l1 = 1,  // 3 components: 1..3
  ec_l2 = 4,  // 6 components: 4..9
  ec_l3 = 10  // 10 components: 10..19
};
inline constexpr int NEXP = 20;

/// Derivative tensors of -G/|R| on SIMD packs.
template <typename P>
struct pack_derivs {
  P d0;
  P d1[3];
  P d2[NSYM2];
  P d3[NSYM3];
};

/// Pack accumulator for a target cell row.
template <typename P>
struct pack_expansion {
  P l0{0};
  P l1[3] = {P(0), P(0), P(0)};
  P l2[NSYM2] = {P(0), P(0), P(0), P(0), P(0), P(0)};
  P l3[NSYM3] = {P(0), P(0), P(0), P(0), P(0),
                 P(0), P(0), P(0), P(0), P(0)};
};

/// Source moments for a pack of cells.
template <typename P>
struct pack_multipole {
  P m;
  P cx, cy, cz;
  P q[NSYM2];
  P o[NSYM3];
};

OCTO_NO_CONTRACT_BEGIN

/// Fill \p d with D0..D3 of -G/|R| at R = (rx, ry, rz) (nonzero).  Fused:
/// r2's two sums, and each D3 slot's correction c2 * corr; the D2 diagonal
/// adds c1 on its own.  corr starts from 0 (0 + x maps -0 to +0).
template <typename P>
inline void compute_derivs(P rx, P ry, P rz, real G, pack_derivs<P>& d) {
  const P r[3] = {rx, ry, rz};
  const P r2 = fma(rz, rz, fma(ry, ry, rx * rx));
  const P rinv = P(1) / sqrt(r2);
  const P rinv2 = rinv * rinv;
  const P rinv3 = rinv * rinv2;
  d.d0 = P(-G) * rinv;
  const P c1 = P(G) * rinv3;
  OCTO_UNROLL
  for (int a = 0; a < 3; ++a) d.d1[a] = c1 * r[a];
  const P rinv5 = rinv3 * rinv2;
  const P rinv7 = rinv5 * rinv2;
  const P c2 = P(-3 * G) * rinv5;
  OCTO_UNROLL
  for (int s = 0; s < NSYM2; ++s) {
    const int a = sym2_ab[s][0], b = sym2_ab[s][1];
    const P v = c2 * r[a] * r[b];
    d.d2[s] = a == b ? v + c1 : v;
  }
  const P c3 = P(15 * G) * rinv7;
  OCTO_UNROLL
  for (int s = 0; s < NSYM3; ++s) {
    const int a = sym3_abc[s][0], b = sym3_abc[s][1], c = sym3_abc[s][2];
    P corr(0);
    if (a == b) corr += r[c];
    if (a == c) corr += r[b];
    if (b == c) corr += r[a];
    d.d3[s] = fma(corr, c2, c3 * r[a] * r[b] * r[c]);
  }
}

/// Accumulate M2L into the target accumulator.  When \p Full is false the
/// target keeps only L0/L1 (leaf cells are monopoles: their L2/L3 would
/// multiply vanishing internal moments).  Each term is one fma of the
/// coefficient-scaled moment with its derivative, in slot order.
template <typename P, bool Full>
inline void m2l_pack(const pack_multipole<P>& src, const pack_derivs<P>& d,
                     pack_expansion<P>& acc) {
  // L0 = M D0 + 1/2 Q:D2 - 1/6 O:D3
  P l0 = src.m * d.d0;
  OCTO_UNROLL
  for (int s = 0; s < NSYM2; ++s)
    l0 = fma(P(real(0.5) * sym2_mult[s]) * src.q[s], d.d2[s], l0);
  OCTO_UNROLL
  for (int s = 0; s < NSYM3; ++s)
    l0 = fma(P(-(real(1) / 6) * sym3_mult[s]) * src.o[s], d.d3[s], l0);
  acc.l0 += l0;

  // L1_i = M D1_i + 1/2 Q_jk D3_ijk
  OCTO_UNROLL
  for (int i = 0; i < 3; ++i) {
    P l1 = src.m * d.d1[i];
    OCTO_UNROLL
    for (int s = 0; s < NSYM2; ++s)
      l1 = fma(P(real(0.5) * sym2_mult[s]) * src.q[s],
               d.d3[sym3_idx(i, sym2_ab[s][0], sym2_ab[s][1])], l1);
    acc.l1[i] += l1;
  }

  if constexpr (Full) {
    OCTO_UNROLL
    for (int s = 0; s < NSYM2; ++s)
      acc.l2[s] = fma(src.m, d.d2[s], acc.l2[s]);
    OCTO_UNROLL
    for (int s = 0; s < NSYM3; ++s)
      acc.l3[s] = fma(src.m, d.d3[s], acc.l3[s]);
  }
}

OCTO_NO_CONTRACT_END

/// D0 and D1 of -G/|R| at one lattice vector: an entry of the mono case's
/// per-level stencil table (fmm_solver::mono_table).
struct lattice_deriv {
  real d0;
  real d1[3];
};

/// D0/D1 at the lattice vector R = -o dx (target minus source, the source o
/// cells from the target): R is formed in `real`, as compute_derivs would
/// get it, then D0/D1 are evaluated in long double and rounded once per
/// component.  Negating o negates R exactly, so D0(o) = D0(-o) and
/// D1(o) = -D1(-o) hold bitwise: the two sides of a pair see one
/// interaction and the pair forces cancel.
inline lattice_deriv lattice_derivs(const std::array<int, 3>& o, real dx,
                                    real G) {
  using ld = long double;
  const ld r[3] = {-o[0] * dx, -o[1] * dx, -o[2] * dx};
  const ld rinv = 1 / std::sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]);
  const ld c1 = ld(G) * rinv * rinv * rinv;
  lattice_deriv t;
  t.d0 = static_cast<real>(-ld(G) * rinv);
  for (int a = 0; a < 3; ++a) t.d1[a] = static_cast<real>(c1 * r[a]);
  return t;
}

OCTO_NO_CONTRACT_BEGIN

/// Monopole-monopole near-field contribution (exact): only D0/D1 needed.
template <typename P>
inline void p2p_pack(P src_m, P rx, P ry, P rz, real G,
                     pack_expansion<P>& acc) {
  const P r2 = fma(rz, rz, fma(ry, ry, rx * rx));
  const P rinv = P(1) / sqrt(r2);
  const P rinv3 = rinv * rinv * rinv;
  acc.l0 = fma(P(-G) * src_m, rinv, acc.l0);
  const P c1 = P(G) * src_m * rinv3;
  acc.l1[0] = fma(c1, rx, acc.l1[0]);
  acc.l1[1] = fma(c1, ry, acc.l1[1]);
  acc.l1[2] = fma(c1, rz, acc.l1[2]);
}

OCTO_NO_CONTRACT_END

}  // namespace octo::gravity
