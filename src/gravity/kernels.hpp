#pragma once
/// \file kernels.hpp
/// SIMD pack versions of the gravity interaction kernels.
///
/// These are the paper's two hot Kokkos kernels: the *Multipole kernel*
/// (same-level cell-to-cell M2L over the 316-offset stencil, split into
/// multiple HPX tasks in Fig. 9) and the *Monopole/P2P kernel* (near-field
/// direct sums on leaves).  Both are templated on the SIMD pack and
/// vectorize over the contiguous k index of the sub-grid.
///
/// The Multipole kernel has three cases, chosen per target node from the
/// topology alone:
///   - *full* (`m2l_pack<P, true>`): interior targets keep L0..L3 for the
///     L2L shift to their children;
///   - *leaf target* (`m2l_pack<P, false>`): leaf targets keep L0/L1 only,
///     but some source cell in the halo carries a quadrupole/octupole — a
///     same-level neighbor is refined;
///   - *monopole source* (`m2l_mono_pack`): a leaf target whose existing
///     same-level neighbors are all leaves (missing neighbors are zero-mass
///     halo fill), so every source has q = o = 0 and only m, the centre of
///     mass, D0 and D1 are needed.  It is bitwise identical to the leaf
///     target case on such sources.

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

/// Fill \p d up to order \p Order: 1 gives D0/D1 only (the monopole-source
/// case), 3 the full set.  D0/D1 come from the same expressions either way,
/// so their bits do not depend on Order.
template <int Order = 3, typename P>
inline void compute_derivs(P rx, P ry, P rz, real G, pack_derivs<P>& d) {
  static_assert(Order == 1 || Order == 3);
  const P r[3] = {rx, ry, rz};
  const P r2 = rx * rx + ry * ry + rz * rz;
  const P rinv = P(1) / sqrt(r2);
  const P rinv2 = rinv * rinv;
  const P rinv3 = rinv * rinv2;
  d.d0 = P(-G) * rinv;
  const P c1 = P(G) * rinv3;
  for (int a = 0; a < 3; ++a) d.d1[a] = c1 * r[a];
  if constexpr (Order == 3) {
    const P rinv5 = rinv3 * rinv2;
    const P rinv7 = rinv5 * rinv2;
    const P c2 = P(-3 * G) * rinv5;
    for (int a = 0; a < 3; ++a)
      for (int b = a; b < 3; ++b) {
        P v = c2 * r[a] * r[b];
        if (a == b) v += c1;
        d.d2[sym2_idx(a, b)] = v;
      }
    const P c3 = P(15 * G) * rinv7;
    for (int s = 0; s < NSYM3; ++s) {
      const int a = sym3_abc[s][0], b = sym3_abc[s][1], c = sym3_abc[s][2];
      P v = c3 * r[a] * r[b] * r[c];
      P corr(0);
      if (a == b) corr += r[c];
      if (a == c) corr += r[b];
      if (b == c) corr += r[a];
      v += c2 * corr;
      d.d3[s] = v;
    }
  }
}

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

/// Accumulate M2L into the target accumulator.  When \p Full is false the
/// target keeps only L0/L1 (leaf cells are monopoles: their L2/L3 would
/// multiply vanishing internal moments).
template <typename P, bool Full>
inline void m2l_pack(const pack_multipole<P>& src, const pack_derivs<P>& d,
                     pack_expansion<P>& acc) {
  // L0 = M D0 + 1/2 Q:D2 - 1/6 O:D3
  P l0 = src.m * d.d0;
  for (int s = 0; s < NSYM2; ++s)
    l0 = fma(P(real(0.5) * sym2_mult[s]) * src.q[s], d.d2[s], l0);
  for (int s = 0; s < NSYM3; ++s)
    l0 = fma(P(-(real(1) / 6) * sym3_mult[s]) * src.o[s], d.d3[s], l0);
  acc.l0 += l0;

  // L1_i = M D1_i + 1/2 Q_jk D3_ijk
  for (int i = 0; i < 3; ++i) {
    P l1 = src.m * d.d1[i];
    for (int j = 0; j < 3; ++j)
      for (int k = j; k < 3; ++k) {
        const real mult = (j == k) ? real(0.5) : real(1);
        l1 = fma(P(mult) * src.q[sym2_idx(j, k)], d.d3[sym3_idx(i, j, k)],
                 l1);
      }
    acc.l1[i] += l1;
  }

  if constexpr (Full) {
    for (int s = 0; s < NSYM2; ++s)
      acc.l2[s] = fma(src.m, d.d2[s], acc.l2[s]);
    for (int s = 0; s < NSYM3; ++s)
      acc.l3[s] = fma(src.m, d.d3[s], acc.l3[s]);
  }
}

/// `m2l_pack<P, false>` for a source with q = o = 0; needs only D0/D1
/// (compute_derivs<1>).  The explicit `+ 0` stands in for the vanishing
/// quadrupole term there: it keeps `m * D` out of the accumulator add under
/// -ffp-contract=fast, so both kernels round every contribution the same
/// way.
template <typename P>
inline void m2l_mono_pack(P m, const pack_derivs<P>& d,
                          pack_expansion<P>& acc) {
  acc.l0 += fma(m, d.d0, P(0));
  for (int i = 0; i < 3; ++i) acc.l1[i] += fma(m, d.d1[i], P(0));
}

/// Monopole-monopole near-field contribution (exact): only D0/D1 needed.
template <typename P>
inline void p2p_pack(P src_m, P rx, P ry, P rz, real G,
                     pack_expansion<P>& acc) {
  const P r2 = rx * rx + ry * ry + rz * rz;
  const P rinv = P(1) / sqrt(r2);
  const P rinv3 = rinv * rinv * rinv;
  acc.l0 = fma(P(-G) * src_m, rinv, acc.l0);
  const P c1 = P(G) * src_m * rinv3;
  acc.l1[0] = fma(c1, rx, acc.l1[0]);
  acc.l1[1] = fma(c1, ry, acc.l1[1]);
  acc.l1[2] = fma(c1, rz, acc.l1[2]);
}

}  // namespace octo::gravity
