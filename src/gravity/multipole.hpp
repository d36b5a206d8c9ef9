#pragma once
/// \file multipole.hpp
/// Cartesian multipole moments (to octupole) and local Taylor expansions
/// (to third order), with the exact shift operators used by M2M and L2L.
///
/// Conventions (matching the derivation in DESIGN.md / Octo-Tiger):
///   * moments are *central* moments about the cell's center of mass, so the
///     dipole vanishes identically;
///   * the potential of a source cell at target displacement R is
///       phi(R) = M D0 + 1/2 Q : D2 - 1/6 O : D3,
///     with D_n the n-th derivative tensor of -G/|R|;
///   * local expansions L0..L3 are the Taylor coefficients of phi about the
///     target cell's center of mass; acceleration g = -L1 at the expansion
///     center.
///
/// Because M2M and L2L are exact polynomial identities and every M2L pair is
/// evaluated from both sides, each side computing its own derivative
/// tensors at R and -R, which are exact mirrors (D0/D2 even and D1/D3 odd
/// in R, bit for bit), the total force sums to zero and linear momentum is
/// conserved to machine precision — the property §IV-C highlights.  Keeping the octupole term is what makes the
/// angular-momentum error small enough for the paper's coupled
/// energy-conserving scheme.
///
/// Rounding contract of the shift kernels (m2m_accumulate, l2l_shift): they
/// are straight-line code compiled with floating-point contraction off
/// (OCTO_NO_CONTRACT_BEGIN), every fused multiply-add written out as a
/// std::fma, so the compiler contracts nothing there and their bits do not
/// depend on the flags of the file that includes this header.  The fused
/// points are the ones GCC 12 chose at -O2 for the earlier loop forms.

#include <array>
#include <cmath>

#include "common/types.hpp"
#include "common/vec3.hpp"
#include "common/units.hpp"
#include "simd/simd.hpp"

namespace octo::gravity {

/// Symmetric rank-2 component order: xx, xy, xz, yy, yz, zz.
inline constexpr int NSYM2 = 6;
/// Symmetric rank-3 component order:
/// xxx, xxy, xxz, xyy, xyz, xzz, yyy, yyz, yyz->yzz, zzz.
inline constexpr int NSYM3 = 10;

/// sym2 index of (a, b), a,b in {0,1,2}.
constexpr int sym2_idx(int a, int b) {
  constexpr int map[3][3] = {{0, 1, 2}, {1, 3, 4}, {2, 4, 5}};
  return map[a][b];
}

/// The (a, b) pair of each sym2 slot (a <= b).
inline constexpr std::array<std::array<int, 2>, NSYM2> sym2_ab = {{
    {0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2},
}};

/// Multiplicity of each sym2 component in a full contraction.
inline constexpr std::array<real, NSYM2> sym2_mult = {1, 2, 2, 1, 2, 1};

/// sym3 index of (a, b, c).
constexpr int sym3_idx(int a, int b, int c) {
  // sort a <= b <= c
  if (a > b) { const int t = a; a = b; b = t; }
  if (b > c) { const int t = b; b = c; c = t; }
  if (a > b) { const int t = a; a = b; b = t; }
  // (0,0,0)=0 (0,0,1)=1 (0,0,2)=2 (0,1,1)=3 (0,1,2)=4 (0,2,2)=5
  // (1,1,1)=6 (1,1,2)=7 (1,2,2)=8 (2,2,2)=9
  constexpr int map[3][6] = {
      // indexed by a, then sym2_idx(b, c) restricted to b <= c
      {0, 1, 2, 3, 4, 5},     // a == 0
      {-1, -1, -1, 6, 7, 8},  // a == 1 (b >= 1)
      {-1, -1, -1, -1, -1, 9} // a == 2 (b >= 2)
  };
  return map[a][sym2_idx(b, c)];
}

/// Multiplicity of each sym3 component in a full contraction.
inline constexpr std::array<real, NSYM3> sym3_mult = {1, 3, 3, 3, 6,
                                                      3, 1, 3, 3, 1};

/// The (a, b, c) triple of each sym3 slot (a <= b <= c).
inline constexpr std::array<std::array<int, 3>, NSYM3> sym3_abc = {{
    {0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {0, 1, 1}, {0, 1, 2},
    {0, 2, 2}, {1, 1, 1}, {1, 1, 2}, {1, 2, 2}, {2, 2, 2},
}};

/// Multipole moments of one cell about its center of mass.
struct multipole {
  real m = 0;                         ///< monopole (mass)
  rvec3 com{0, 0, 0};                 ///< center of mass (absolute)
  std::array<real, NSYM2> q{};        ///< second central moment
  std::array<real, NSYM3> o{};        ///< third central moment
};

/// Local Taylor expansion about a cell's center of mass.
struct expansion {
  real l0 = 0;
  std::array<real, 3> l1{};
  std::array<real, NSYM2> l2{};
  std::array<real, NSYM3> l3{};

  expansion& operator+=(const expansion& e) {
    l0 += e.l0;
    for (int i = 0; i < 3; ++i) l1[i] += e.l1[i];
    for (int i = 0; i < NSYM2; ++i) l2[i] += e.l2[i];
    for (int i = 0; i < NSYM3; ++i) l3[i] += e.l3[i];
    return *this;
  }
};

/// Derivative tensors of -G/|R| at displacement R (target minus source).
struct deriv_tensors {
  real d0 = 0;
  std::array<real, 3> d1{};
  std::array<real, NSYM2> d2{};
  std::array<real, NSYM3> d3{};
};

/// Compute D0..D3 at displacement \p r (must be nonzero).  This and
/// m2l_accumulate are the scalar reference forms of the pack kernels
/// (kernels.hpp): the solver calls neither; tests use them as the oracle.
inline deriv_tensors derivatives(const rvec3& r, real G = units::G_code) {
  deriv_tensors d;
  const real r2 = dot(r, r);
  const real rinv = real(1) / std::sqrt(r2);
  const real rinv2 = rinv * rinv;
  const real rinv3 = rinv * rinv2;
  const real rinv5 = rinv3 * rinv2;
  const real rinv7 = rinv5 * rinv2;
  d.d0 = -G * rinv;
  const real c1 = G * rinv3;
  d.d1 = {c1 * r.x, c1 * r.y, c1 * r.z};
  const real c2 = -3 * G * rinv5;
  for (int a = 0; a < 3; ++a)
    for (int b = a; b < 3; ++b)
      d.d2[sym2_idx(a, b)] = c2 * r[a] * r[b] + (a == b ? G * rinv3 : 0);
  const real c3 = 15 * G * rinv7;
  for (int s = 0; s < NSYM3; ++s) {
    const int a = sym3_abc[s][0], b = sym3_abc[s][1], c = sym3_abc[s][2];
    real v = c3 * r[a] * r[b] * r[c];
    v += -3 * G * rinv5 *
         ((a == b ? r[c] : real(0)) + (a == c ? r[b] : real(0)) +
          (b == c ? r[a] : real(0)));
    d.d3[s] = v;
  }
  return d;
}

/// Accumulate the M2L contribution of \p src into the expansion at a target
/// whose COM is at displacement R = target_com - src.com (precomputed D).
inline void m2l_accumulate(const multipole& src, const deriv_tensors& d,
                           expansion& tgt) {
  // L0 = M D0 + 1/2 Q:D2 - 1/6 O:D3
  real l0 = src.m * d.d0;
  for (int s = 0; s < NSYM2; ++s) l0 += real(0.5) * sym2_mult[s] * src.q[s] * d.d2[s];
  for (int s = 0; s < NSYM3; ++s)
    l0 -= (real(1) / 6) * sym3_mult[s] * src.o[s] * d.d3[s];
  tgt.l0 += l0;

  // L1_i = M D1_i + 1/2 Q_jk D3_ijk
  for (int i = 0; i < 3; ++i) {
    real l1 = src.m * d.d1[i];
    for (int j = 0; j < 3; ++j)
      for (int k = j; k < 3; ++k) {
        const real mult = (j == k) ? 1 : 2;
        l1 += real(0.5) * mult * src.q[sym2_idx(j, k)] *
              d.d3[sym3_idx(i, j, k)];
      }
    tgt.l1[i] += l1;
  }

  // L2 = M D2,  L3 = M D3 (higher source moments truncated at total order 3)
  for (int s = 0; s < NSYM2; ++s) tgt.l2[s] += src.m * d.d2[s];
  for (int s = 0; s < NSYM3; ++s) tgt.l3[s] += src.m * d.d3[s];
}

OCTO_NO_CONTRACT_BEGIN

/// M2M: fold child moments (about child COM) into parent moments (about the
/// already-computed parent COM).  Call once per child after setting
/// parent.m and parent.com.  Each slot's sum of shifted terms is one fma
/// chain in source order, added to the parent's slot once.
inline void m2m_accumulate(const multipole& child, multipole& parent) {
  const rvec3 dv = child.com - parent.com;
  const real d[3] = {dv.x, dv.y, dv.z};
  // O first (uses child's Q before it is folded)
  OCTO_UNROLL
  for (int s = 0; s < NSYM3; ++s) {
    const int a = sym3_abc[s][0], b = sym3_abc[s][1], c = sym3_abc[s][2];
    real o = std::fma(child.q[sym2_idx(a, b)], d[c], child.o[s]);
    o = std::fma(child.q[sym2_idx(b, c)], d[a], o);
    o = std::fma(child.q[sym2_idx(a, c)], d[b], o);
    parent.o[s] += std::fma(child.m * d[a] * d[b], d[c], o);
  }
  OCTO_UNROLL
  for (int s = 0; s < NSYM2; ++s) {
    const int a = sym2_ab[s][0], b = sym2_ab[s][1];
    parent.q[s] += std::fma(child.m * d[a], d[b], child.q[s]);
  }
}

/// L2L: shift a parent expansion (about parent COM) to a child expansion
/// point displaced by h = child_com - parent_com; accumulates into \p out.
/// Every Taylor term is one fma of its product (less the last h factor)
/// with that factor, in slot order.
inline void l2l_shift(const expansion& in, const rvec3& hv, expansion& out) {
  const real h[3] = {hv.x, hv.y, hv.z};
  // L0
  real l0 = in.l0;
  OCTO_UNROLL
  for (int i = 0; i < 3; ++i) l0 = std::fma(in.l1[i], h[i], l0);
  OCTO_UNROLL
  for (int s = 0; s < NSYM2; ++s) {
    const int a = sym2_ab[s][0], b = sym2_ab[s][1];
    l0 = std::fma(real(0.5) * sym2_mult[s] * in.l2[s] * h[a], h[b], l0);
  }
  OCTO_UNROLL
  for (int s = 0; s < NSYM3; ++s) {
    const int a = sym3_abc[s][0], b = sym3_abc[s][1], c = sym3_abc[s][2];
    l0 = std::fma((real(1) / 6) * sym3_mult[s] * in.l3[s] * h[a] * h[b], h[c],
                  l0);
  }
  out.l0 += l0;
  // L1
  OCTO_UNROLL
  for (int i = 0; i < 3; ++i) {
    real l1 = in.l1[i];
    OCTO_UNROLL
    for (int j = 0; j < 3; ++j) l1 = std::fma(in.l2[sym2_idx(i, j)], h[j], l1);
    OCTO_UNROLL
    for (int s = 0; s < NSYM2; ++s) {
      const int j = sym2_ab[s][0], k = sym2_ab[s][1];
      l1 = std::fma(real(0.5) * sym2_mult[s] * in.l3[sym3_idx(i, j, k)] * h[j],
                    h[k], l1);
    }
    out.l1[i] += l1;
  }
  // L2
  OCTO_UNROLL
  for (int s = 0; s < NSYM2; ++s) {
    const int a = sym2_ab[s][0], b = sym2_ab[s][1];
    real l2 = in.l2[s];
    OCTO_UNROLL
    for (int k = 0; k < 3; ++k) l2 = std::fma(in.l3[sym3_idx(a, b, k)], h[k], l2);
    out.l2[s] += l2;
  }
  // L3
  OCTO_UNROLL
  for (int s = 0; s < NSYM3; ++s) out.l3[s] += in.l3[s];
}

OCTO_NO_CONTRACT_END

}  // namespace octo::gravity
