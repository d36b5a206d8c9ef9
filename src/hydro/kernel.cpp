#include "hydro/kernel.hpp"

#include <cmath>

#include "apex/trace.hpp"
#include "common/error.hpp"
#include "simd/simd.hpp"

namespace octo::hydro {

using grid::NFIELD;
using grid::subgrid;

namespace {

constexpr int N = subgrid::N;
constexpr int G = subgrid::G;
constexpr int NT = subgrid::NT;

/// Scratch array length: one field block plus pack-overrun padding.
constexpr index_t scratch_len = subgrid::cells_per_field + subgrid::simd_pad;

using scalar_pack = octo::simd<real, octo::simd_abi::scalar>;
using vector_pack = octo::simd<real, octo::simd_abi::native<real>>;

/// Lane-wise pow (no vector pow in the ABI; trip count is tiny and fixed).
/// to_prim calls it only for packs where some lane falls back to tau.
template <typename P>
P pack_pow(P base, real exp) {
  P r;
  for (int l = 0; l < P::size(); ++l)
    r.set(l, std::pow(base[l], exp));
  return r;
}

template <typename P>
struct state_pack {
  P rho, sx, sy, sz, egas, tau, spc0, spc1;
};

template <typename P>
struct prim_pack {
  P rho, vx, vy, vz, p, cs;
};

template <typename P>
void load_state(const subgrid& u, index_t lin, state_pack<P>& s) {
  s.rho.copy_from(u.field_data(grid::f_rho) + lin);
  s.sx.copy_from(u.field_data(grid::f_sx) + lin);
  s.sy.copy_from(u.field_data(grid::f_sy) + lin);
  s.sz.copy_from(u.field_data(grid::f_sz) + lin);
  s.egas.copy_from(u.field_data(grid::f_egas) + lin);
  s.tau.copy_from(u.field_data(grid::f_tau) + lin);
  s.spc0.copy_from(u.field_data(grid::f_spc0) + lin);
  s.spc1.copy_from(u.field_data(grid::f_spc1) + lin);
}

/// Reconstructed state: cell value +/- half slope, from scratch arrays.
template <typename P>
void load_recon(const subgrid& u, workspace& ws, index_t cell_lin,
                real sign_half, state_pack<P>& s) {
  P v, sl;
  const real h = sign_half;
  const auto one_field = [&](int f, P& dst) {
    v.copy_from(u.field_data(f) + cell_lin);
    sl.copy_from(ws.slope(f) + cell_lin);
    dst = fma(P(h), sl, v);
  };
  one_field(grid::f_rho, s.rho);
  one_field(grid::f_sx, s.sx);
  one_field(grid::f_sy, s.sy);
  one_field(grid::f_sz, s.sz);
  one_field(grid::f_egas, s.egas);
  one_field(grid::f_tau, s.tau);
  one_field(grid::f_spc0, s.spc0);
  one_field(grid::f_spc1, s.spc1);
}

template <typename P>
prim_pack<P> to_prim(const state_pack<P>& s, const ideal_gas& gas) {
  prim_pack<P> q;
  q.rho = max(s.rho, P(gas.rho_floor));
  const P inv_rho = P(1) / q.rho;
  q.vx = s.sx * inv_rho;
  q.vy = s.sy * inv_rho;
  q.vz = s.sz * inv_rho;
  const P ke = P(0.5) * (s.sx * q.vx + s.sy * q.vy + s.sz * q.vz);
  const P e1 = s.egas - ke;
  const auto use_e1 =
      (e1 > P(gas.energy_switch) * s.egas) && (e1 > P(gas.eint_floor));
  // Where every lane resolves its energy, select() would return e1 exactly.
  P e = e1;
  if (!all_of(use_e1))
    e = select(use_e1, e1, pack_pow(max(s.tau, P(0)), gas.gamma));
  const P eint = max(e, P(gas.eint_floor));
  q.p = P(gas.gamma - 1) * eint;
  q.cs = sqrt(P(gas.gamma) * q.p / q.rho);
  return q;
}

/// Physical flux of the Euler system along \p axis.
template <typename P>
state_pack<P> phys_flux(const state_pack<P>& s, const prim_pack<P>& q,
                        int axis) {
  const P va = axis == 0 ? q.vx : (axis == 1 ? q.vy : q.vz);
  state_pack<P> F;
  F.rho = s.rho * va;
  F.sx = s.sx * va;
  F.sy = s.sy * va;
  F.sz = s.sz * va;
  if (axis == 0) F.sx += q.p;
  if (axis == 1) F.sy += q.p;
  if (axis == 2) F.sz += q.p;
  F.egas = (s.egas + q.p) * va;
  F.tau = s.tau * va;
  F.spc0 = s.spc0 * va;
  F.spc1 = s.spc1 * va;
  return F;
}

/// HLL flux from left/right reconstructed conserved states.
template <typename P>
state_pack<P> hll_flux(const state_pack<P>& UL, const state_pack<P>& UR,
                       int axis, const ideal_gas& gas) {
  const prim_pack<P> qL = to_prim(UL, gas);
  const prim_pack<P> qR = to_prim(UR, gas);
  const P vaL = axis == 0 ? qL.vx : (axis == 1 ? qL.vy : qL.vz);
  const P vaR = axis == 0 ? qR.vx : (axis == 1 ? qR.vy : qR.vz);
  const P sL = min(vaL - qL.cs, vaR - qR.cs);
  const P sR = max(vaL + qL.cs, vaR + qR.cs);
  const state_pack<P> FL = phys_flux(UL, qL, axis);
  const state_pack<P> FR = phys_flux(UR, qR, axis);

  const auto left = sL >= P(0);
  const auto right = sR <= P(0);
  const P den = sR - sL;
  // Avoid 0/0 in fully masked lanes.
  const P inv_den = P(1) / max(den, P(1e-300));
  state_pack<P> F;
  const auto blend = [&](const P& fl, const P& fr, const P& ul, const P& ur) {
    const P mid = (sR * fl - sL * fr + sL * sR * (ur - ul)) * inv_den;
    return select(left, fl, select(right, fr, mid));
  };
  F.rho = blend(FL.rho, FR.rho, UL.rho, UR.rho);
  F.sx = blend(FL.sx, FR.sx, UL.sx, UR.sx);
  F.sy = blend(FL.sy, FR.sy, UL.sy, UR.sy);
  F.sz = blend(FL.sz, FR.sz, UL.sz, UR.sz);
  F.egas = blend(FL.egas, FR.egas, UL.egas, UR.egas);
  F.tau = blend(FL.tau, FR.tau, UL.tau, UR.tau);
  F.spc0 = blend(FL.spc0, FR.spc0, UL.spc0, UR.spc0);
  F.spc1 = blend(FL.spc1, FR.spc1, UL.spc1, UR.spc1);
  return F;
}

template <typename P>
P pack_minmod(P a, P b) {
  const auto opposite = a * b <= P(0);
  const P m = select(abs(a) < abs(b), a, b);
  return select(opposite, P(0), m);
}

/// Cell stride along an axis in the linear (field-block) index space.
constexpr index_t axis_stride(int axis) {
  return axis == 0 ? index_t(NT) * NT : (axis == 1 ? index_t(NT) : 1);
}

template <typename P>
void flux_divergence_impl(const subgrid& u, const ideal_gas& gas,
                          workspace& ws, real* dudt) {
  static_assert(N % 1 == 0);
  const int W = P::size();
  OCTO_ASSERT(N % W == 0 || W == 1);
  const real inv_dx = real(1) / u.dx();

  for (int axis = 0; axis < 3; ++axis) {
    const index_t st = axis_stride(axis);

    // --- 1. minmod slopes along `axis` for cells in [-1, N] x owned^2 ----
    {
      const int ilo = axis == 0 ? -1 : 0;
      const int ihi = axis == 0 ? N + 1 : N;
      const int jlo = axis == 1 ? -1 : 0;
      const int jhi = axis == 1 ? N + 1 : N;
      const int klo = axis == 2 ? -1 : 0;
      const int khi = axis == 2 ? N + 1 : N;
      for (int f = 0; f < NFIELD; ++f) {
        const real* src = u.field_data(f);
        real* sl = ws.slope(f);
        for (int i = ilo; i < ihi; ++i)
          for (int j = jlo; j < jhi; ++j)
            for (int k = klo; k < khi; k += W) {
              const index_t c = subgrid::idx(i, j, k);
              P um, u0, up;
              um.copy_from(src + c - st);
              u0.copy_from(src + c);
              up.copy_from(src + c + st);
              pack_minmod(up - u0, u0 - um).copy_to(sl + c);
            }
      }
    }

    // --- 2. HLL fluxes on faces: face (i,j,k) sits between cell-1 and cell
    {
      const int ihi = axis == 0 ? N + 1 : N;
      const int jhi = axis == 1 ? N + 1 : N;
      const int khi = axis == 2 ? N + 1 : N;
      for (int i = 0; i < ihi; ++i)
        for (int j = 0; j < jhi; ++j)
          for (int k = 0; k < khi; k += W) {
            const index_t c = subgrid::idx(i, j, k);
            state_pack<P> UL, UR;
            load_recon(u, ws, c - st, real(0.5), UL);
            load_recon(u, ws, c, real(-0.5), UR);
            const state_pack<P> F = hll_flux(UL, UR, axis, gas);
            F.rho.copy_to(ws.flux(grid::f_rho) + c);
            F.sx.copy_to(ws.flux(grid::f_sx) + c);
            F.sy.copy_to(ws.flux(grid::f_sy) + c);
            F.sz.copy_to(ws.flux(grid::f_sz) + c);
            F.egas.copy_to(ws.flux(grid::f_egas) + c);
            F.tau.copy_to(ws.flux(grid::f_tau) + c);
            F.spc0.copy_to(ws.flux(grid::f_spc0) + c);
            F.spc1.copy_to(ws.flux(grid::f_spc1) + c);
          }
    }

    // --- 3. divergence over owned cells -------------------------------
    for (int f = 0; f < NFIELD; ++f) {
      const real* fl = ws.flux(f);
      for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
          for (int k = 0; k < N; k += W) {
            const index_t c = subgrid::idx(i, j, k);
            P lo, hi, acc;
            lo.copy_from(fl + c);
            hi.copy_from(fl + c + st);
            acc.copy_from(dudt + dudt_idx(f, i, j, k));
            acc -= (hi - lo) * P(inv_dx);
            acc.copy_to(dudt + dudt_idx(f, i, j, k));
          }
    }
  }
}

template <typename P>
real max_signal_speed_impl(const subgrid& u, const ideal_gas& gas) {
  P vmax(0);
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; k += P::size()) {
        const index_t c = subgrid::idx(i, j, k);
        state_pack<P> s;
        load_state(u, c, s);
        const prim_pack<P> q = to_prim(s, gas);
        const P v =
            max(max(abs(q.vx), abs(q.vy)), abs(q.vz)) + q.cs;
        vmax = max(vmax, v);
      }
  return hmax(vmax);
}

}  // namespace

workspace::workspace() {
  for (auto& v : slope_) v.assign(static_cast<std::size_t>(scratch_len), 0);
  for (auto& v : flux_) v.assign(static_cast<std::size_t>(scratch_len), 0);
}

void flux_divergence(const subgrid& u, const hydro_options& opt,
                     workspace& ws, std::span<real> dudt) {
  OCTO_ASSERT(dudt.size() == static_cast<std::size_t>(dudt_size));
  // The paper's "Reconstruct + Flux" Kokkos kernel; one span per sub-grid.
  const apex::scoped_trace_span span("hydro.flux_divergence");
  if (opt.use_simd) {
    flux_divergence_impl<vector_pack>(u, opt.gas, ws, dudt.data());
  } else {
    flux_divergence_impl<scalar_pack>(u, opt.gas, ws, dudt.data());
  }
}

real max_signal_speed(const subgrid& u, const hydro_options& opt) {
  return opt.use_simd ? max_signal_speed_impl<vector_pack>(u, opt.gas)
                      : max_signal_speed_impl<scalar_pack>(u, opt.gas);
}

void add_sources(const subgrid& u, const hydro_options& opt, const real* gx,
                 const real* gy, const real* gz, std::span<real> dudt) {
  OCTO_ASSERT(dudt.size() == static_cast<std::size_t>(dudt_size));
  const real omega = opt.omega;
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k) {
        const index_t c = subgrid::idx(i, j, k);
        const index_t d0 = dudt_idx(0, i, j, k);
        const real rho = u.field_data(grid::f_rho)[c];
        const real sx = u.field_data(grid::f_sx)[c];
        const real sy = u.field_data(grid::f_sy)[c];
        const real sz = u.field_data(grid::f_sz)[c];

        real ax = 0, ay = 0, az = 0;  // acceleration (per unit mass)
        if (gx != nullptr) {
          ax += gx[d0];
          ay += gy[d0];
          az += gz[d0];
        }
        if (omega != 0) {
          const rvec3 x = u.cell_center(i, j, k);
          // centrifugal
          ax += omega * omega * x.x;
          ay += omega * omega * x.y;
          // Coriolis: -2 Omega x v
          const real vx = sx / rho;
          const real vy = sy / rho;
          ax += 2 * omega * vy;
          ay -= 2 * omega * vx;
        }
        dudt[dudt_idx(grid::f_sx, i, j, k)] += rho * ax;
        dudt[dudt_idx(grid::f_sy, i, j, k)] += rho * ay;
        dudt[dudt_idx(grid::f_sz, i, j, k)] += rho * az;
        // Energy: v . (rho a), but Coriolis does no work -> use only
        // gravity + centrifugal parts.
        real ex = 0, ey = 0, ez = 0;
        if (gx != nullptr) {
          ex += gx[d0];
          ey += gy[d0];
          ez += gz[d0];
        }
        if (omega != 0) {
          const rvec3 x = u.cell_center(i, j, k);
          ex += omega * omega * x.x;
          ey += omega * omega * x.y;
        }
        dudt[dudt_idx(grid::f_egas, i, j, k)] += sx * ex + sy * ey + sz * ez;
      }
}

void apply_dudt(subgrid& u, std::span<const real> dudt, real dt) {
  for (int f = 0; f < NFIELD; ++f) {
    real* p = u.field_data(f);
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k)
          p[subgrid::idx(i, j, k)] += dt * dudt[dudt_idx(f, i, j, k)];
  }
}

void stage_blend(subgrid& u, std::span<const real> u0, real ca, real cb) {
  OCTO_ASSERT(u0.size() == static_cast<std::size_t>(dudt_size));
  for (int f = 0; f < NFIELD; ++f) {
    real* p = u.field_data(f);
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j) {
        const real* q = u0.data() + dudt_idx(f, i, j, 0);
        for (int k = 0; k < N; ++k) {
          const index_t c = subgrid::idx(i, j, k);
          p[c] = ca * q[k] + cb * p[c];
        }
      }
  }
}

void apply_floors_and_sync_tau(subgrid& u, const ideal_gas& gas) {
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k) {
#if OCTO_EOS_GUARDS
        eos_guard().i = i;
        eos_guard().j = j;
        eos_guard().k = k;
#endif
        const index_t c = subgrid::idx(i, j, k);
        real& rho = u.field_data(grid::f_rho)[c];
        if (rho < gas.rho_floor) rho = gas.rho_floor;
        real& sx = u.field_data(grid::f_sx)[c];
        real& sy = u.field_data(grid::f_sy)[c];
        real& sz = u.field_data(grid::f_sz)[c];
        real& egas = u.field_data(grid::f_egas)[c];
        real& tau = u.field_data(grid::f_tau)[c];
        const real ke = real(0.5) * (sx * sx + sy * sy + sz * sz) / rho;
        real eint = egas - ke;
        if (eint > gas.energy_switch * egas && eint > gas.eint_floor) {
          // Energy well resolved: re-sync tau from egas.
          tau = gas.tau_from_eint(eint);
        } else {
          // Fall back to tau; enforce consistency of egas.
          eint = std::pow(tau > 0 ? tau : real(0), gas.gamma);
          if (eint < gas.eint_floor) {
            eint = gas.eint_floor;
            tau = gas.tau_from_eint(eint);
          }
          egas = ke + eint;
        }
        // Species stay within [0, rho] and sum to rho (they are a
        // partition of the density).
        real& s0 = u.field_data(grid::f_spc0)[c];
        real& s1 = u.field_data(grid::f_spc1)[c];
        s0 = std::max(s0, real(0));
        s1 = std::max(s1, real(0));
        const real ssum = s0 + s1;
        if (ssum > 0) {
          const real scale = rho / ssum;
          s0 *= scale;
          s1 *= scale;
        } else {
          s0 = rho;
          s1 = 0;
        }
      }
}

conserved_totals measure(const subgrid& u) {
  conserved_totals t;
  const real vol = u.cell_volume();
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k) {
        const index_t c = subgrid::idx(i, j, k);
        const real rho = u.field_data(grid::f_rho)[c];
        const real sx = u.field_data(grid::f_sx)[c];
        const real sy = u.field_data(grid::f_sy)[c];
        const real sz = u.field_data(grid::f_sz)[c];
        t.mass += rho * vol;
        t.momentum += rvec3{sx, sy, sz} * vol;
        t.energy += u.field_data(grid::f_egas)[c] * vol;
        const rvec3 x = u.cell_center(i, j, k);
        t.ang_momentum += cross(x, rvec3{sx, sy, sz}) * vol;
      }
  return t;
}

}  // namespace octo::hydro
