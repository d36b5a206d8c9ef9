#pragma once
/// \file kernel.hpp
/// Per-sub-grid hydrodynamics compute kernels: piecewise-linear (minmod)
/// reconstruction, HLL Riemann fluxes, flux divergence, source terms and the
/// CFL signal speed.
///
/// Every kernel is written once against the explicit SIMD pack type
/// (simd/simd.hpp) and compiled twice — scalar ABI and vector ABI — with a
/// runtime switch (`hydro_options::use_simd`).  This mirrors the paper's
/// SVE on/off experiment (Fig. 7): same source, different SIMD type.

#include <array>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "common/vec3.hpp"
#include "grid/subgrid.hpp"
#include "hydro/eos.hpp"

namespace octo::hydro {

struct hydro_options {
  ideal_gas gas{};
  /// Rotating-frame angular frequency about z (the binary's orbital
  /// frequency; reduces numerical viscosity early in a simulation, §IV-C).
  real omega = 0;
  /// Select the vector-ABI kernels (the paper's SVE toggle).
  bool use_simd = true;
};

/// Number of reals in a du/dt block (owned cells only, all fields).
inline constexpr index_t dudt_size = grid::subgrid::owned_size;

/// Index into a du/dt block (or any owned-cell block).
constexpr index_t dudt_idx(int f, int i, int j, int k) {
  return ((index_t(f) * SUBGRID_N + i) * SUBGRID_N + j) * SUBGRID_N + k;
}

/// Scratch buffers reused across kernel invocations (one per task is fine;
/// allocation is amortized).
class workspace {
 public:
  workspace();
  real* slope(int f) { return slope_[f].data(); }
  real* flux(int f) { return flux_[f].data(); }

 private:
  std::array<std::vector<real>, grid::NFIELD> slope_;
  std::array<std::vector<real>, grid::NFIELD> flux_;
};

/// dudt -= div(F) over owned cells.  Ghost shells of \p u must be current.
/// \p dudt is accumulated into (callers zero it first).
void flux_divergence(const grid::subgrid& u, const hydro_options& opt,
                     workspace& ws, std::span<real> dudt);

/// Add gravity + rotating-frame sources.  \p gx/gy/gz are the gravitational
/// acceleration components per owned cell (dudt_idx layout with f = 0), or
/// nullptr for no gravity.
void add_sources(const grid::subgrid& u, const hydro_options& opt,
                 const real* gx, const real* gy, const real* gz,
                 std::span<real> dudt);

/// Maximum |v| + c_s over owned cells (for the CFL condition).
real max_signal_speed(const grid::subgrid& u, const hydro_options& opt);

/// u += dt * dudt on owned cells.
void apply_dudt(grid::subgrid& u, std::span<const real> dudt, real dt);

/// u = ca * u0 + cb * u  on owned cells (SSP-RK3 stage combination); \p u0
/// is an owned-cell block (grid::subgrid::save_owned, dudt_idx layout).
void stage_blend(grid::subgrid& u, std::span<const real> u0, real ca,
                 real cb);

/// Apply density/energy floors and re-sync tau from egas where the
/// difference egas - ke is well resolved (dual-energy bookkeeping).
void apply_floors_and_sync_tau(grid::subgrid& u, const ideal_gas& gas);

/// Conserved totals over owned cells (for the conservation ledger).
struct conserved_totals {
  real mass = 0;
  rvec3 momentum{0, 0, 0};
  real energy = 0;       ///< gas energy only (no potential)
  rvec3 ang_momentum{0, 0, 0};  ///< about the origin, gas only
};
conserved_totals measure(const grid::subgrid& u);

}  // namespace octo::hydro
