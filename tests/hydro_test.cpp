#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.hpp"
#include "hydro/kernel.hpp"

namespace octo::hydro {
namespace {

using grid::subgrid;
constexpr int N = subgrid::N;
constexpr int G = subgrid::G;

/// Fill with a uniform state of given primitive values (incl. ghosts).
void fill_uniform(subgrid& u, const ideal_gas& gas, real rho, rvec3 v,
                  real p) {
  const real eint = p / (gas.gamma - 1);
  for (int i = -G; i < N + G; ++i)
    for (int j = -G; j < N + G; ++j)
      for (int k = -G; k < N + G; ++k) {
        u.at(grid::f_rho, i, j, k) = rho;
        u.at(grid::f_sx, i, j, k) = rho * v.x;
        u.at(grid::f_sy, i, j, k) = rho * v.y;
        u.at(grid::f_sz, i, j, k) = rho * v.z;
        u.at(grid::f_egas, i, j, k) = eint + real(0.5) * rho * norm2(v);
        u.at(grid::f_tau, i, j, k) = std::pow(eint, 1 / gas.gamma);
        u.at(grid::f_spc0, i, j, k) = rho;
        u.at(grid::f_spc1, i, j, k) = 0;
      }
}

void fill_random_state(subgrid& u, const ideal_gas& gas, std::uint64_t seed) {
  xoshiro256 rng(seed);
  for (int i = -G; i < N + G; ++i)
    for (int j = -G; j < N + G; ++j)
      for (int k = -G; k < N + G; ++k) {
        const real rho = rng.uniform(0.5, 2.0);
        const rvec3 v{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                      rng.uniform(-0.3, 0.3)};
        const real p = rng.uniform(0.5, 2.0);
        const real eint = p / (gas.gamma - 1);
        u.at(grid::f_rho, i, j, k) = rho;
        u.at(grid::f_sx, i, j, k) = rho * v.x;
        u.at(grid::f_sy, i, j, k) = rho * v.y;
        u.at(grid::f_sz, i, j, k) = rho * v.z;
        u.at(grid::f_egas, i, j, k) = eint + real(0.5) * rho * norm2(v);
        u.at(grid::f_tau, i, j, k) = std::pow(eint, 1 / gas.gamma);
        u.at(grid::f_spc0, i, j, k) = rho * real(0.6);
        u.at(grid::f_spc1, i, j, k) = rho * real(0.4);
      }
}

/// Quiet NaN into the 20 edge and corner ghost regions of \p u (directions
/// NFACE..NNEIGHBOR-1); the six face ghosts and the owned cells keep their
/// values.
void poison_edges_and_corners(subgrid& u) {
  const real nan = std::numeric_limits<real>::quiet_NaN();
  for (int d = NFACE; d < NNEIGHBOR; ++d) {
    const ivec3 dir = tree::directions()[d];
    int lo[3], hi[3];
    for (int a = 0; a < 3; ++a)
      subgrid::ghost_range(static_cast<int>(dir[a]), lo[a], hi[a]);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = lo[0]; i < hi[0]; ++i)
        for (int j = lo[1]; j < hi[1]; ++j)
          for (int k = lo[2]; k < hi[2]; ++k) u.at(f, i, j, k) = nan;
  }
}

bool same_bits(const std::vector<real>& a, const std::vector<real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

TEST(Eos, PressureAndSoundSpeed) {
  ideal_gas gas;
  EXPECT_NEAR(gas.pressure(1.5), (gas.gamma - 1) * 1.5, 1e-15);
  const real cs = gas.sound_speed(2.0, 3.0);
  EXPECT_NEAR(cs, std::sqrt(gas.gamma * 3.0 / 2.0), 1e-15);
}

TEST(Eos, DualEnergySelection) {
  ideal_gas gas;
  // well-resolved internal energy: use egas - ke
  const real eint1 = gas.internal_energy(1, 0.1, 0, 0, 1.0, 0.5);
  EXPECT_NEAR(eint1, 1.0 - 0.005, 1e-12);
  // kinetic-dominated: fall back to tau^gamma
  const real tau = 0.7;
  const real ke = real(0.5) * 100.0;  // |s|=10, rho=1
  const real eint2 = gas.internal_energy(1, 10, 0, 0, ke * (1 + 1e-6), tau);
  EXPECT_NEAR(eint2, std::pow(tau, gas.gamma), 1e-10);
}

TEST(Eos, TauRoundTrip) {
  ideal_gas gas;
  const real eint = 0.37;
  EXPECT_NEAR(std::pow(gas.tau_from_eint(eint), gas.gamma), eint, 1e-13);
}

struct HydroKernels : testing::TestWithParam<bool> {
  hydro_options opt;
  workspace ws;
  void SetUp() override { opt.use_simd = GetParam(); }
};

TEST_P(HydroKernels, UniformStateHasZeroFluxDivergence) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  fill_uniform(u, opt.gas, 1.3, rvec3{0.2, -0.1, 0.05}, 0.8);
  std::vector<real> dudt(static_cast<std::size_t>(dudt_size), 0);
  flux_divergence(u, opt, ws, dudt);
  for (const real v : dudt) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST_P(HydroKernels, StaticContactIsStationary) {
  // zero velocity, uniform pressure, a density jump: exact stationary
  // solution of the Euler equations -> only rho/tau advection terms, all 0.
  subgrid u(rvec3{0, 0, 0}, 0.1);
  fill_uniform(u, opt.gas, 1.0, rvec3{0, 0, 0}, 1.0);
  for (int i = -G; i < N + G; ++i)
    for (int j = -G; j < N + G; ++j)
      for (int k = -G; k < N + G; ++k)
        if (i >= N / 2) u.at(grid::f_rho, i, j, k) = 2.0;
  std::vector<real> dudt(static_cast<std::size_t>(dudt_size), 0);
  flux_divergence(u, opt, ws, dudt);
  // HLL is diffusive across the contact, so rho evolves, but momentum and
  // energy sources must stay bounded by the diffusive flux scale and the
  // velocity must remain zero-symmetric... At minimum: sy, sz exactly 0.
  real rho_max = 0;
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k) {
        EXPECT_NEAR(dudt[dudt_idx(grid::f_sy, i, j, k)], 0.0, 1e-12);
        EXPECT_NEAR(dudt[dudt_idx(grid::f_sz, i, j, k)], 0.0, 1e-12);
        rho_max =
            std::max(rho_max, std::abs(dudt[dudt_idx(grid::f_rho, i, j, k)]));
      }
  EXPECT_GT(rho_max, 1e-3);  // HLL diffuses the contact
}

TEST_P(HydroKernels, FluxDivergenceTelescopesWithPeriodicGhosts) {
  // With periodic self-ghosts, the total change of every conserved field
  // over the box is exactly zero (fluxes telescope).
  subgrid u(rvec3{0, 0, 0}, 0.1);
  fill_random_state(u, opt.gas, 99);
  for (int d = 0; d < NNEIGHBOR; ++d) u.fill_ghost_periodic_self(d);
  std::vector<real> dudt(static_cast<std::size_t>(dudt_size), 0);
  flux_divergence(u, opt, ws, dudt);
  for (int f = 0; f < grid::NFIELD; ++f) {
    real total = 0, scale = 0;
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k) {
          total += dudt[dudt_idx(f, i, j, k)];
          scale += std::abs(dudt[dudt_idx(f, i, j, k)]);
        }
    EXPECT_LE(std::abs(total), 1e-12 * std::max(scale, real(1)))
        << "field " << f;
  }
}

TEST_P(HydroKernels, SignalSpeedMatchesPrimitives) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  const rvec3 v{0.3, -0.2, 0.1};
  fill_uniform(u, opt.gas, 2.0, v, 1.5);
  const real cs = opt.gas.sound_speed(2.0, 1.5);
  EXPECT_NEAR(max_signal_speed(u, opt), 0.3 + cs, 1e-12);
}

/// The ghost contract the step's face-only exchange rests on: no hydro
/// kernel reads an edge or corner ghost, so poisoning them changes no bit.
TEST_P(HydroKernels, EdgeAndCornerGhostsAreNeverRead) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  fill_random_state(u, opt.gas, 2024);
  std::vector<real> clean(static_cast<std::size_t>(dudt_size), 0);
  flux_divergence(u, opt, ws, clean);
  const real vmax = max_signal_speed(u, opt);

  poison_edges_and_corners(u);
  std::vector<real> poisoned(static_cast<std::size_t>(dudt_size), 0);
  flux_divergence(u, opt, ws, poisoned);
  EXPECT_TRUE(same_bits(clean, poisoned));
  const real vmax_poisoned = max_signal_speed(u, opt);
  EXPECT_EQ(std::memcmp(&vmax, &vmax_poisoned, sizeof(real)), 0);
}

INSTANTIATE_TEST_SUITE_P(SimdOnOff, HydroKernels, testing::Bool());

/// Prolongation into a fine leaf's face ghosts reads its coarse host's
/// owned cells and face ghosts only: a host with poisoned edges and
/// corners fills every face bitwise as a clean one does.
TEST(GhostContract, CoarseFaceFillIgnoresHostEdgesAndCorners) {
  ideal_gas gas;
  subgrid host(rvec3{0, 0, 0}, 0.2);
  fill_random_state(host, gas, 77);
  subgrid poisoned_host = host;
  poison_edges_and_corners(poisoned_host);
  // The host's children cover sub-grid coordinates [2, 3]^3 one level down;
  // the fine leaf sits just outside them, across face d.
  const ivec3 host_coords{1, 1, 1};
  for (int d = 0; d < NFACE; ++d) {
    const ivec3 dir = tree::directions()[d];
    ivec3 fine_coords{2, 2, 2};
    for (int a = 0; a < 3; ++a)
      if (dir[a] != 0) fine_coords[a] = dir[a] < 0 ? 4 : 1;
    subgrid a(rvec3{0, 0, 0}, 0.1), b(rvec3{0, 0, 0}, 0.1);
    grid::fill_ghost_from_coarse(a, fine_coords, d, host, host_coords);
    grid::fill_ghost_from_coarse(b, fine_coords, d, poisoned_host,
                                 host_coords);
    EXPECT_TRUE(same_bits(a.raw(), b.raw())) << "face " << d;
  }
}

TEST(HydroKernels, ScalarAndSimdAgreeBitwiseish) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  ideal_gas gas;
  fill_random_state(u, gas, 1234);
  workspace ws1, ws2;
  hydro_options o1, o2;
  o1.use_simd = false;
  o2.use_simd = true;
  std::vector<real> d1(static_cast<std::size_t>(dudt_size), 0);
  std::vector<real> d2(static_cast<std::size_t>(dudt_size), 0);
  flux_divergence(u, o1, ws1, d1);
  flux_divergence(u, o2, ws2, d2);
  for (std::size_t c = 0; c < d1.size(); ++c)
    ASSERT_NEAR(d1[c], d2[c], 1e-11 * std::max(std::abs(d1[c]), real(1)));
}

/// Random state whose cells resolve their internal energy (egas - ke) or
/// not, as \p unresolved(i, j, k) says.  tau is inconsistent with egas
/// everywhere (tau^gamma is 2-5 times the resolved eint, and O(1) where
/// egas - ke is only 1e-5 ke), so a lane that takes the wrong branch of the
/// dual-energy switch moves the pressure and the sound speed by O(1).
template <typename Pred>
void fill_dual_energy_state(subgrid& u, const ideal_gas& gas,
                            std::uint64_t seed, Pred unresolved) {
  xoshiro256 rng(seed);
  for (int i = -G; i < N + G; ++i)
    for (int j = -G; j < N + G; ++j)
      for (int k = -G; k < N + G; ++k) {
        const bool cold = unresolved(i, j, k);
        const real rho = rng.uniform(0.5, 2.0);
        const real vmag = cold ? 2.0 : 0.3;
        const rvec3 v{rng.uniform(-vmag, vmag), rng.uniform(-vmag, vmag),
                      rng.uniform(-vmag, vmag)};
        const real ke = real(0.5) * rho * norm2(v);
        const real eint = cold ? 1e-5 * ke : rng.uniform(0.5, 2.0);
        const real etau = cold ? rng.uniform(0.5, 2.0)
                               : eint * rng.uniform(2.0, 5.0);
        u.at(grid::f_rho, i, j, k) = rho;
        u.at(grid::f_sx, i, j, k) = rho * v.x;
        u.at(grid::f_sy, i, j, k) = rho * v.y;
        u.at(grid::f_sz, i, j, k) = rho * v.z;
        u.at(grid::f_egas, i, j, k) = ke + eint;
        u.at(grid::f_tau, i, j, k) = std::pow(etau, 1 / gas.gamma);
        u.at(grid::f_spc0, i, j, k) = rho * real(0.6);
        u.at(grid::f_spc1, i, j, k) = rho * real(0.4);
      }
}

/// max_signal_speed from the scalar EOS, cell by cell.
real reference_signal_speed(const subgrid& u, const ideal_gas& gas,
                            int& n_unresolved) {
  real vmax = 0;
  n_unresolved = 0;
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k) {
        const real rho = u.at(grid::f_rho, i, j, k);
        const real sx = u.at(grid::f_sx, i, j, k);
        const real sy = u.at(grid::f_sy, i, j, k);
        const real sz = u.at(grid::f_sz, i, j, k);
        const real egas = u.at(grid::f_egas, i, j, k);
        const real ke = real(0.5) * (sx * sx + sy * sy + sz * sz) / rho;
        n_unresolved += !(egas - ke > gas.energy_switch * egas);
        const real eint = gas.internal_energy(rho, sx, sy, sz, egas,
                                              u.at(grid::f_tau, i, j, k));
        const real vabs =
            std::max({std::abs(sx), std::abs(sy), std::abs(sz)}) / rho;
        vmax = std::max(vmax, vabs + gas.sound_speed(rho, gas.pressure(eint)));
      }
  return vmax;
}

/// The scalar and native-pack paths agree on flux_divergence and
/// max_signal_speed (ScalarAndSimdAgreeBitwiseish tolerance), and both
/// signal speeds match the scalar EOS; returns the unresolved cell count.
int expect_dual_energy_paths_agree(const subgrid& u) {
  workspace ws1, ws2;
  hydro_options o1, o2;
  o1.use_simd = false;
  o2.use_simd = true;
  std::vector<real> d1(static_cast<std::size_t>(dudt_size), 0);
  std::vector<real> d2(static_cast<std::size_t>(dudt_size), 0);
  flux_divergence(u, o1, ws1, d1);
  flux_divergence(u, o2, ws2, d2);
  for (std::size_t c = 0; c < d1.size(); ++c)
    EXPECT_NEAR(d1[c], d2[c], 1e-11 * std::max(std::abs(d1[c]), real(1)))
        << "flux_divergence entry " << c;
  int n_unresolved = 0;
  const real ref = reference_signal_speed(u, o1.gas, n_unresolved);
  const real v1 = max_signal_speed(u, o1);
  const real v2 = max_signal_speed(u, o2);
  EXPECT_NEAR(v1, v2, 1e-11 * std::max(std::abs(v1), real(1)));
  EXPECT_NEAR(v1, ref, 1e-12 * ref);
  EXPECT_NEAR(v2, ref, 1e-12 * ref);
  return n_unresolved;
}

TEST(HydroDualEnergy, MixedLanesMatchScalarPath) {
  // Checkerboard: every native pack along k (2 or 4 lanes) holds resolved
  // and unresolved lanes, so only the select() keeps each lane's branch.
  subgrid u(rvec3{0, 0, 0}, 0.1);
  const ideal_gas gas;
  fill_dual_energy_state(u, gas, 77, [](int i, int j, int k) {
    return ((i + j + k) & 1) != 0;
  });
  EXPECT_EQ(expect_dual_energy_paths_agree(u), N * N * N / 2);
}

TEST(HydroDualEnergy, AllResolvedIgnoresTau) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  const ideal_gas gas;
  fill_dual_energy_state(u, gas, 78, [](int, int, int) { return false; });
  EXPECT_EQ(expect_dual_energy_paths_agree(u), 0);
}

TEST(HydroDualEnergy, AllUnresolvedUsesTau) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  const ideal_gas gas;
  fill_dual_energy_state(u, gas, 79, [](int, int, int) { return true; });
  EXPECT_EQ(expect_dual_energy_paths_agree(u), N * N * N);
}

TEST(HydroSources, GravityMomentumAndEnergy) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  ideal_gas gas;
  fill_uniform(u, gas, 2.0, rvec3{0.5, 0, 0}, 1.0);
  std::vector<real> dudt(static_cast<std::size_t>(dudt_size), 0);
  std::vector<real> gx(static_cast<std::size_t>(dudt_size), 0);
  std::vector<real> gy(static_cast<std::size_t>(dudt_size), 0);
  std::vector<real> gz(static_cast<std::size_t>(dudt_size), 0);
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k) gx[dudt_idx(0, i, j, k)] = -1.5;
  hydro_options opt;
  add_sources(u, opt, gx.data(), gy.data(), gz.data(), dudt);
  // dsx/dt = rho gx; degas/dt = sx gx
  EXPECT_NEAR(dudt[dudt_idx(grid::f_sx, 3, 3, 3)], 2.0 * -1.5, 1e-13);
  EXPECT_NEAR(dudt[dudt_idx(grid::f_egas, 3, 3, 3)], 1.0 * -1.5, 1e-13);
  EXPECT_NEAR(dudt[dudt_idx(grid::f_sy, 3, 3, 3)], 0.0, 1e-15);
}

TEST(HydroSources, RotatingFrameTerms) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  ideal_gas gas;
  const rvec3 v{0.2, -0.3, 0.1};
  fill_uniform(u, gas, 1.0, v, 1.0);
  hydro_options opt;
  opt.omega = 0.7;
  std::vector<real> dudt(static_cast<std::size_t>(dudt_size), 0);
  add_sources(u, opt, nullptr, nullptr, nullptr, dudt);
  const int i = 5, j = 2, k = 4;
  const rvec3 x = u.cell_center(i, j, k);
  const real om = opt.omega;
  // a = Omega^2 (x,y,0) + 2 Omega (vy, -vx, 0)
  const real ax = om * om * x.x + 2 * om * v.y;
  const real ay = om * om * x.y - 2 * om * v.x;
  EXPECT_NEAR(dudt[dudt_idx(grid::f_sx, i, j, k)], ax, 1e-12);
  EXPECT_NEAR(dudt[dudt_idx(grid::f_sy, i, j, k)], ay, 1e-12);
  EXPECT_NEAR(dudt[dudt_idx(grid::f_sz, i, j, k)], 0.0, 1e-15);
  // Coriolis does no work: energy source only from the centrifugal part
  const real de = v.x * om * om * x.x + v.y * om * om * x.y;
  EXPECT_NEAR(dudt[dudt_idx(grid::f_egas, i, j, k)], de, 1e-12);
}

TEST(HydroStage, ApplyDudtAndBlend) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  ideal_gas gas;
  fill_uniform(u, gas, 1.0, rvec3{0, 0, 0}, 1.0);
  std::vector<real> u0(static_cast<std::size_t>(subgrid::owned_size));
  u.save_owned(u0.data());
  std::vector<real> dudt(static_cast<std::size_t>(dudt_size), 2.0);
  apply_dudt(u, dudt, 0.5);
  EXPECT_NEAR(u.at(grid::f_rho, 0, 0, 0), 2.0, 1e-14);
  stage_blend(u, u0, 0.75, 0.25);  // 0.75*1.0 + 0.25*2.0
  EXPECT_NEAR(u.at(grid::f_rho, 0, 0, 0), 1.25, 1e-14);
}

TEST(HydroStage, FloorsEnforcePositivityAndSpeciesSum) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  ideal_gas gas;
  fill_uniform(u, gas, 1.0, rvec3{0, 0, 0}, 1.0);
  u.at(grid::f_rho, 1, 1, 1) = -5.0;  // unphysical
  u.at(grid::f_spc0, 2, 2, 2) = -1.0;
  u.at(grid::f_spc1, 2, 2, 2) = 3.0;
  apply_floors_and_sync_tau(u, gas);
  EXPECT_GE(u.at(grid::f_rho, 1, 1, 1), gas.rho_floor);
  EXPECT_GE(u.at(grid::f_spc0, 2, 2, 2), 0.0);
  EXPECT_NEAR(u.at(grid::f_spc0, 2, 2, 2) + u.at(grid::f_spc1, 2, 2, 2),
              u.at(grid::f_rho, 2, 2, 2), 1e-12);
}

TEST(HydroStage, TauSyncedWhereEnergyResolved) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  ideal_gas gas;
  fill_uniform(u, gas, 1.0, rvec3{0.1, 0, 0}, 1.0);
  u.at(grid::f_tau, 0, 0, 0) = 999;  // inconsistent tau
  apply_floors_and_sync_tau(u, gas);
  const real eint = 1.0 / (gas.gamma - 1);
  EXPECT_NEAR(u.at(grid::f_tau, 0, 0, 0), std::pow(eint, 1 / gas.gamma),
              1e-12);
}

TEST(HydroMeasure, TotalsOfUniformState) {
  subgrid u(rvec3{0, 0, 0}, 0.1);
  ideal_gas gas;
  const rvec3 v{0.3, 0.2, -0.1};
  fill_uniform(u, gas, 2.0, v, 1.0);
  const auto t = measure(u);
  const real vol = std::pow(N * 0.1, 3);
  EXPECT_NEAR(t.mass, 2.0 * vol, 1e-12);
  EXPECT_NEAR(t.momentum.x, 2.0 * v.x * vol, 1e-12);
  EXPECT_NEAR(t.energy,
              (1.0 / (gas.gamma - 1) + real(0.5) * 2.0 * norm2(v)) * vol,
              1e-12);
}

TEST(HydroShock, SodTubeQualitative) {
  // 1-D Sod problem along x across one sub-grid with outflow ends:
  // after a few small steps the interface must develop the classic
  // left-rarefaction / right-shock structure: monotone density decrease,
  // positive interface velocity, bounded states.
  ideal_gas gas;
  gas.gamma = real(1.4);
  hydro_options opt;
  opt.gas = gas;
  subgrid u(rvec3{0, 0, 0}, real(1.0) / N);
  for (int i = -G; i < N + G; ++i)
    for (int j = -G; j < N + G; ++j)
      for (int k = -G; k < N + G; ++k) {
        const bool left = i < N / 2;
        const real rho = left ? 1.0 : real(0.125);
        const real p = left ? 1.0 : real(0.1);
        u.at(grid::f_rho, i, j, k) = rho;
        u.at(grid::f_sx, i, j, k) = 0;
        u.at(grid::f_sy, i, j, k) = 0;
        u.at(grid::f_sz, i, j, k) = 0;
        u.at(grid::f_egas, i, j, k) = p / (gas.gamma - 1);
        u.at(grid::f_tau, i, j, k) =
            std::pow(p / (gas.gamma - 1), 1 / gas.gamma);
        u.at(grid::f_spc0, i, j, k) = rho;
        u.at(grid::f_spc1, i, j, k) = 0;
      }
  workspace ws;
  const real dt = real(0.2) * u.dx() / 2.0;
  for (int s = 0; s < 10; ++s) {
    // refresh x-outflow / transverse-periodic ghosts
    for (int d = 0; d < NNEIGHBOR; ++d) {
      const ivec3 dir = tree::directions()[d];
      if (dir.x != 0)
        u.fill_ghost_outflow(d);
      else
        u.fill_ghost_periodic_self(d);
    }
    std::vector<real> dudt(static_cast<std::size_t>(dudt_size), 0);
    flux_divergence(u, opt, ws, dudt);
    apply_dudt(u, dudt, dt);
    apply_floors_and_sync_tau(u, gas);
  }
  // density monotone decreasing along x (rarefaction-contact-shock layout)
  for (int i = 1; i < N; ++i) {
    EXPECT_LE(u.at(grid::f_rho, i, 4, 4),
              u.at(grid::f_rho, i - 1, 4, 4) + 1e-10);
  }
  // interface gas moves right
  EXPECT_GT(u.at(grid::f_sx, N / 2, 4, 4), 0.0);
  // bounded by initial states
  for (int i = 0; i < N; ++i) {
    EXPECT_LE(u.at(grid::f_rho, i, 4, 4), 1.0 + 1e-10);
    EXPECT_GE(u.at(grid::f_rho, i, 4, 4), 0.125 - 1e-10);
  }
}

}  // namespace
}  // namespace octo::hydro
