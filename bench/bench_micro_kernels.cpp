/// Per-sub-grid costs of the physics kernels — the measurements behind the
/// machine model's kernel_work calibration (DESIGN.md §4).

#include <benchmark/benchmark.h>

#include "amt/runtime.hpp"
#include "common/random.hpp"
#include "gravity/solver.hpp"
#include "hydro/kernel.hpp"
#include "tree/topology.hpp"

namespace {

using namespace octo;

grid::subgrid random_subgrid(std::uint64_t seed) {
  grid::subgrid u(rvec3{0, 0, 0}, 0.1);
  xoshiro256 rng(seed);
  hydro::ideal_gas gas;
  for (int i = -2; i < 10; ++i)
    for (int j = -2; j < 10; ++j)
      for (int k = -2; k < 10; ++k) {
        const real rho = rng.uniform(0.5, 2.0);
        const real p = rng.uniform(0.5, 2.0);
        u.at(grid::f_rho, i, j, k) = rho;
        u.at(grid::f_sx, i, j, k) = rho * rng.uniform(-0.3, 0.3);
        u.at(grid::f_sy, i, j, k) = rho * rng.uniform(-0.3, 0.3);
        u.at(grid::f_sz, i, j, k) = rho * rng.uniform(-0.3, 0.3);
        u.at(grid::f_egas, i, j, k) = p / (gas.gamma - 1) + rho * 0.1;
        u.at(grid::f_tau, i, j, k) =
            std::pow(p / (gas.gamma - 1), 1 / gas.gamma);
        u.at(grid::f_spc0, i, j, k) = rho;
      }
  return u;
}

void hydro_flux_kernel(benchmark::State& state) {
  const bool simd = state.range(0) != 0;
  auto u = random_subgrid(1);
  hydro::hydro_options opt;
  opt.use_simd = simd;
  hydro::workspace ws;
  std::vector<real> dudt(static_cast<std::size_t>(hydro::dudt_size), 0);
  for (auto _ : state) {
    std::fill(dudt.begin(), dudt.end(), real(0));
    hydro::flux_divergence(u, opt, ws, dudt);
    benchmark::DoNotOptimize(dudt.data());
  }
  state.SetItemsProcessed(state.iterations() * 512);  // cells per sub-grid
}

void gravity_solve(benchmark::State& state) {
  // Full FMM; per-sub-grid cost = time / nodes.  Arg "tree": 0 = the root
  // plus 8 leaves; 1 = uniform level 2, every leaf on the monopole-source
  // M2L and the root split into row tasks; 2 = AMR (level 2 where x < 0),
  // whose unrefined leaves border refined nodes and keep the general leaf
  // M2L.
  const bool simd = state.range(0) != 0;
  const auto shape = state.range(1);
  amt::runtime rt(2);
  amt::scoped_global_runtime guard(rt);
  const auto refine = [shape](int lvl, const rvec3& c, real) {
    if (shape == 0) return lvl < 1;
    if (shape == 1) return lvl < 2;
    return lvl < 1 || (lvl < 2 && c.x < 0);
  };
  tree::topology topo(1.0, shape == 0 ? 1 : 2, refine);
  gravity::gravity_options opt;
  opt.use_simd = simd;
  gravity::fmm_solver fmm(topo, opt);
  xoshiro256 rng(2);
  std::vector<real> rho(512);
  for (const index_t leaf : topo.leaves()) {
    for (auto& r : rho) r = rng.uniform(0.5, 2.0);
    fmm.set_leaf_density(leaf, rho);
  }
  for (auto _ : state) {
    fmm.solve();
    benchmark::DoNotOptimize(fmm.phi(topo.leaves()[0]).data());
  }
  state.SetItemsProcessed(state.iterations() * topo.num_nodes());
}

void signal_speed(benchmark::State& state) {
  auto u = random_subgrid(3);
  hydro::hydro_options opt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hydro::max_signal_speed(u, opt));
  }
  state.SetItemsProcessed(state.iterations() * 512);
}

void boundary_pack(benchmark::State& state) {
  auto u = random_subgrid(4);
  std::vector<real> slab;
  for (auto _ : state) {
    for (int d = 0; d < NNEIGHBOR; ++d) {
      u.pack_for_neighbor(d, slab);
      benchmark::DoNotOptimize(slab.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * NNEIGHBOR);
}

void amr_restrict_prolong(benchmark::State& state) {
  auto fine = random_subgrid(5);
  grid::subgrid coarse(rvec3{0, 0, 0}, 0.2);
  for (auto _ : state) {
    grid::restrict_to_coarse(fine, 3, coarse);
    grid::prolong_from_coarse(coarse, 3, fine);
    benchmark::DoNotOptimize(fine.raw().data());
  }
}

}  // namespace

BENCHMARK(hydro_flux_kernel)->Arg(0)->Arg(1)->ArgName("simd");
BENCHMARK(gravity_solve)
    ->ArgsProduct({{0, 1}, {0, 1, 2}})
    ->ArgNames({"simd", "tree"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(signal_speed);
BENCHMARK(boundary_pack);
BENCHMARK(amr_restrict_prolong);

BENCHMARK_MAIN();
