/// Tests for the extension features: dynamic regridding, the Sedov blast
/// scenario, the gridded rotating-star density, and the DES critical-path
/// analysis.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "app/simulation.hpp"
#include "des/workload.hpp"

namespace octo {
namespace {

using grid::subgrid;
constexpr int N = subgrid::N;

struct ExtEnv : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
};

TEST_F(ExtEnv, SedovBlastExpandsSpherically) {
  auto sc = scen::sedov();
  app::sim_options opt;
  opt.max_level = 2;
  opt.self_gravity = false;
  app::simulation sim(sc, opt);
  sim.initialize();
  const auto l0 = sim.measure();
  for (int s = 0; s < 4; ++s) sim.step();
  const auto l1 = sim.measure();
  // closed-box-like early phase: energy conserved to outflow level
  EXPECT_NEAR(l1.gas_energy, l0.gas_energy, 1e-6 * l0.gas_energy);
  // shock moved outward: the densest cell is off-center and compressed
  // above ambient, the innermost cells (r = 0.054; the next shell is at
  // r = 0.104) are evacuated below it
  real r_peak = 0, rho_peak = 0, r_center = 1, rho_center = 0;
  for (const index_t leaf : sim.topo().leaves()) {
    const auto& u = sim.leaf(leaf);
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k) {
          const real r = norm(u.cell_center(i, j, k));
          const real rho = u.at(grid::f_rho, i, j, k);
          if (rho > rho_peak) {
            rho_peak = rho;
            r_peak = r;
          }
          if (r < r_center) {
            r_center = r;
            rho_center = rho;
          }
        }
  }
  EXPECT_GT(r_peak, 0.1);
  EXPECT_GT(rho_peak, 1.1);
  EXPECT_LT(rho_center, 1.0);
  // spherical symmetry: +x and +y momenta mirror to ~roundoff
  EXPECT_LT(norm(l1.momentum), 1e-10);
}

TEST_F(ExtEnv, RegridRefinesWhereDense) {
  // Start a star on a coarse tree with a permissive threshold, then
  // regrid: the tree must refine around the star, and mass must be
  // conserved exactly by the copy/prolongation transfer.
  auto sc = scen::rotating_star();
  app::sim_options opt;
  opt.max_level = 3;
  opt.rho_refine = real(0.5);  // only the dense core triggers refinement
  app::simulation sim(sc, opt);
  sim.initialize();
  const auto before = sim.measure();
  const auto leaves_before = sim.num_leaves();
  const bool changed = sim.regrid();
  const auto after = sim.measure();
  EXPECT_TRUE(changed || sim.num_leaves() == leaves_before);
  EXPECT_NEAR(after.mass, before.mass, 1e-12 * before.mass);
  EXPECT_NEAR(after.gas_energy, before.gas_energy,
              1e-12 * std::abs(before.gas_energy));
  // the dense core region must sit at max_level
  const index_t center = sim.topo().find_enclosing(
      tree::code_from_coords(opt.max_level,
                             {SUBGRID_N / 2, SUBGRID_N / 2, SUBGRID_N / 2}));
  (void)center;
  const auto s = sim.topo().stats();
  EXPECT_GT(s.leaves_per_level[static_cast<std::size_t>(opt.max_level)], 0);
}

TEST_F(ExtEnv, RegridIdempotentWhenNothingChanges) {
  auto sc = scen::rotating_star();
  app::sim_options opt;
  opt.max_level = 2;
  opt.rho_refine = real(1e-9);  // everything already refined at init
  app::simulation sim(sc, opt);
  sim.initialize();
  sim.regrid();
  EXPECT_FALSE(sim.regrid());  // second regrid: no change
}

TEST_F(ExtEnv, RegridThenStepStable) {
  auto sc = scen::rotating_star();
  app::sim_options opt;
  opt.max_level = 2;
  opt.rho_refine = real(0.5);
  app::simulation sim(sc, opt);
  sim.initialize();
  sim.regrid();
  const auto l0 = sim.measure();
  sim.step();
  const auto l1 = sim.measure();
  EXPECT_LT(std::abs(l1.mass - l0.mass) / l0.mass, 1e-12);
}

TEST_F(ExtEnv, SliceExtractionCoversPlane) {
  auto sc = scen::rotating_star();
  app::sim_options opt;
  opt.max_level = 2;
  app::simulation sim(sc, opt);
  sim.initialize();
  // leaf cells whose z-extent holds the plane z = 0.01
  constexpr real z = 0.01;
  std::size_t cells = 0;
  real peak = 0;
  for (const index_t leaf : sim.topo().leaves()) {
    const auto& u = sim.leaf(leaf);
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k) {
          const real zc = u.cell_center(i, j, k)[2];
          if (z < zc - u.dx() / 2 || z >= zc + u.dx() / 2) continue;
          ++cells;
          peak = std::max(peak, u.at(grid::f_rho, i, j, k));
        }
  }
  // the z~0 plane of a level-2 uniform region: 32x32 cells
  EXPECT_GE(cells, 32u * 32u);
  EXPECT_GT(peak, 1.0);  // stellar core density
}

TEST_F(ExtEnv, RadialProfileMonotoneForPolytrope) {
  auto sc = scen::rotating_star();
  app::sim_options opt;
  opt.max_level = 2;
  app::simulation sim(sc, opt);
  sim.initialize();
  // cells sample the polytrope at their centers: sorted by radius, the
  // density never rises
  std::vector<std::pair<real, real>> cells;  // (radius, density)
  for (const index_t leaf : sim.topo().leaves()) {
    const auto& u = sim.leaf(leaf);
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k)
          cells.emplace_back(norm(u.cell_center(i, j, k)),
                             u.at(grid::f_rho, i, j, k));
  }
  ASSERT_FALSE(cells.empty());
  std::sort(cells.begin(), cells.end());
  for (std::size_t c = 1; c < cells.size(); ++c)
    ASSERT_LE(cells[c].second, cells[c - 1].second * (1 + 1e-6))
        << "r=" << cells[c].first;
}

TEST(CriticalPath, ChainAndWidth) {
  des::graph g;
  const auto a = g.add_task(1.0, 0);
  const auto b = g.add_task(2.0, 0);
  const auto c = g.add_task(4.0, 0);  // parallel to the a->b chain
  g.add_edge(a, b);
  (void)c;
  const auto pa = des::analyze_critical_path(g, machine::fugaku());
  EXPECT_DOUBLE_EQ(pa.critical_path_seconds, 4.0);
  EXPECT_DOUBLE_EQ(pa.total_work_seconds, 7.0);
}

TEST(CriticalPath, RemoteEdgeAddsLatency) {
  des::graph g;
  const auto a = g.add_task(1.0, 0);
  const auto b = g.add_task(1.0, 1);
  g.add_edge(a, b, 1e6);
  const auto m = machine::fugaku();
  const auto pa = des::analyze_critical_path(g, m);
  EXPECT_DOUBLE_EQ(pa.critical_path_seconds, 2.0);
  EXPECT_NEAR(pa.with_latency_seconds,
              2.0 + (m.net.latency_us + m.net.per_message_us) * 1e-6 +
                  1e6 / (m.net.bandwidth_gbs * 1e9),
              1e-12);
}

TEST(CriticalPath, LowerBoundsSimulatedMakespan) {
  auto sc = scen::rotating_star();
  const auto topo = sc.make_topology(3);
  const auto part = tree::partition_sfc(topo, 8);
  const des::workload_options opt;
  des::graph g = des::build_step_graph(topo, part, machine::fugaku(), opt);
  const auto pa = des::analyze_critical_path(g, machine::fugaku());
  des::engine_config cfg;
  cfg.machine = machine::fugaku();
  cfg.num_nodes = 8;
  const auto r = des::simulate(g, cfg);
  EXPECT_GE(r.makespan, pa.critical_path_seconds - 1e-12);
  EXPECT_GE(r.makespan, pa.total_work_seconds / (8.0 * 48) - 1e-12);
}

}  // namespace
}  // namespace octo
