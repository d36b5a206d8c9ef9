#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include <unistd.h>

#include "app/checkpoint.hpp"
#include "app/simulation.hpp"
#include "common/config.hpp"
#include "common/fault.hpp"

namespace octo::app {
namespace {

struct SimEnv : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
};

scen::scenario uniform_box_scenario() {
  // Hydro-only analytic scenario: smooth density/pressure bump, no gravity.
  scen::scenario sc;
  sc.name = "uniform_box";
  sc.domain_half = 1;
  sc.omega = 0;
  sc.refine = [](int lvl, const rvec3&, real) { return lvl < 1; };
  const hydro::ideal_gas gas;
  sc.gas = gas;
  sc.init = [gas](grid::subgrid& u) {
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        for (int k = 0; k < 8; ++k) {
          const rvec3 x = u.cell_center(i, j, k);
          const real rho = 1.0 + real(0.5) * std::exp(-32 * norm2(x));
          const real p = rho;  // isothermal-ish bump
          const real eint = p / (gas.gamma - 1);
          u.at(grid::f_rho, i, j, k) = rho;
          u.at(grid::f_sx, i, j, k) = 0;
          u.at(grid::f_sy, i, j, k) = 0;
          u.at(grid::f_sz, i, j, k) = 0;
          u.at(grid::f_egas, i, j, k) = eint;
          u.at(grid::f_tau, i, j, k) = std::pow(eint, 1 / gas.gamma);
          u.at(grid::f_spc0, i, j, k) = rho;
          u.at(grid::f_spc1, i, j, k) = 0;
        }
  };
  return sc;
}

TEST_F(SimEnv, InitializeBuildsTreeAndData) {
  auto sc = scen::rotating_star();
  sim_options opt;
  opt.max_level = 1;
  simulation sim(sc, opt);
  sim.initialize();
  EXPECT_EQ(sim.num_leaves(), 8);
  EXPECT_EQ(sim.num_cells(), 8 * 512);
  EXPECT_GT(sim.dt(), 0);
  const auto lg = sim.measure();
  EXPECT_GT(lg.mass, 0.9);  // polytrope of mass ~1 on a coarse grid
  EXPECT_LT(lg.pot_energy, 0);
}

TEST_F(SimEnv, MassConservedToMachinePrecision) {
  auto sc = scen::rotating_star();
  sim_options opt;
  opt.max_level = 2;
  simulation sim(sc, opt);
  sim.initialize();
  const auto l0 = sim.measure();
  for (int s = 0; s < 2; ++s) sim.step();
  const auto l1 = sim.measure();
  EXPECT_LT(std::abs(l1.mass - l0.mass) / l0.mass, 1e-13);
}

TEST_F(SimEnv, HydroOnlyEnergyAndMomentumConserved) {
  // Open (outflow) boundaries: conservation is exact up to the physical
  // flux through the boundary, which for this tiny central bump is at the
  // 1e-11 level after one step and only ever *removes* mass.
  auto sc = uniform_box_scenario();
  sim_options opt;
  opt.max_level = 1;
  opt.self_gravity = false;
  simulation sim(sc, opt);
  sim.initialize();
  const auto l0 = sim.measure();
  sim.step();
  const auto l1 = sim.measure();
  EXPECT_LT(std::abs(l1.mass - l0.mass) / l0.mass, 1e-11);
  EXPECT_LT(std::abs(l1.gas_energy - l0.gas_energy) / l0.gas_energy, 1e-11);
  EXPECT_LT(norm(l1.momentum - l0.momentum), 1e-12);
  // longer run: outflow only ever removes material, and slowly
  for (int s = 0; s < 2; ++s) sim.step();
  const auto l3 = sim.measure();
  EXPECT_LE(l3.mass, l0.mass);
  EXPECT_GT(l3.mass, l0.mass * (1 - 1e-6));
}

TEST_F(SimEnv, ExactlyUniformStateIsExactlyConserved) {
  // A bit-for-bit uniform box must not change at all (fluxes cancel and
  // the outflow boundary sees zero gradients).
  auto sc = uniform_box_scenario();
  sc.init = [gas = sc.gas](grid::subgrid& u) {
    const real eint = 1.0 / (gas.gamma - 1);
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        for (int k = 0; k < 8; ++k) {
          u.at(grid::f_rho, i, j, k) = 1.0;
          u.at(grid::f_sx, i, j, k) = 0;
          u.at(grid::f_sy, i, j, k) = 0;
          u.at(grid::f_sz, i, j, k) = 0;
          u.at(grid::f_egas, i, j, k) = eint;
          u.at(grid::f_tau, i, j, k) = std::pow(eint, 1 / gas.gamma);
          u.at(grid::f_spc0, i, j, k) = 1.0;
          u.at(grid::f_spc1, i, j, k) = 0;
        }
  };
  sim_options opt;
  opt.max_level = 1;
  opt.self_gravity = false;
  simulation sim(sc, opt);
  sim.initialize();
  const auto l0 = sim.measure();
  for (int s = 0; s < 3; ++s) sim.step();
  const auto l1 = sim.measure();
  EXPECT_EQ(l1.mass, l0.mass);
  EXPECT_EQ(l1.gas_energy, l0.gas_energy);
  EXPECT_EQ(norm(l1.momentum - l0.momentum), 0.0);
}

TEST_F(SimEnv, CoupledEnergyDriftConvergesWithResolution) {
  // The naive gravity-source coupling conserves total energy to O(dx^2):
  // the per-unit-time drift must shrink by ~4x per refinement level.
  auto sc = scen::rotating_star();
  double drift[2];
  for (int l = 1; l <= 2; ++l) {
    sim_options opt;
    opt.max_level = l;
    simulation sim(sc, opt);
    sim.initialize();
    const auto l0 = sim.measure();
    const double dt = sim.step();
    const auto l1 = sim.measure();
    drift[l - 1] = std::abs(l1.total_energy() - l0.total_energy()) /
                   std::abs(l0.total_energy()) / dt;
  }
  EXPECT_LT(drift[1], drift[0] / 2.5);
}

TEST_F(SimEnv, StateStaysFiniteOverSteps) {
  auto sc = scen::rotating_star();
  sim_options opt;
  opt.max_level = 2;
  simulation sim(sc, opt);
  sim.initialize();
  for (int s = 0; s < 3; ++s) sim.step();
  for (const index_t leaf : sim.topo().leaves()) {
    const auto& u = sim.leaf(leaf);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
          for (int k = 0; k < 8; ++k)
            ASSERT_TRUE(std::isfinite(u.at(f, i, j, k)))
                << "leaf " << leaf << " field " << f;
  }
  EXPECT_EQ(sim.steps_taken(), 3);
  EXPECT_GT(sim.time(), 0);
}

TEST_F(SimEnv, FixedDtHonored) {
  auto sc = uniform_box_scenario();
  sim_options opt;
  opt.max_level = 1;
  opt.self_gravity = false;
  opt.fixed_dt = real(1e-3);
  simulation sim(sc, opt);
  sim.initialize();
  EXPECT_DOUBLE_EQ(sim.step(), 1e-3);
}

TEST_F(SimEnv, AmrTreeRunsStably) {
  // The rotating star at level 3 has real refinement boundaries.
  auto sc = scen::rotating_star();
  sim_options opt;
  opt.max_level = 3;
  simulation sim(sc, opt);
  sim.initialize();
  const auto s = sim.topo().stats();
  EXPECT_GT(s.leaves_per_level[3], 0);
  EXPECT_GT(s.leaves_per_level[2] + s.leaves_per_level[1], 0);
  const auto l0 = sim.measure();
  sim.step();
  const auto l1 = sim.measure();
  EXPECT_LT(std::abs(l1.mass - l0.mass) / l0.mass, 1e-12);
}

TEST_F(SimEnv, CheckpointRoundTripBitwise) {
  auto sc = scen::rotating_star();
  sim_options opt;
  opt.max_level = 2;
  simulation sim(sc, opt);
  sim.initialize();
  sim.step();

  const std::string path = testing::TempDir() + "/octo_ckpt_test_" +
                           std::to_string(::getpid()) + ".bin";
  const auto bytes = write_checkpoint(sim, path);
  EXPECT_GT(bytes, 0u);

  const auto data = read_checkpoint(path);
  EXPECT_DOUBLE_EQ(data.time, sim.time());
  EXPECT_EQ(data.step, sim.steps_taken());
  EXPECT_EQ(static_cast<index_t>(data.leaf_codes.size()),
            sim.topo().num_leaves());

  simulation sim2(sc, opt);
  sim2.initialize();
  restore_checkpoint(sim2, data);
  EXPECT_EQ(sim2.time(), sim.time());
  EXPECT_EQ(sim2.steps_taken(), sim.steps_taken());
  for (const index_t leaf : sim.topo().leaves()) {
    const auto& a = sim.leaf(leaf);
    const auto& b = sim2.leaf(leaf);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
          for (int k = 0; k < 8; ++k)
            ASSERT_EQ(a.at(f, i, j, k), b.at(f, i, j, k));
  }

  // Restart transparency: restore rebuilds ghosts, gravity and the CFL dt
  // from the restored fields, so the next step must be bitwise identical
  // to the uninterrupted run's.
  EXPECT_EQ(sim2.step(), sim.step());
  EXPECT_EQ(sim2.time(), sim.time());
  for (const index_t leaf : sim.topo().leaves()) {
    const auto& a = sim.leaf(leaf);
    const auto& b = sim2.leaf(leaf);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
          for (int k = 0; k < 8; ++k)
            ASSERT_EQ(a.at(f, i, j, k), b.at(f, i, j, k));
  }
  std::remove(path.c_str());
}

TEST_F(SimEnv, CheckpointRejectsGarbage) {
  const std::string path = testing::TempDir() + "/octo_ckpt_bad_" +
                           std::to_string(::getpid()) + ".bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "definitely not a checkpoint";
  }
  EXPECT_THROW(read_checkpoint(path), error);
  std::remove(path.c_str());
}

/// Re-initialize() is a from-scratch restart: the clock, the step count and
/// the SDC counters start over, and the next step matches a fresh run.
TEST_F(SimEnv, ReinitializeResetsClockStepsAndSdcCounters) {
  const auto sc = uniform_box_scenario();
  sim_options opt;
  opt.max_level = 1;
  opt.self_gravity = false;
  opt.audit.enabled = true;
  fault::bitflip_spec flip;
  flip.step = 2;
  fault::injector::instance().reset();
  fault::injector::instance().arm_state_bitflip(flip);

  simulation sim(sc, opt);
  sim.initialize();
  sim.step();
  sim.step();
  fault::injector::instance().reset();
  ASSERT_EQ(sim.sdc_detections(), 1u);
  ASSERT_EQ(sim.sdc_retries(), 1u);
  ASSERT_GT(sim.time(), 0);

  sim.initialize();
  EXPECT_EQ(sim.time(), 0);
  EXPECT_EQ(sim.steps_taken(), 0);
  EXPECT_EQ(sim.sdc_audits(), 0u);
  EXPECT_EQ(sim.sdc_detections(), 0u);
  EXPECT_EQ(sim.sdc_retries(), 0u);
  EXPECT_EQ(sim.sdc_rollbacks(), 0u);

  simulation fresh(sc, opt);
  fresh.initialize();
  EXPECT_EQ(sim.step(), fresh.step());
  EXPECT_EQ(sim.time(), fresh.time());
  EXPECT_EQ(sim.last_step_metrics().step, 1);
}

/// A malformed OCTO_STEP_MODE fails loudly, naming the variable and the
/// value, instead of silently selecting barrier mode.
TEST(StepModeEnv, UnknownValueThrowsNamingIt) {
  const std::optional<std::string> saved = config::env("OCTO_STEP_MODE");
  ::setenv("OCTO_STEP_MODE", "dataflw", 1);
  try {
    (void)default_step_mode();
    ADD_FAILURE() << "OCTO_STEP_MODE=dataflw was accepted";
  } catch (const error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("OCTO_STEP_MODE"), std::string::npos) << what;
    EXPECT_NE(what.find("dataflw"), std::string::npos) << what;
  }
  ::setenv("OCTO_STEP_MODE", "dataflow", 1);
  EXPECT_EQ(default_step_mode(), step_mode::dataflow);
  ::setenv("OCTO_STEP_MODE", "barrier", 1);
  EXPECT_EQ(default_step_mode(), step_mode::barrier);
  if (saved)
    ::setenv("OCTO_STEP_MODE", saved->c_str(), 1);
  else
    ::unsetenv("OCTO_STEP_MODE");
}

TEST(RaceAuditEnv, OnlyZeroOrOneAccepted) {
  const std::optional<std::string> saved = config::env("OCTO_RACE_AUDIT");
  for (const char* bad : {"false", "true", "2"}) {
    ::setenv("OCTO_RACE_AUDIT", bad, 1);
    try {
      (void)default_audit_races();
      ADD_FAILURE() << "OCTO_RACE_AUDIT='" << bad << "' was accepted";
    } catch (const error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("OCTO_RACE_AUDIT"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
    }
  }
  ::setenv("OCTO_RACE_AUDIT", "0", 1);
  EXPECT_FALSE(default_audit_races());
  ::setenv("OCTO_RACE_AUDIT", "1", 1);
  EXPECT_TRUE(default_audit_races());
  ::unsetenv("OCTO_RACE_AUDIT");
  EXPECT_FALSE(default_audit_races());
  if (saved) ::setenv("OCTO_RACE_AUDIT", saved->c_str(), 1);
}

}  // namespace
}  // namespace octo::app
