/// Seeded composition test: each seed draws one combination of the
/// features that must compose without changing the physics — step mode,
/// locality count (and driver at one locality), rebalance cadence, audit
/// cadence and one injected fault — runs six steps, and checks the result
/// bitwise against a fault-free, barrier-mode app::simulation reference.
/// The draws cover combinations nobody wrote a test for by hand; a failing
/// seed reproduces from its number (the drawn combination is printed).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "app/simulation.hpp"
#include "common/fault.hpp"
#include "common/random.hpp"
#include "dist/cluster.hpp"
#include "scenarios/scenarios.hpp"

namespace octo {
namespace {

constexpr int kSteps = 6;

/// Self-gravitating Gaussian bump on a two-level tree: one level-1 octant
/// refined again, so every step crosses coarse-fine faces (restrict,
/// prolong) as well as same-level faces, and leaf counts stay small.
scen::scenario bump_scenario() {
  scen::scenario sc;
  sc.name = "composition_bump";
  sc.domain_half = 1;
  sc.omega = 0;
  sc.refine = [](int lvl, const rvec3& c, real) {
    return lvl < 1 || (lvl < 2 && c[0] < 0 && c[1] < 0 && c[2] < 0);
  };
  const hydro::ideal_gas gas;
  sc.gas = gas;
  sc.init = [gas](grid::subgrid& u) {
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        for (int k = 0; k < 8; ++k) {
          const rvec3 x = u.cell_center(i, j, k);
          const real rho = real(0.1) + std::exp(-16 * norm2(x));
          const real eint = real(0.1) * rho / (gas.gamma - 1);
          const real vx = real(0.05) * x[1], vy = -real(0.05) * x[0];
          u.at(grid::f_rho, i, j, k) = rho;
          u.at(grid::f_sx, i, j, k) = rho * vx;
          u.at(grid::f_sy, i, j, k) = rho * vy;
          u.at(grid::f_sz, i, j, k) = 0;
          u.at(grid::f_egas, i, j, k) =
              eint + real(0.5) * rho * (vx * vx + vy * vy);
          u.at(grid::f_tau, i, j, k) = std::pow(eint, 1 / gas.gamma);
          u.at(grid::f_spc0, i, j, k) = rho;
          u.at(grid::f_spc1, i, j, k) = 0;
        }
  };
  return sc;
}

enum class fault_kind { none, bitflip, lossy };

/// One drawn combination.
struct combo {
  app::step_mode mode = app::step_mode::barrier;
  int localities = 1;
  bool cluster = true;  ///< driver at one locality (4 is always a cluster)
  int lb_every = 0;
  int audit_every = 4;
  fault_kind fault = fault_kind::none;
  fault::bitflip_spec flip{};

  std::string describe() const {
    std::ostringstream os;
    os << (mode == app::step_mode::dataflow ? "dataflow" : "barrier") << ", "
       << (cluster ? "dist::cluster" : "app::simulation") << " x"
       << localities << ", lb.every=" << lb_every
       << ", audit.every=" << audit_every << ", fault=";
    switch (fault) {
      case fault_kind::none: os << "none"; break;
      case fault_kind::lossy: os << "drop+dup+reorder"; break;
      case fault_kind::bitflip:
        os << "state bitflip loc " << flip.loc << " step " << flip.step
           << " leaf " << flip.leaf << " field " << flip.field;
        break;
    }
    return os.str();
  }
};

combo draw(std::uint64_t seed) {
  xoshiro256 rng(seed);
  combo c;
  c.mode = rng.below(2) ? app::step_mode::dataflow : app::step_mode::barrier;
  c.localities = rng.below(2) ? 4 : 1;
  c.cluster = c.localities > 1 || rng.below(2) != 0;
  c.lb_every = rng.below(2) ? 2 : 0;
  c.audit_every = rng.below(2) ? 4 : 1;
  c.fault = static_cast<fault_kind>(rng.below(3));
  c.flip.step = 1 + rng.below(kSteps);
  c.flip.loc = rng.below(static_cast<std::uint64_t>(c.localities));
  c.flip.leaf = rng.below(64);
  c.flip.field = rng.below(grid::NFIELD);
  return c;
}

app::sim_options base_options() {
  app::sim_options so;
  so.max_level = 2;
  so.self_gravity = true;
  so.mode = app::step_mode::barrier;
  so.audit_races = false;
  so.audit.enabled = true;
  so.audit.every = 4;
  return so;
}

class Composition : public testing::TestWithParam<std::uint64_t> {
 protected:
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};

  void SetUp() override { fault::injector::instance().reset(); }
  void TearDown() override { fault::injector::instance().reset(); }

  template <typename A, typename B>
  static void expect_bitwise_equal(const A& a, const B& b) {
    ASSERT_EQ(a.topo().num_leaves(), b.topo().num_leaves());
    for (const index_t leaf : a.topo().leaves()) {
      const auto& ga = a.leaf(leaf);
      const auto& gb = b.leaf(leaf);
      for (int f = 0; f < grid::NFIELD; ++f)
        for (int i = 0; i < 8; ++i)
          for (int j = 0; j < 8; ++j)
            for (int k = 0; k < 8; ++k)
              ASSERT_EQ(ga.at(f, i, j, k), gb.at(f, i, j, k))
                  << "leaf " << leaf << " field " << f << " cell (" << i
                  << ", " << j << ", " << k << ")";
    }
  }

  /// Run the drawn combination and compare it with the reference.
  template <typename Driver>
  static void run_and_compare(Driver& d, const app::simulation& ref,
                              const combo& c) {
    d.initialize();
    for (int s = 0; s < kSteps; ++s) d.step();
    fault::injector::instance().reset();
    EXPECT_EQ(d.steps_taken(), kSteps);
    EXPECT_EQ(d.time(), ref.time());
    EXPECT_EQ(d.dt(), ref.dt());
    EXPECT_EQ(d.sdc_detections(), c.fault == fault_kind::bitflip ? 1u : 0u);
    EXPECT_EQ(d.sdc_rollbacks(), 0u);
    expect_bitwise_equal(ref, d);
  }
};

TEST_P(Composition, SixStepsBitwiseAgainstBarrierSimulation) {
  const combo c = draw(GetParam());
  SCOPED_TRACE(c.describe());
  const auto sc = bump_scenario();

  app::simulation ref(sc, base_options());
  ref.initialize();
  for (int s = 0; s < kSteps; ++s) ref.step();

  app::sim_options so = base_options();
  so.mode = c.mode;
  so.audit.every = c.audit_every;

  auto& inj = fault::injector::instance();
  if (c.fault == fault_kind::bitflip) inj.arm_state_bitflip(c.flip);
  if (c.fault == fault_kind::lossy) {
    inj.arm_msg_drop(0.1);
    inj.arm_msg_dup(0.1);
    inj.arm_msg_reorder(0.1);
  }

  if (!c.cluster) {
    app::simulation sim(sc, so);
    run_and_compare(sim, ref, c);
    return;
  }
  dist::dist_options o;
  o.num_localities = c.localities;
  o.lb.every = c.lb_every;
  o.transport.ack_timeout_ms = 2;
  o.transport.max_retries = 30;
  o.sim = so;
  dist::cluster cl(sc, o);
  run_and_compare(cl, ref, c);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, Composition,
    testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 13u,
                    14u, 15u, 16u),
    [](const testing::TestParamInfo<std::uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

}  // namespace
}  // namespace octo
