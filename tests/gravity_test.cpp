#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "common/random.hpp"
#include "gravity/solver.hpp"
#include "tree/topology.hpp"

namespace octo::gravity {
namespace {

tree::refine_predicate uniform_to(int level) {
  return [level](int lvl, const rvec3&, real) { return lvl < level; };
}

std::vector<real> blob_density(const tree::topology& topo, index_t leaf,
                               std::uint64_t seed) {
  xoshiro256 rng(seed ^ static_cast<std::uint64_t>(leaf));
  std::vector<real> rho(512);
  const rvec3 c = topo.center(leaf);
  for (int q = 0; q < 512; ++q)
    rho[static_cast<std::size_t>(q)] =
        std::exp(-4 * norm2(c)) * rng.uniform(0.8, 1.2);
  return rho;
}

struct GravityEnv : testing::Test {
  amt::runtime rt{2};
  amt::scoped_global_runtime guard{rt};
};

TEST_F(GravityEnv, DerivativeTensorsMatchFiniteDifferences) {
  const rvec3 r{0.31, -0.22, 0.47};
  const auto d = derivatives(r, 1.0);
  const real h = 1e-6;
  const auto phi = [](const rvec3& x) { return -1.0 / norm(x); };
  // D1 = grad phi
  for (int a = 0; a < 3; ++a) {
    rvec3 rp = r, rm = r;
    rp[a] += h;
    rm[a] -= h;
    EXPECT_NEAR(d.d1[a], (phi(rp) - phi(rm)) / (2 * h), 1e-7);
  }
  // D2 via second differences of phi
  for (int a = 0; a < 3; ++a)
    for (int b = a; b < 3; ++b) {
      rvec3 rpp = r, rpm = r, rmp = r, rmm = r;
      rpp[a] += h; rpp[b] += h;
      rpm[a] += h; rpm[b] -= h;
      rmp[a] -= h; rmp[b] += h;
      rmm[a] -= h; rmm[b] -= h;
      const real fd = (phi(rpp) - phi(rpm) - phi(rmp) + phi(rmm)) /
                      (4 * h * h);
      EXPECT_NEAR(d.d2[sym2_idx(a, b)], fd, 2e-4);
    }
}

TEST_F(GravityEnv, M2MPreservesPotentialFarAway) {
  // Aggregate two point masses into one multipole; its M2L potential at a
  // distant target must match the direct sum to high order.
  multipole c1, c2;
  c1.m = 1.0;
  c1.com = rvec3{0.02, 0.01, -0.03};
  c2.m = 2.0;
  c2.com = rvec3{-0.04, 0.03, 0.02};
  multipole parent;
  parent.m = c1.m + c2.m;
  parent.com = (c1.m * c1.com + c2.m * c2.com) / parent.m;
  m2m_accumulate(c1, parent);
  m2m_accumulate(c2, parent);

  const rvec3 target{1.0, 0.4, -0.3};
  expansion e;
  m2l_accumulate(parent, derivatives(target - parent.com, 1.0), e);
  const real exact = -c1.m / norm(target - c1.com) -
                     c2.m / norm(target - c2.com);
  EXPECT_NEAR(e.l0, exact, 1e-5 * std::abs(exact));
}

TEST_F(GravityEnv, L2LShiftIsExactTaylorTranslation) {
  // Build an expansion from a distant monopole, shift it, and compare phi
  // against evaluating the expansion terms directly at the shifted point.
  multipole src;
  src.m = 3.0;
  src.com = rvec3{2.0, 1.0, -1.5};
  const rvec3 center{0.1, -0.2, 0.05};
  expansion e;
  m2l_accumulate(src, derivatives(center - src.com, 1.0), e);

  const rvec3 h{0.03, -0.02, 0.01};
  expansion shifted;
  l2l_shift(e, h, shifted);

  // Direct Taylor evaluation of the original expansion at center + h.
  real phi = e.l0;
  for (int a = 0; a < 3; ++a) phi += e.l1[a] * h[a];
  for (int a = 0; a < 3; ++a)
    for (int b = a; b < 3; ++b)
      phi += (a == b ? 0.5 : 1.0) * e.l2[sym2_idx(a, b)] * h[a] * h[b];
  for (int s = 0; s < NSYM3; ++s) {
    const auto abc = sym3_abc[s];
    phi += sym3_mult[s] / 6 * e.l3[s] * h[abc[0]] * h[abc[1]] * h[abc[2]];
  }
  EXPECT_NEAR(shifted.l0, phi, 1e-14);
}

TEST_F(GravityEnv, SingleNodeMatchesDirectExactly) {
  tree::topology topo(1.0, 0, uniform_to(0));
  fmm_solver fmm(topo);
  direct_solver dir(topo);
  const auto rho = blob_density(topo, 0, 1);
  fmm.set_leaf_density(0, rho);
  dir.set_leaf_density(0, rho);
  fmm.solve();
  dir.solve();
  auto fp = fmm.phi(0);
  auto dp = dir.phi(0);
  for (int c = 0; c < 512; ++c)
    ASSERT_NEAR(fp[c], dp[c], 1e-12 * std::abs(dp[c]));
}

class FmmAccuracy : public testing::TestWithParam<int> {
 protected:
  amt::runtime rt{2};
  amt::scoped_global_runtime guard{rt};
};

TEST_P(FmmAccuracy, MatchesDirectSummation) {
  const int level = GetParam();
  tree::topology topo(1.0, level, uniform_to(level));
  fmm_solver fmm(topo);
  direct_solver dir(topo);
  for (const index_t leaf : topo.leaves()) {
    const auto rho = blob_density(topo, leaf, 17);
    fmm.set_leaf_density(leaf, rho);
    dir.set_leaf_density(leaf, rho);
  }
  fmm.solve();
  dir.solve();
  real gmax = 0, emax = 0;
  for (const index_t leaf : topo.leaves()) {
    auto fx = fmm.gx(leaf), fy = fmm.gy(leaf), fz = fmm.gz(leaf);
    auto dx = dir.gx(leaf), dy = dir.gy(leaf), dz = dir.gz(leaf);
    for (int c = 0; c < 512; ++c) {
      const rvec3 fg{fx[c], fy[c], fz[c]}, dg{dx[c], dy[c], dz[c]};
      gmax = std::max(gmax, norm(dg));
      emax = std::max(emax, norm(fg - dg));
    }
  }
  EXPECT_LT(emax / gmax, 1e-2) << "order-3 FMM accuracy regression";
}

INSTANTIATE_TEST_SUITE_P(Levels, FmmAccuracy, testing::Values(1, 2));

TEST_F(GravityEnv, LinearMomentumConservedToMachinePrecision) {
  tree::topology topo(1.0, 2, uniform_to(2));
  fmm_solver fmm(topo);
  for (const index_t leaf : topo.leaves())
    fmm.set_leaf_density(leaf, blob_density(topo, leaf, 5));
  fmm.solve();
  const rvec3 F = fmm.total_force();
  // characteristic force scale: M * |g|max ~ M^2 / R^2 ~ O(M^2)
  const real scale = fmm.total_mass() * fmm.total_mass();
  EXPECT_LT(norm(F) / scale, 1e-12);
}

TEST_F(GravityEnv, MomentumConservedOnAmrTree) {
  // AMR tree: refinement boundary pairs must also cancel exactly.
  const auto refine = [](int lvl, const rvec3& c, real) {
    return lvl < 1 || (lvl < 2 && c.x < 0);
  };
  tree::topology topo(1.0, 2, refine);
  EXPECT_GT(topo.max_depth(), 1);
  fmm_solver fmm(topo);
  for (const index_t leaf : topo.leaves())
    fmm.set_leaf_density(leaf, blob_density(topo, leaf, 31));
  fmm.solve();
  const rvec3 F = fmm.total_force();
  const real scale = fmm.total_mass() * fmm.total_mass();
  EXPECT_LT(norm(F) / scale, 1e-12);
}

TEST_F(GravityEnv, AmrTreeAccuracyVsDirect) {
  const auto refine = [](int lvl, const rvec3& c, real) {
    return lvl < 1 || (lvl < 2 && c.x < 0);
  };
  tree::topology topo(1.0, 2, refine);
  fmm_solver fmm(topo);
  direct_solver dir(topo);
  for (const index_t leaf : topo.leaves()) {
    const auto rho = blob_density(topo, leaf, 8);
    fmm.set_leaf_density(leaf, rho);
    dir.set_leaf_density(leaf, rho);
  }
  fmm.solve();
  dir.solve();
  real gmax = 0, emax = 0;
  for (const index_t leaf : topo.leaves()) {
    auto fx = fmm.gx(leaf), fy = fmm.gy(leaf), fz = fmm.gz(leaf);
    auto dx = dir.gx(leaf), dy = dir.gy(leaf), dz = dir.gz(leaf);
    for (int c = 0; c < 512; ++c) {
      const rvec3 fg{fx[c], fy[c], fz[c]}, dg{dx[c], dy[c], dz[c]};
      gmax = std::max(gmax, norm(dg));
      emax = std::max(emax, norm(fg - dg));
    }
  }
  EXPECT_LT(emax / gmax, 2e-2);
}

TEST_F(GravityEnv, ScalarAndSimdKernelsAgree) {
  tree::topology topo(1.0, 2, uniform_to(2));
  gravity_options o1, o2;
  o1.use_simd = false;
  o2.use_simd = true;
  fmm_solver f1(topo, o1), f2(topo, o2);
  for (const index_t leaf : topo.leaves()) {
    const auto rho = blob_density(topo, leaf, 77);
    f1.set_leaf_density(leaf, rho);
    f2.set_leaf_density(leaf, rho);
  }
  f1.solve();
  f2.solve();
  for (const index_t leaf : topo.leaves()) {
    auto a = f1.phi(leaf), b = f2.phi(leaf);
    for (int c = 0; c < 512; ++c)
      ASSERT_NEAR(a[c], b[c], 1e-11 * std::abs(a[c]));
  }
}

class ChunkInvariance : public testing::TestWithParam<int> {
 protected:
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
};

TEST_P(ChunkInvariance, ChunkCountDoesNotChangeResult) {
  // The paper's Fig. 9 knob is performance-only: results must be identical.
  tree::topology topo(1.0, 1, uniform_to(1));
  gravity_options ref_opt;
  ref_opt.m2l_chunks = 1;
  fmm_solver ref(topo, ref_opt);
  gravity_options opt;
  opt.m2l_chunks = GetParam();
  fmm_solver fmm(topo, opt);
  for (const index_t leaf : topo.leaves()) {
    const auto rho = blob_density(topo, leaf, 3);
    ref.set_leaf_density(leaf, rho);
    fmm.set_leaf_density(leaf, rho);
  }
  ref.solve();
  fmm.solve();
  for (const index_t leaf : topo.leaves()) {
    auto a = ref.phi(leaf), b = fmm.phi(leaf);
    auto ax = ref.gx(leaf), bx = fmm.gx(leaf);
    for (int c = 0; c < 512; ++c) {
      ASSERT_DOUBLE_EQ(a[c], b[c]);
      ASSERT_DOUBLE_EQ(ax[c], bx[c]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkInvariance, testing::Values(2, 4, 16));

/// Runs m2l_chunks in {1, 2, 16} on \p topo and requires phi and g to be
/// bitwise identical: chunks and the root's row tasks only partition
/// target rows, never a cell's accumulation order.
void expect_chunk_counts_bitwise(const tree::topology& topo) {
  std::vector<std::unique_ptr<fmm_solver>> runs;
  for (const int chunks : {1, 2, 16}) {
    gravity_options opt;
    opt.m2l_chunks = chunks;
    auto& fmm = *runs.emplace_back(std::make_unique<fmm_solver>(topo, opt));
    for (const index_t leaf : topo.leaves())
      fmm.set_leaf_density(leaf, blob_density(topo, leaf, 11));
    fmm.solve();
  }
  using output = std::span<const real> (fmm_solver::*)(index_t) const;
  const std::pair<const char*, output> outputs[] = {{"phi", &fmm_solver::phi},
                                                    {"gx", &fmm_solver::gx},
                                                    {"gy", &fmm_solver::gy},
                                                    {"gz", &fmm_solver::gz}};
  const auto& ref = *runs.front();
  for (std::size_t r = 1; r < runs.size(); ++r)
    for (const index_t leaf : topo.leaves())
      for (const auto& [name, out] : outputs) {
        const auto a = (ref.*out)(leaf), b = ((*runs[r]).*out)(leaf);
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
            << name << ", leaf " << leaf << ", run " << r;
      }
}

class ChunkCountBitwise : public testing::Test {
 protected:
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
};

TEST_F(ChunkCountBitwise, UniformTreeMonopoleLeavesAndSplitRoot) {
  // Every leaf's same-level neighbors are leaves: all leaves take the
  // monopole-source kernel, and the interior root is split into row tasks.
  tree::topology topo(1.0, 2, uniform_to(2));
  expect_chunk_counts_bitwise(topo);
}

TEST_F(ChunkCountBitwise, AmrTreeKeepsGeneralLeafKernel) {
  // The unrefined x > 0 leaves border refined same-level nodes and keep the
  // general leaf-target kernel; the refined x < 0 leaves are monopole-only.
  const auto refine = [](int lvl, const rvec3& c, real) {
    return lvl < 1 || (lvl < 2 && c.x < 0);
  };
  tree::topology topo(1.0, 2, refine);
  expect_chunk_counts_bitwise(topo);
}

/// The monopole-source kernel against the general leaf-target kernel with
/// q = o = 0, over a run of offsets accumulated into one pack accumulator:
/// the L0/L1 bits must match exactly.
template <typename P>
void expect_mono_matches_general(std::uint64_t seed) {
  constexpr int W = P::size();
  const real G = gravity_options{}.G;
  xoshiro256 rng(seed);
  const auto random_pack = [&](real lo, real hi) {
    P p;
    for (int l = 0; l < W; ++l) p.set(l, rng.uniform(lo, hi));
    return p;
  };
  P even_mask, odd_mask;
  for (int l = 0; l < W; ++l) {
    even_mask.set(l, (l & 1) == 0 ? real(1) : real(0));
    odd_mask.set(l, (l & 1) == 0 ? real(0) : real(1));
  }
  const P tx = random_pack(-1, 1), ty = random_pack(-1, 1),
          tz = random_pack(-1, 1);
  pack_expansion<P> general, mono;
  for (int s = 0; s < 96; ++s) {
    pack_multipole<P> src;
    src.m = random_pack(0, 2);
    if (s % 5 == 0) src.m.set(s % W, 0);  // empty cells
    src.cx = random_pack(2, 4);
    src.cy = random_pack(-4, -2);
    src.cz = random_pack(-3, 3);
    if (s == 95) {  // halo fill of a missing neighbor
      src.m = P(0);
      src.cx = src.cy = src.cz = P(real(1e30));
    }
    for (auto& q : src.q) q = P(0);
    for (auto& o : src.o) o = P(0);
    if (s % 3 == 1) src.m *= even_mask;  // +3 offsets
    if (s % 3 == 2) src.m *= odd_mask;   // -3 offsets
    pack_derivs<P> d, d01;
    compute_derivs(tx - src.cx, ty - src.cy, tz - src.cz, G, d);
    compute_derivs<1>(tx - src.cx, ty - src.cy, tz - src.cz, G, d01);
    m2l_pack<P, false>(src, d, general);
    m2l_mono_pack(src.m, d01, mono);
  }
  const auto lanes = [](const P& p) {
    std::vector<real> v(W);
    p.copy_to(v.data());
    return v;
  };
  const auto same_bits = [&](const P& a, const P& b) {
    const auto va = lanes(a), vb = lanes(b);
    return std::memcmp(va.data(), vb.data(), W * sizeof(real)) == 0;
  };
  EXPECT_TRUE(same_bits(general.l0, mono.l0)) << "L0, width " << W;
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(same_bits(general.l1[i], mono.l1[i]))
        << "L1[" << i << "], width " << W;
}

TEST_F(GravityEnv, MonopoleSourceKernelMatchesGeneralBitwise) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expect_mono_matches_general<simd<real, simd_abi::scalar>>(seed);
    expect_mono_matches_general<simd<real, simd_abi::native<real>>>(seed);
  }
}

TEST_F(GravityEnv, UniformSphereInteriorField) {
  // g(r) = -4/3 pi G rho r inside a uniform sphere.
  tree::topology topo(1.0, 2, uniform_to(2));
  fmm_solver fmm(topo);
  const real R = 0.6, rho0 = 1.0;
  for (const index_t leaf : topo.leaves()) {
    std::vector<real> rho(512);
    const rvec3 c = topo.center(leaf);
    const real dx = topo.cell_width(leaf);
    const real half = 0.5 * 8 * dx;
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        for (int k = 0; k < 8; ++k) {
          const rvec3 x{c.x - half + (i + 0.5) * dx,
                        c.y - half + (j + 0.5) * dx,
                        c.z - half + (k + 0.5) * dx};
          rho[static_cast<std::size_t>((i * 8 + j) * 8 + k)] =
              norm(x) < R ? rho0 : 0.0;
        }
    fmm.set_leaf_density(leaf, rho);
  }
  fmm.solve();
  // probe a mid-radius cell on the +x axis
  const real pi = 3.14159265358979323846;
  real worst = 0;
  for (const index_t leaf : topo.leaves()) {
    const rvec3 c = topo.center(leaf);
    if (std::abs(c.y) > 0.2 || std::abs(c.z) > 0.2) continue;
    auto gx = fmm.gx(leaf);
    const real dx = topo.cell_width(leaf);
    const real half = 0.5 * 8 * dx;
    for (int i = 0; i < 8; ++i) {
      const real x = c.x - half + (i + 0.5) * dx;
      if (std::abs(x) < 0.15 * R || std::abs(x) > 0.8 * R) continue;
      // stay near the axis: j,k at the cells closest to y=z=0
      for (int j = 0; j < 8; ++j)
        for (int k = 0; k < 8; ++k) {
          const real y = c.y - half + (j + 0.5) * dx;
          const real z = c.z - half + (k + 0.5) * dx;
          if (std::abs(y) > dx || std::abs(z) > dx) continue;
          const real r = std::sqrt(x * x + y * y + z * z);
          const real expect = -4.0 / 3.0 * pi * rho0 * x;
          const real got = gx[(i * 8 + j) * 8 + k];
          worst = std::max(worst,
                           std::abs(got - expect) /
                               (4.0 / 3.0 * pi * rho0 * r));
        }
    }
  }
  EXPECT_LT(worst, 0.05);  // grid discretization of the sphere dominates
}

TEST_F(GravityEnv, PotentialEnergyNegativeAndMassExact) {
  tree::topology topo(1.0, 1, uniform_to(1));
  fmm_solver fmm(topo);
  real expect_mass = 0;
  for (const index_t leaf : topo.leaves()) {
    const auto rho = blob_density(topo, leaf, 2);
    const real vol = std::pow(topo.cell_width(leaf), 3);
    for (const real r : rho) expect_mass += r * vol;
    fmm.set_leaf_density(leaf, rho);
  }
  fmm.solve();
  EXPECT_NEAR(fmm.total_mass(), expect_mass, 1e-12 * expect_mass);
  EXPECT_LT(fmm.potential_energy(), 0);
}

TEST_F(GravityEnv, TorqueSmallWithOctupoleCorrection) {
  // Angular momentum is not exactly conserved (truncation), but the
  // octupole-corrected interaction keeps the net torque small relative to
  // the naive scale M^2/R.
  tree::topology topo(1.0, 2, uniform_to(2));
  fmm_solver fmm(topo);
  for (const index_t leaf : topo.leaves())
    fmm.set_leaf_density(leaf, blob_density(topo, leaf, 23));
  fmm.solve();
  const real scale = fmm.total_mass() * fmm.total_mass();
  EXPECT_LT(norm(fmm.total_torque()) / scale, 1e-4);
}

}  // namespace
}  // namespace octo::gravity
