#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
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
  // mono-case table kernel, and the interior root is split into row tasks.
  tree::topology topo(1.0, 2, uniform_to(2));
  expect_chunk_counts_bitwise(topo);
}

TEST_F(ChunkCountBitwise, AmrTreeKeepsGeneralLeafKernel) {
  // The unrefined x > 0 leaves border refined same-level nodes and keep the
  // general leaf-target kernel; the refined x < 0 leaves take the mono case.
  const auto refine = [](int lvl, const rvec3& c, real) {
    return lvl < 1 || (lvl < 2 && c.x < 0);
  };
  tree::topology topo(1.0, 2, refine);
  expect_chunk_counts_bitwise(topo);
}

/// Distance in units in the last place between two finite doubles of the
/// same sign.
std::int64_t ulps_apart(real a, real b) {
  static_assert(sizeof(real) == sizeof(std::int64_t));
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  return ia > ib ? ia - ib : ib - ia;
}

TEST_F(GravityEnv, MonoTableWithinFourUlpsOfComputeDerivs) {
  // Every entry of every level's table against compute_derivs on the same
  // lattice vector R = -o dx; a power-of-two and a general cell width.
  using P = simd<real, simd_abi::scalar>;
  const auto offsets = fmm_solver::mono_offsets();
  ASSERT_EQ(offsets.size(), 316u);
  for (const real half_width : {1.0, 0.7}) {
    tree::topology topo(half_width, 2, uniform_to(2));
    fmm_solver fmm(topo);
    const real G = fmm.options().G;
    std::int64_t worst = 0;
    for (int level = 0; level <= 2; ++level) {
      const real dx = topo.cell_width(topo.leaves().front()) *
                      real(1 << (2 - level));
      const auto table = fmm.mono_table(level);
      ASSERT_EQ(table.size(), offsets.size());
      for (std::size_t s = 0; s < offsets.size(); ++s) {
        const auto& o = offsets[s];
        pack_derivs<P> d;
        compute_derivs(P(-o[0] * dx), P(-o[1] * dx), P(-o[2] * dx), G, d);
        worst = std::max(worst, ulps_apart(table[s].d0, d.d0[0]));
        for (int a = 0; a < 3; ++a) {
          if (o[a] == 0) {
            EXPECT_EQ(table[s].d1[a], 0) << "level " << level << ", " << s;
            continue;
          }
          worst = std::max(worst, ulps_apart(table[s].d1[a], d.d1[a][0]));
        }
        // The mirrored offset sees the same pair: D0 even, D1 odd, bitwise.
        const auto& m = table[offsets.size() - 1 - s];
        ASSERT_EQ(offsets[offsets.size() - 1 - s][0], -o[0]);
        EXPECT_EQ(m.d0, table[s].d0);
        for (int a = 0; a < 3; ++a) EXPECT_EQ(m.d1[a], -table[s].d1[a]);
      }
    }
    std::printf("mono table, half width %.1f: worst %lld ulps\n", half_width,
                static_cast<long long>(worst));
    EXPECT_LE(worst, 4);
  }
}

/// Test-local FMM oracle in the scalar multipole.hpp operators: the
/// solver's moments (raw_moments, the same input every kernel reads) through
/// `derivatives` + `m2l_accumulate` over every same-level stencil pair, the
/// near-field pairs of leaves, the root's all-pairs range and the exact
/// fine-coarse monopole pairs, then `l2l_shift` down the tree.  It is the
/// solve the kernels made before the mono-case table and the packed root.
class fmm_oracle {
 public:
  explicit fmm_oracle(const fmm_solver& fmm)
      : fmm_(fmm), topo_(fmm.topo()), G_(fmm.options().G) {
    const auto nn = static_cast<std::size_t>(topo_.num_nodes());
    exp_.assign(nn, std::vector<expansion>(512));
    for (index_t n = 0; n < topo_.num_nodes(); ++n) {
      const int lvl = topo_.node(n).level;
      if (static_cast<std::size_t>(lvl) >= cells_.size())
        cells_.resize(static_cast<std::size_t>(lvl) + 1);
      auto& grid = cells_[static_cast<std::size_t>(lvl)];
      grid.resize(static_cast<std::size_t>(extent(lvl)) * extent(lvl) *
                      extent(lvl),
                  {-1, -1});
      for (int c = 0; c < 512; ++c)
        grid[global_index(n, c)] = {n, c};
    }
    for (index_t n = 0; n < topo_.num_nodes(); ++n) same_level(n);
    for (const index_t l : topo_.leaves()) fine_coarse(l);
    for (int lvl = 1; lvl < static_cast<int>(cells_.size()); ++lvl)
      for (index_t n = 0; n < topo_.num_nodes(); ++n)
        if (topo_.node(n).level == lvl) l2l(n);
  }

  /// phi (0) or g_x/g_y/g_z (1..3) at leaf \p n, cell \p c.
  real out(index_t n, int c, int comp) const {
    const auto& e = exp_[static_cast<std::size_t>(n)][c];
    return comp == 0 ? e.l0 : -e.l1[comp - 1];
  }

 private:
  static constexpr int N = 8;
  static int extent(int lvl) { return N << lvl; }

  ivec3 global_cell(index_t n, int c) const {
    const ivec3 code = tree::code_coords(topo_.node(n).code);
    return ivec3{code.x * N + c / 64, code.y * N + (c / 8) % 8,
                 code.z * N + c % 8};
  }
  std::size_t global_index(index_t n, int c) const {
    const ivec3 g = global_cell(n, c);
    const int e = extent(topo_.node(n).level);
    return (static_cast<std::size_t>(g.x) * e + g.y) * e + g.z;
  }
  /// (node, cell) at level \p lvl, global cell \p g; node -1 if none.
  std::pair<index_t, int> at(int lvl, ivec3 g) const {
    const int e = extent(lvl);
    if (g.x < 0 || g.y < 0 || g.z < 0 || g.x >= e || g.y >= e || g.z >= e)
      return {-1, -1};
    return cells_[static_cast<std::size_t>(lvl)]
                 [(static_cast<std::size_t>(g.x) * e + g.y) * e + g.z];
  }
  multipole moments(index_t n, int c) const {
    const auto mom = fmm_.raw_moments(n);
    const auto get = [&](int comp) {
      return mom[static_cast<std::size_t>(comp * fmm_solver::CP + c)];
    };
    multipole m;
    m.m = get(mc_m);
    m.com = rvec3{get(mc_cx), get(mc_cy), get(mc_cz)};
    for (int s = 0; s < NSYM2; ++s) m.q[s] = get(mc_q + s);
    for (int s = 0; s < NSYM3; ++s) m.o[s] = get(mc_o + s);
    return m;
  }
  static multipole monopole_of(const multipole& src) {
    multipole m;
    m.m = src.m;
    m.com = src.com;
    return m;
  }

  /// Same-level M2L (and leaf near field) into node n's cells.
  void same_level(index_t n) {
    const tree::tnode& tn = topo_.node(n);
    const bool root = tn.parent == tree::invalid_node;
    const int reach = root ? N - 1 : 3;
    // Parent adjacency of offset o for target parity q (the root has no
    // parent and takes every pair).
    const auto valid = [](int o, index_t q) {
      return (q & 1) == 0 ? (o >= -2 && o <= 3) : (o >= -3 && o <= 2);
    };
    for (int c = 0; c < 512; ++c) {
      const ivec3 g = global_cell(n, c);
      const multipole tgt = moments(n, c);
      auto& acc = exp_[static_cast<std::size_t>(n)][c];
      for (int a = -reach; a <= reach; ++a)
        for (int b = -reach; b <= reach; ++b)
          for (int d = -reach; d <= reach; ++d) {
            const int cheb = std::max({std::abs(a), std::abs(b), std::abs(d)});
            if (cheb == 0) continue;
            const auto [sn, sc] = at(tn.level, g + ivec3{a, b, d});
            if (sn < 0) continue;
            const multipole src = moments(sn, sc);
            const deriv_tensors dt = derivatives(tgt.com - src.com, G_);
            if (cheb == 1) {
              // Near field: leaf targets, leaf sources, monopole only.
              if (tn.leaf && topo_.node(sn).leaf)
                m2l_accumulate(monopole_of(src), dt, acc);
              continue;
            }
            if (!root && !(valid(a, g.x) && valid(b, g.y) && valid(d, g.z)))
              continue;
            m2l_accumulate(src, dt, acc);
          }
    }
  }

  /// Mutual monopole pairs of fine leaf l with its coarser leaf hosts.
  void fine_coarse(index_t l) {
    const tree::tnode& tn = topo_.node(l);
    std::vector<index_t> hosts;
    for (int d = 0; d < NNEIGHBOR; ++d) {
      if (tn.neighbors[d] != tree::invalid_node) continue;
      const index_t h = topo_.neighbor_or_coarser(l, d);
      if (h != tree::invalid_node &&
          std::find(hosts.begin(), hosts.end(), h) == hosts.end())
        hosts.push_back(h);
    }
    for (const index_t h : hosts)
      for (int c = 0; c < 512; ++c) {
        const ivec3 g = global_cell(l, c);
        const ivec3 gp{g.x / 2, g.y / 2, g.z / 2};
        const multipole mf = moments(l, c);
        for (int hc = 0; hc < 512; ++hc) {
          const ivec3 gc = global_cell(h, hc);
          if (std::max({std::abs(gc.x - gp.x), std::abs(gc.y - gp.y),
                        std::abs(gc.z - gp.z)}) > 1)
            continue;
          const multipole mc = moments(h, hc);
          m2l_accumulate(monopole_of(mc), derivatives(mf.com - mc.com, G_),
                         exp_[static_cast<std::size_t>(l)][c]);
          m2l_accumulate(monopole_of(mf), derivatives(mc.com - mf.com, G_),
                         exp_[static_cast<std::size_t>(h)][hc]);
        }
      }
  }

  void l2l(index_t n) {
    const index_t par = topo_.node(n).parent;
    for (int c = 0; c < 512; ++c) {
      const ivec3 g = global_cell(n, c);
      const auto [pn, pc] =
          at(topo_.node(par).level, ivec3{g.x / 2, g.y / 2, g.z / 2});
      ASSERT_EQ(pn, par);
      l2l_shift(exp_[static_cast<std::size_t>(par)][pc],
                moments(n, c).com - moments(par, pc).com,
                exp_[static_cast<std::size_t>(n)][c]);
    }
  }

  const fmm_solver& fmm_;
  const tree::topology& topo_;
  real G_;
  std::vector<std::vector<expansion>> exp_;                  // per node
  std::vector<std::vector<std::pair<index_t, int>>> cells_;  // per level
};

/// Solves \p topo with the kernels and the oracle and returns, per output
/// (phi, gx, gy, gz), the largest |kernel - oracle| over every leaf cell
/// relative to the largest |oracle| of that output.
std::array<real, 4> kernel_vs_oracle(const tree::topology& topo,
                                     const char* name) {
  fmm_solver fmm(topo);
  for (const index_t leaf : topo.leaves())
    fmm.set_leaf_density(leaf, blob_density(topo, leaf, 19));
  fmm.solve();
  const fmm_oracle oracle(fmm);
  using output = std::span<const real> (fmm_solver::*)(index_t) const;
  const output outputs[] = {&fmm_solver::phi, &fmm_solver::gx,
                            &fmm_solver::gy, &fmm_solver::gz};
  std::array<real, 4> rel{};
  for (int comp = 0; comp < 4; ++comp) {
    real diff = 0, scale = 0;
    for (const index_t leaf : topo.leaves()) {
      const auto got = (fmm.*outputs[comp])(leaf);
      for (int c = 0; c < 512; ++c) {
        const real want = oracle.out(leaf, c, comp);
        diff = std::max(diff, std::abs(got[c] - want));
        scale = std::max(scale, std::abs(want));
      }
    }
    rel[static_cast<std::size_t>(comp)] = diff / scale;
  }
  std::printf("%s: max rel diff vs scalar oracle  phi %.3e  gx %.3e  "
              "gy %.3e  gz %.3e\n",
              name, rel[0], rel[1], rel[2], rel[3]);
  return rel;
}

TEST_F(GravityEnv, KernelsMatchScalarOracle) {
  const auto amr = [](int lvl, const rvec3& c, real) {
    return lvl < 1 || (lvl < 2 && c.x < 0);
  };
  const std::pair<const char*, tree::topology> trees[] = {
      {"root is a leaf (level 0)", tree::topology(1.0, 0, uniform_to(0))},
      {"uniform level 2", tree::topology(1.0, 2, uniform_to(2))},
      {"AMR level 2 where x < 0", tree::topology(1.0, 2, amr)}};
  for (const auto& [name, topo] : trees)
    for (const real r : kernel_vs_oracle(topo, name))
      EXPECT_LT(r, 1e-13) << name;
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
