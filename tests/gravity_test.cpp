#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
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
  // The Fig. 7 toggle is answer-neutral: both pack widths run the same
  // pinned kernels lane by lane, so phi and g agree bit for bit.
  using output = std::span<const real> (fmm_solver::*)(index_t) const;
  const std::pair<const char*, output> outputs[] = {{"phi", &fmm_solver::phi},
                                                    {"gx", &fmm_solver::gx},
                                                    {"gy", &fmm_solver::gy},
                                                    {"gz", &fmm_solver::gz}};
  for (const index_t leaf : topo.leaves())
    for (const auto& [name, out] : outputs) {
      const auto a = (f1.*out)(leaf), b = (f2.*out)(leaf);
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
          << name << ", leaf " << leaf;
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
    const real G = units::G_code;
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
      : fmm_(fmm), topo_(fmm.topo()), G_(units::G_code) {
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

/// Test-local copy of the masked-lane Multipole kernel that the
/// parity-class packs replaced, for a bitwise guard: the halo in natural k
/// order, consecutive-k target packs of the native width, the +/-3
/// k-offsets masked per lane (`parity_masks`, `m *= mask`) and every pack
/// evaluated whether or not its sources exist; then copies of the solver's
/// fine-coarse pairs and applies, L2L and leaf evaluation in the solver's
/// accumulation order.  Every dropped
/// evaluation added an exact zero, so its phi/g equal the solver's bit for
/// bit.
template <typename P>
class masked_lane_fmm {
 public:
  explicit masked_lane_fmm(const fmm_solver& fmm)
      : fmm_(fmm), topo_(fmm.topo()), G_(units::G_code) {
    for (int a = -3; a <= 3; ++a)
      for (int b = -3; b <= 3; ++b)
        for (int c = -3; c <= 3; ++c) {
          const int cheb = std::max({std::abs(a), std::abs(b), std::abs(c)});
          const index_t lin = (index_t(a) * HN + b) * HN + c;
          if (cheb >= 2) far_.push_back({lin, {a, b, c}});
          if (cheb == 1) near_.push_back(lin);
        }
    const auto nn = static_cast<std::size_t>(topo_.num_nodes());
    exp_.assign(nn, std::vector<real>(static_cast<std::size_t>(NEXP) * CP));
    for (index_t n = 0; n < topo_.num_nodes(); ++n) m2l(n);
    fine_coarse();
    for (int lvl = 1; lvl <= topo_.max_depth(); ++lvl)
      for (index_t n = 0; n < topo_.num_nodes(); ++n)
        if (topo_.node(n).level == lvl) l2l(n);
  }

  /// phi (0) or g_x/g_y/g_z (1..3) at leaf \p n, cell \p c.
  real out(index_t n, index_t c, int comp) const {
    const auto& e = exp_[static_cast<std::size_t>(n)];
    return comp == 0 ? e[static_cast<std::size_t>(ec_l0 * CP + c)]
                     : -e[static_cast<std::size_t>((ec_l1 + comp - 1) * CP +
                                                   c)];
  }

 private:
  static constexpr int N = fmm_solver::N;
  static constexpr index_t C3 = fmm_solver::C3;
  static constexpr index_t CP = fmm_solver::CP;
  static constexpr int HN = N + 6;
  static constexpr index_t HP = index_t(HN) * HN * HN + 8;
  static constexpr int W = P::size();

  static constexpr index_t hidx(int i, int j, int k) {
    return (index_t(i + 3) * HN + (j + 3)) * HN + (k + 3);
  }
  static constexpr bool offset_valid(int o, int q) {
    return q == 0 ? (o >= -2 && o <= 3) : (o >= -3 && o <= 2);
  }
  static index_t cell_index(int i, int j, int k) {
    return fmm_solver::cell_index(i, j, k);
  }

  /// Lane masks of the +/-3 k-offsets, indexed by k & 1.
  struct parity_masks {
    P even[2], odd[2];
    parity_masks() {
      for (int kp = 0; kp < 2; ++kp)
        for (int l = 0; l < W; ++l) {
          const bool e = ((kp + l) & 1) == 0;
          even[kp].set(l, e ? real(1) : real(0));
          odd[kp].set(l, e ? real(0) : real(1));
        }
    }
    const P& operator()(int ok, int k) const {
      return ok == 3 ? even[k & 1] : odd[k & 1];
    }
  };

  real mom(index_t n, int comp, index_t c) const {
    return fmm_.raw_moments(n)[static_cast<std::size_t>(comp * CP + c)];
  }
  P mom_pack(index_t n, int comp, index_t c) const {
    P v;
    v.copy_from(fmm_.raw_moments(n).data() + comp * CP + c);
    return v;
  }

  template <bool Full>
  void add(index_t n, index_t cell, const pack_expansion<P>& acc) {
    auto& exp = exp_[static_cast<std::size_t>(n)];
    const auto add1 = [&](int comp, const P& v) {
      P cur;
      cur.copy_from(exp.data() + comp * CP + cell);
      cur += v;
      cur.copy_to(exp.data() + comp * CP + cell);
    };
    add1(ec_l0, acc.l0);
    for (int a = 0; a < 3; ++a) add1(ec_l1 + a, acc.l1[a]);
    if constexpr (Full) {
      for (int s = 0; s < NSYM2; ++s) add1(ec_l2 + s, acc.l2[s]);
      for (int s = 0; s < NSYM3; ++s) add1(ec_l3 + s, acc.l3[s]);
    }
  }

  void m2l(index_t n) {
    const tree::tnode& tn = topo_.node(n);
    if (n == topo_.root()) {
      if (tn.leaf) {
        root<false>(n);
      } else {
        root<true>(n);
      }
      return;
    }
    enum { full, leaf, mono } mcase = full;
    if (tn.leaf) {
      mcase = mono;
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const index_t nb = topo_.neighbor(n, d);
        if (nb != tree::invalid_node && !topo_.node(nb).leaf) mcase = leaf;
      }
    }
    std::vector<real> halo(static_cast<std::size_t>(NMOM) * HP);
    std::vector<real> nearmask(static_cast<std::size_t>(HP), 0);
    for (int comp = 0; comp < NMOM; ++comp) {
      const bool com = comp == mc_cx || comp == mc_cy || comp == mc_cz;
      std::fill(halo.begin() + comp * HP, halo.begin() + (comp + 1) * HP,
                com ? real(1e30) : real(0));
    }
    const auto copy_block = [&](index_t src, const ivec3& dir) {
      int slo[3], shi[3], dlo[3];
      for (int a = 0; a < 3; ++a) {
        const auto dc = dir[a];
        slo[a] = dc < 0 ? N - 3 : 0;
        shi[a] = dc > 0 ? 3 : N;
        dlo[a] = dc > 0 ? N : (dc < 0 ? -3 : 0);
      }
      for (int i = slo[0]; i < shi[0]; ++i)
        for (int j = slo[1]; j < shi[1]; ++j)
          for (int k = slo[2]; k < shi[2]; ++k) {
            const index_t h = hidx(dlo[0] + i - slo[0], dlo[1] + j - slo[1],
                                   dlo[2] + k - slo[2]);
            for (int comp = 0; comp < NMOM; ++comp)
              halo[static_cast<std::size_t>(comp * HP + h)] =
                  mom(src, comp, cell_index(i, j, k));
            nearmask[static_cast<std::size_t>(h)] =
                topo_.node(src).leaf ? real(1) : real(0);
          }
    };
    copy_block(n, ivec3{0, 0, 0});
    for (int d = 0; d < NNEIGHBOR; ++d) {
      const index_t nb = topo_.neighbor(n, d);
      if (nb != tree::invalid_node) copy_block(nb, tree::directions()[d]);
    }
    const auto load = [&](int comp, index_t h) {
      P v;
      v.copy_from(halo.data() + comp * HP + h);
      return v;
    };

    const parity_masks parity;
    const auto table = fmm_.mono_table(tn.level);
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; k += W) {
          const index_t cell = cell_index(i, j, k);
          const P tx = mom_pack(n, mc_cx, cell), ty = mom_pack(n, mc_cy, cell),
                  tz = mom_pack(n, mc_cz, cell);
          const index_t hb = hidx(i, j, k);
          pack_expansion<P> acc;
          for (std::size_t s = 0; s < far_.size(); ++s) {
            const auto& [lin, o] = far_[s];
            if (!offset_valid(o[0], i & 1) || !offset_valid(o[1], j & 1))
              continue;
            const index_t h = hb + lin;
            const bool edge = o[2] == 3 || o[2] == -3;
            if (mcase == mono) {
              P m = load(mc_m, h);
              if (edge) m *= parity(o[2], k);
              acc.l0 = fma(m, P(table[s].d0), acc.l0);
              for (int a = 0; a < 3; ++a)
                acc.l1[a] = fma(m, P(table[s].d1[a]), acc.l1[a]);
              continue;
            }
            pack_multipole<P> src;
            src.m = load(mc_m, h);
            src.cx = load(mc_cx, h);
            src.cy = load(mc_cy, h);
            src.cz = load(mc_cz, h);
            for (int q = 0; q < NSYM2; ++q) src.q[q] = load(mc_q + q, h);
            for (int q = 0; q < NSYM3; ++q) src.o[q] = load(mc_o + q, h);
            if (edge) {
              const P& mask = parity(o[2], k);
              src.m *= mask;
              for (auto& q : src.q) q *= mask;
              for (auto& q : src.o) q *= mask;
            }
            pack_derivs<P> d;
            compute_derivs(tx - src.cx, ty - src.cy, tz - src.cz, G_, d);
            if (mcase == full) {
              m2l_pack<P, true>(src, d, acc);
            } else {
              m2l_pack<P, false>(src, d, acc);
            }
          }
          if (mcase == full) {
            add<true>(n, cell, acc);
          } else {
            add<false>(n, cell, acc);
          }
        }
    if (mcase == full) return;
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; k += W) {
          const index_t cell = cell_index(i, j, k);
          const P tx = mom_pack(n, mc_cx, cell), ty = mom_pack(n, mc_cy, cell),
                  tz = mom_pack(n, mc_cz, cell);
          pack_expansion<P> acc;
          for (const index_t lin : near_) {
            const index_t h = hidx(i, j, k) + lin;
            P mask;
            mask.copy_from(nearmask.data() + h);
            p2p_pack(load(mc_m, h) * mask, tx - load(mc_cx, h),
                     ty - load(mc_cy, h), tz - load(mc_cz, h), G_, acc);
          }
          add<false>(n, cell, acc);
        }
  }

  template <bool Full>
  void root(index_t n) {
    const int min_cheb = Full ? 2 : 1;
    P lane;
    for (int l = 0; l < W; ++l) lane.set(l, real(l));
    for (int ti = 0; ti < N; ++ti)
      for (int tj = 0; tj < N; ++tj)
        for (int tk = 0; tk < N; tk += W) {
          const index_t t = cell_index(ti, tj, tk);
          const P tx = mom_pack(n, mc_cx, t), ty = mom_pack(n, mc_cy, t),
                  tz = mom_pack(n, mc_cz, t);
          pack_expansion<P> acc;
          for (int si = 0; si < N; ++si)
            for (int sj = 0; sj < N; ++sj)
              for (int sk = 0; sk < N; ++sk) {
                typename P::mask_type far(true);
                if (std::max(std::abs(si - ti), std::abs(sj - tj)) < min_cheb) {
                  far = abs(P(real(sk - tk)) - lane) >= P(real(min_cheb));
                  if (none_of(far)) continue;
                }
                const index_t s = cell_index(si, sj, sk);
                pack_multipole<P> src;
                src.m = P(mom(n, mc_m, s));
                src.cx = P(mom(n, mc_cx, s));
                src.cy = P(mom(n, mc_cy, s));
                src.cz = P(mom(n, mc_cz, s));
                for (int q = 0; q < NSYM2; ++q) src.q[q] = P(mom(n, mc_q + q, s));
                for (int q = 0; q < NSYM3; ++q) src.o[q] = P(mom(n, mc_o + q, s));
                if (!all_of(far)) {
                  const P zero(0), away(real(1e30));
                  src.m = select(far, src.m, zero);
                  src.cx = select(far, src.cx, away);
                  src.cy = select(far, src.cy, away);
                  src.cz = select(far, src.cz, away);
                  for (auto& q : src.q) q = select(far, q, zero);
                  for (auto& q : src.o) q = select(far, q, zero);
                }
                pack_derivs<P> d;
                compute_derivs(tx - src.cx, ty - src.cy, tz - src.cz, G_, d);
                m2l_pack<P, Full>(src, d, acc);
              }
          add<Full>(n, t, acc);
        }
  }

  /// The solver's fine-coarse pass: per fine leaf, monopole pairs with each
  /// coarser host into private 4 x C3 buffers; then per node its own buffer
  /// and its clients' host buffers (ascending client index).
  void fine_coarse() {
    const auto nn = static_cast<std::size_t>(topo_.num_nodes());
    std::vector<std::vector<index_t>> hosts(nn), clients(nn);
    std::vector<std::vector<real>> self(nn);
    std::vector<std::vector<std::vector<real>>> host_acc(nn);
    for (const index_t l : topo_.leaves()) {
      const tree::tnode& tn = topo_.node(l);
      auto& hs = hosts[static_cast<std::size_t>(l)];
      for (int d = 0; d < NNEIGHBOR; ++d) {
        if (tn.neighbors[d] != tree::invalid_node) continue;
        const index_t h = topo_.neighbor_or_coarser(l, d);
        if (h != tree::invalid_node &&
            std::find(hs.begin(), hs.end(), h) == hs.end())
          hs.push_back(h);
      }
      if (hs.empty()) continue;
      auto& facc = self[static_cast<std::size_t>(l)];
      facc.assign(static_cast<std::size_t>(4 * C3), 0);
      const ivec3 fc = tree::code_coords(tn.code);
      for (const index_t cn : hs) {
        clients[static_cast<std::size_t>(cn)].push_back(l);
        auto& cacc = host_acc[static_cast<std::size_t>(l)].emplace_back(
            static_cast<std::size_t>(4 * C3), real(0));
        const ivec3 cc = tree::code_coords(topo_.node(cn).code);
        for (int i = 0; i < N; ++i)
          for (int j = 0; j < N; ++j)
            for (int k = 0; k < N; ++k) {
              const index_t fcell = cell_index(i, j, k);
              const real mf = mom(l, mc_m, fcell);
              const rvec3 xf{mom(l, mc_cx, fcell), mom(l, mc_cy, fcell),
                             mom(l, mc_cz, fcell)};
              const index_t gp[3] = {(fc.x * N + i) / 2, (fc.y * N + j) / 2,
                                     (fc.z * N + k) / 2};
              const index_t base[3] = {cc.x * N, cc.y * N, cc.z * N};
              int lo[3], hi[3];
              bool any = true;
              for (int a = 0; a < 3; ++a) {
                lo[a] = static_cast<int>(
                    std::max<index_t>(gp[a] - 1 - base[a], 0));
                hi[a] = static_cast<int>(
                    std::min<index_t>(gp[a] + 1 - base[a], N - 1));
                if (lo[a] > hi[a]) any = false;
              }
              if (!any) continue;
              for (int ci = lo[0]; ci <= hi[0]; ++ci)
                for (int cj = lo[1]; cj <= hi[1]; ++cj)
                  for (int ck = lo[2]; ck <= hi[2]; ++ck) {
                    const index_t ccell = cell_index(ci, cj, ck);
                    const real mc = mom(cn, mc_m, ccell);
                    const rvec3 xc{mom(cn, mc_cx, ccell),
                                   mom(cn, mc_cy, ccell),
                                   mom(cn, mc_cz, ccell)};
                    const rvec3 r = xf - xc;
                    const real rinv = real(1) / std::sqrt(dot(r, r));
                    const real rinv3 = rinv * rinv * rinv;
                    facc[0 * C3 + fcell] += -G_ * mc * rinv;
                    facc[1 * C3 + fcell] += G_ * mc * rinv3 * r.x;
                    facc[2 * C3 + fcell] += G_ * mc * rinv3 * r.y;
                    facc[3 * C3 + fcell] += G_ * mc * rinv3 * r.z;
                    cacc[0 * C3 + ccell] += -G_ * mf * rinv;
                    cacc[1 * C3 + ccell] -= G_ * mf * rinv3 * r.x;
                    cacc[2 * C3 + ccell] -= G_ * mf * rinv3 * r.y;
                    cacc[3 * C3 + ccell] -= G_ * mf * rinv3 * r.z;
                  }
            }
      }
    }
    for (std::size_t n = 0; n < nn; ++n) {
      auto& exp = exp_[n];
      const auto add4 = [&](const std::vector<real>& acc) {
        for (index_t c = 0; c < C3; ++c)
          for (int a = 0; a < 4; ++a)
            exp[static_cast<std::size_t>((ec_l0 + a) * CP + c)] +=
                acc[static_cast<std::size_t>(a * C3 + c)];
      };
      if (!hosts[n].empty()) add4(self[n]);
      std::sort(clients[n].begin(), clients[n].end());
      for (const index_t f : clients[n]) {
        const auto& fh = hosts[static_cast<std::size_t>(f)];
        const auto it = std::find(fh.begin(), fh.end(), index_t(n));
        add4(host_acc[static_cast<std::size_t>(f)]
                     [static_cast<std::size_t>(it - fh.begin())]);
      }
    }
  }

  void l2l(index_t n) {
    const index_t par = topo_.node(n).parent;
    const ivec3 nc = tree::code_coords(topo_.node(n).code);
    const ivec3 pc = tree::code_coords(topo_.node(par).code);
    const auto& pe = exp_[static_cast<std::size_t>(par)];
    auto& ne = exp_[static_cast<std::size_t>(n)];
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k) {
          const index_t cell = cell_index(i, j, k);
          const index_t pcell = cell_index(
              static_cast<int>((nc.x * N + i) / 2 - pc.x * N),
              static_cast<int>((nc.y * N + j) / 2 - pc.y * N),
              static_cast<int>((nc.z * N + k) / 2 - pc.z * N));
          const auto e = [&](int comp) {
            return pe[static_cast<std::size_t>(comp * CP + pcell)];
          };
          expansion pin;
          pin.l0 = e(ec_l0);
          for (int a = 0; a < 3; ++a) pin.l1[a] = e(ec_l1 + a);
          for (int s = 0; s < NSYM2; ++s) pin.l2[s] = e(ec_l2 + s);
          for (int s = 0; s < NSYM3; ++s) pin.l3[s] = e(ec_l3 + s);
          const rvec3 child{mom(n, mc_cx, cell), mom(n, mc_cy, cell),
                            mom(n, mc_cz, cell)};
          const rvec3 parent{mom(par, mc_cx, pcell), mom(par, mc_cy, pcell),
                             mom(par, mc_cz, pcell)};
          expansion sh;
          l2l_shift(pin, child - parent, sh);
          const auto put = [&](int comp, real v) {
            ne[static_cast<std::size_t>(comp * CP + cell)] += v;
          };
          put(ec_l0, sh.l0);
          for (int a = 0; a < 3; ++a) put(ec_l1 + a, sh.l1[a]);
          for (int s = 0; s < NSYM2; ++s) put(ec_l2 + s, sh.l2[s]);
          for (int s = 0; s < NSYM3; ++s) put(ec_l3 + s, sh.l3[s]);
        }
  }

  struct far_offset {
    index_t lin;
    std::array<int, 3> o;
  };

  const fmm_solver& fmm_;
  const tree::topology& topo_;
  real G_;
  std::vector<far_offset> far_;
  std::vector<index_t> near_;
  std::vector<std::vector<real>> exp_;  // NEXP x CP per node
};

/// Solves \p topo with m2l_chunks = \p chunks and requires phi/gx/gy/gz to
/// equal the masked-lane reference bit for bit.
template <typename P>
void expect_masked_lane_bitwise(const tree::topology& topo, bool simd,
                                int chunks, const char* name) {
  gravity_options opt;
  opt.use_simd = simd;
  opt.m2l_chunks = chunks;
  fmm_solver fmm(topo, opt);
  for (const index_t leaf : topo.leaves())
    fmm.set_leaf_density(leaf, blob_density(topo, leaf, 29));
  fmm.solve();
  const masked_lane_fmm<P> ref(fmm);
  using output = std::span<const real> (fmm_solver::*)(index_t) const;
  const output outputs[] = {&fmm_solver::phi, &fmm_solver::gx,
                            &fmm_solver::gy, &fmm_solver::gz};
  for (const index_t leaf : topo.leaves())
    for (int comp = 0; comp < 4; ++comp) {
      const auto got = (fmm.*outputs[comp])(leaf);
      for (index_t c = 0; c < fmm_solver::C3; ++c)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[static_cast<std::size_t>(c)]),
                  std::bit_cast<std::uint64_t>(ref.out(leaf, c, comp)))
            << name << ", chunks " << chunks << ", leaf " << leaf
            << ", output " << comp << ", cell " << c;
    }
}

TEST_F(GravityEnv, ParityClassPacksMatchMaskedLaneKernelBitwise) {
  using native = simd<real, simd_abi::native<real>>;
  using scalar = simd<real, simd_abi::scalar>;
  const auto amr = [](int lvl, const rvec3& c, real) {
    return lvl < 1 || (lvl < 2 && c.x < 0);
  };
  const std::pair<const char*, tree::topology> trees[] = {
      {"uniform level 2", tree::topology(1.0, 2, uniform_to(2))},
      {"AMR level 2 where x < 0", tree::topology(1.0, 2, amr)},
      {"uniform level 1", tree::topology(1.0, 1, uniform_to(1))}};
  for (const auto& [name, topo] : trees)
    for (const int chunks : {1, 4}) {
      expect_masked_lane_bitwise<native>(topo, true, chunks, name);
      if (HasFatalFailure()) return;
    }
  expect_masked_lane_bitwise<scalar>(trees[1].second, false, 1,
                                     "AMR, scalar packs");
}

/// compute_derivs at -R is the exact mirror of R: D0 and D2 equal, D1 and
/// D3 negated, bit for bit — each side of an M2L pair computes its own
/// tensors, and the pair forces cancel because these mirror exactly.
template <typename P>
void expect_mirror_derivs() {
  xoshiro256 rng(41);
  const real G = units::G_code;
  const auto bits = [](real v) { return std::bit_cast<std::uint64_t>(v); };
  for (int t = 0; t < 400; ++t) {
    // Every fourth R is a target against the 1e30 COM of the halo fill.
    const real away = t % 4 == 3 ? real(1e30) : real(0);
    P r[3];
    for (auto& c : r)
      for (int l = 0; l < P::size(); ++l)
        c.set(l, rng.uniform(-1.5, 1.5) - away);
    pack_derivs<P> dp, dm;
    compute_derivs(r[0], r[1], r[2], G, dp);
    compute_derivs(-r[0], -r[1], -r[2], G, dm);
    for (int l = 0; l < P::size(); ++l) {
      ASSERT_EQ(bits(dm.d0[l]), bits(dp.d0[l])) << t;
      for (int a = 0; a < 3; ++a)
        ASSERT_EQ(bits(dm.d1[a][l]), bits(-dp.d1[a][l])) << t;
      for (int s = 0; s < NSYM2; ++s)
        ASSERT_EQ(bits(dm.d2[s][l]), bits(dp.d2[s][l])) << t;
      for (int s = 0; s < NSYM3; ++s)
        ASSERT_EQ(bits(dm.d3[s][l]), bits(-dp.d3[s][l])) << t;
    }
  }
}

TEST(GravityKernels, DerivativesAtMinusRMirrorBitwise) {
  expect_mirror_derivs<simd<real, simd_abi::scalar>>();
  expect_mirror_derivs<simd<real, simd_abi::native<real>>>();
}

}  // namespace

// gravity_kernel_digest.cpp, compiled with -ffp-contract=fast and =off.
std::uint64_t kernel_digest_contract_fast(std::uint64_t seed);
std::uint64_t kernel_digest_contract_off(std::uint64_t seed);

namespace {

/// The kernels' rounding is fixed in the source: compute_derivs, m2l_pack
/// (full and leaf), p2p_pack on the scalar and native packs, l2l_shift and
/// m2m_accumulate hash to the same bits whether the including file contracts
/// or not, and to the bits of the loop forms they replaced (the constant, on
/// targets with a 4-lane native double pack).
TEST(GravityKernels, RoundingIsPinned) {
  const std::uint64_t fast = kernel_digest_contract_fast(2024);
  const std::uint64_t off = kernel_digest_contract_off(2024);
  EXPECT_EQ(fast, off) << "kernel bits depend on the caller's contraction";
  if constexpr (simd<real, simd_abi::native<real>>::size() == 4) {
    EXPECT_EQ(fast, 0x85073f713641fafeull)
        << "kernel bits differ from the loop forms' (GCC 12, -O2)";
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
