#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "grid/subgrid.hpp"

namespace octo::grid {
namespace {

constexpr int N = subgrid::N;
constexpr int G = subgrid::G;

void fill_random(subgrid& u, std::uint64_t seed) {
  xoshiro256 rng(seed);
  for (int f = 0; f < NFIELD; ++f)
    for (int i = -G; i < N + G; ++i)
      for (int j = -G; j < N + G; ++j)
        for (int k = -G; k < N + G; ++k)
          u.at(f, i, j, k) = rng.uniform(0.1, 2.0);
}

TEST(Subgrid, GeometryAndCellCenters) {
  subgrid u(rvec3{1, 2, 3}, 0.5);
  EXPECT_EQ(u.center(), (rvec3{1, 2, 3}));
  EXPECT_DOUBLE_EQ(u.dx(), 0.5);
  EXPECT_DOUBLE_EQ(u.cell_volume(), 0.125);
  // cell (0,0,0) center = corner + dx/2
  const rvec3 c0 = u.cell_center(0, 0, 0);
  EXPECT_DOUBLE_EQ(c0.x, 1 - 2.0 + 0.25);
  // cells are dx apart
  const rvec3 c1 = u.cell_center(1, 0, 0);
  EXPECT_DOUBLE_EQ(c1.x - c0.x, 0.5);
}

TEST(Subgrid, IndexingIncludesGhosts) {
  subgrid u;
  u.at(f_rho, -G, -G, -G) = 1.5;
  u.at(f_rho, N + G - 1, N + G - 1, N + G - 1) = 2.5;
  EXPECT_DOUBLE_EQ(u.at(f_rho, -G, -G, -G), 1.5);
  EXPECT_DOUBLE_EQ(u.at(f_rho, N + G - 1, N + G - 1, N + G - 1), 2.5);
  // fields don't alias
  EXPECT_DOUBLE_EQ(u.at(f_sx, -G, -G, -G), 0.0);
}

TEST(Subgrid, FillAndIntegral) {
  subgrid u(rvec3{0, 0, 0}, 0.25);
  u.fill(f_rho, 2.0);
  // integral over owned cells = rho * (N*dx)^3
  EXPECT_NEAR(u.integral(f_rho), 2.0 * std::pow(N * 0.25, 3), 1e-12);
}

TEST(Subgrid, BoundarySizes) {
  // face: G*N*N, edge: G*G*N, corner: G^3, each x NFIELD
  for (int d = 0; d < NNEIGHBOR; ++d) {
    const ivec3 dir = tree::directions()[d];
    const int nz = static_cast<int>((dir.x != 0) + (dir.y != 0) + (dir.z != 0));
    index_t expect = NFIELD;
    for (int a = 0; a < 3 - nz; ++a) expect *= N;
    for (int a = 0; a < nz; ++a) expect *= G;
    EXPECT_EQ(subgrid::boundary_size(d), expect);
  }
}

/// Property: for every direction, pack on the sender + unpack on the
/// receiver reproduces exactly the sender's owned cells in the receiver's
/// ghost shell (checked against direct array access).
class PackUnpackDir : public testing::TestWithParam<int> {};

TEST_P(PackUnpackDir, MatchesDirectCopy) {
  const int d = GetParam();
  const int rd = tree::dir_opposite(d);
  subgrid sender, via_msg, via_direct;
  fill_random(sender, 42);
  fill_random(via_msg, 7);
  via_direct = via_msg;

  // message path: sender packs toward d; receiver unpacks from rd
  std::vector<real> slab;
  sender.pack_for_neighbor(d, slab);
  EXPECT_EQ(static_cast<index_t>(slab.size()), subgrid::boundary_size(d));
  via_msg.unpack_from_neighbor(rd, slab.data(),
                               static_cast<index_t>(slab.size()));

  // direct path (the §VII-B optimization) must produce identical ghosts
  via_direct.copy_ghost_direct(rd, sender);

  for (int f = 0; f < NFIELD; ++f)
    for (int i = -G; i < N + G; ++i)
      for (int j = -G; j < N + G; ++j)
        for (int k = -G; k < N + G; ++k)
          ASSERT_EQ(via_msg.at(f, i, j, k), via_direct.at(f, i, j, k))
              << "dir " << d << " at " << f << ',' << i << ',' << j << ','
              << k;
}

INSTANTIATE_TEST_SUITE_P(AllDirections, PackUnpackDir, testing::Range(0, 26));

TEST(Subgrid, UnpackSizeMismatchThrows) {
  subgrid u;
  std::vector<real> wrong(3);
  EXPECT_THROW(u.unpack_from_neighbor(0, wrong.data(), 3), error);
}

TEST(Subgrid, OutflowFillCopiesNearestOwned) {
  subgrid u;
  fill_random(u, 3);
  u.fill_ghost_outflow(tree::dir_index(ivec3{1, 0, 0}));
  for (int f = 0; f < NFIELD; ++f)
    for (int g = 0; g < G; ++g)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k)
          EXPECT_EQ(u.at(f, N + g, j, k), u.at(f, N - 1, j, k));
}

TEST(Subgrid, PeriodicSelfFill) {
  subgrid u;
  fill_random(u, 5);
  const int d = tree::dir_index(ivec3{0, 0, 1});
  u.fill_ghost_periodic_self(d);
  for (int g = 0; g < G; ++g)
    EXPECT_EQ(u.at(f_rho, 0, 0, N + g), u.at(f_rho, 0, 0, g));
}

TEST(AmrOps, RestrictionConservesMeans) {
  subgrid fine(rvec3{-0.5, -0.5, -0.5}, 0.125), coarse(rvec3{0, 0, 0}, 0.25);
  fill_random(fine, 11);
  restrict_to_coarse(fine, /*octant=*/0, coarse);
  // coarse octant-0 cells hold the 8-cell averages
  for (int I = 0; I < N / 2; ++I)
    for (int J = 0; J < N / 2; ++J)
      for (int K = 0; K < N / 2; ++K) {
        real sum = 0;
        for (int a = 0; a < 2; ++a)
          for (int b = 0; b < 2; ++b)
            for (int c = 0; c < 2; ++c)
              sum += fine.at(f_rho, 2 * I + a, 2 * J + b, 2 * K + c);
        EXPECT_NEAR(coarse.at(f_rho, I, J, K), sum / 8, 1e-14);
      }
}

TEST(AmrOps, ProlongationIsConservative) {
  subgrid coarse(rvec3{0, 0, 0}, 0.25), fine;
  fill_random(coarse, 13);
  for (int oct = 0; oct < NCHILD; ++oct) {
    prolong_from_coarse(coarse, oct, fine);
    // restricting back must reproduce the coarse octant exactly
    subgrid back(rvec3{0, 0, 0}, 0.25);
    restrict_to_coarse(fine, oct, back);
    const int ox = (oct & 1) * N / 2, oy = ((oct >> 1) & 1) * N / 2,
              oz = ((oct >> 2) & 1) * N / 2;
    for (int f = 0; f < NFIELD; ++f)
      for (int I = 0; I < N / 2; ++I)
        for (int J = 0; J < N / 2; ++J)
          for (int K = 0; K < N / 2; ++K)
            ASSERT_NEAR(back.at(f, ox + I, oy + J, oz + K),
                        coarse.at(f, ox + I, oy + J, oz + K), 1e-13)
                << "octant " << oct;
  }
}

TEST(AmrOps, ProlongationReproducesConstants) {
  subgrid coarse;
  coarse.fill_all(3.25);
  subgrid fine;
  prolong_from_coarse(coarse, 5, fine);
  for (int i = 0; i < N; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k)
        EXPECT_DOUBLE_EQ(fine.at(f_rho, i, j, k), 3.25);
}

TEST(AmrOps, GhostFromCoarseConstants) {
  // fine grid at level-1 coords (2,0,0); coarse neighbor covers coords (0..1)
  // region at level 0... use a concrete simple setup: fine subgrid coords
  // (2,2,2) at level L, coarse neighbor coords (0,1,1) at level L-1 in -x.
  subgrid coarse, fine;
  coarse.fill_all(7.5);
  const ivec3 fine_coords{2, 2, 2};
  const ivec3 coarse_coords{0, 1, 1};
  const int d = tree::dir_index(ivec3{-1, 0, 0});
  fill_ghost_from_coarse(fine, fine_coords, d, coarse, coarse_coords);
  for (int g = 1; g <= G; ++g)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < N; ++k)
        EXPECT_DOUBLE_EQ(fine.at(f_rho, -g, j, k), 7.5);
}

TEST(AmrOps, GhostFromCoarseLinearProfileExact) {
  // minmod-limited linear prolongation reproduces a linear profile exactly
  // away from extrema.
  subgrid coarse(rvec3{0, 0, 0}, 0.25);
  for (int f = 0; f < NFIELD; ++f)
    for (int i = -G; i < N + G; ++i)
      for (int j = -G; j < N + G; ++j)
        for (int k = -G; k < N + G; ++k)
          coarse.at(f, i, j, k) = 2.0 + 0.5 * i;  // linear in x
  subgrid fine(rvec3{0, 0, 0}, 0.125);
  const ivec3 fine_coords{2, 2, 2};
  const ivec3 coarse_coords{0, 1, 1};
  const int d = tree::dir_index(ivec3{-1, 0, 0});
  fill_ghost_from_coarse(fine, fine_coords, d, coarse, coarse_coords);
  // fine ghost at i=-1 lies at global fine x-index 15 -> coarse cell 7,
  // odd sub-position -> value 2.0 + 0.5*7 + 0.25*0.5
  EXPECT_NEAR(fine.at(f_rho, -1, 0, 0), 2.0 + 0.5 * 7 + 0.25 * 0.5, 1e-13);
  EXPECT_NEAR(fine.at(f_rho, -2, 0, 0), 2.0 + 0.5 * 7 - 0.25 * 0.5, 1e-13);
}

/// The per-fine-cell prolongation formula the AMR operators must match
/// bit for bit: limited slopes of coarse cell (I, J, K), then the child at
/// sub-position (si, sj, sk).
real reference_minmod(real a, real b) {
  if (a * b <= 0) return 0;
  return std::abs(a) < std::abs(b) ? a : b;
}

real reference_prolonged_value(const subgrid& coarse, int f, int I, int J,
                               int K, int si, int sj, int sk) {
  const auto v = [&](int i, int j, int k) { return coarse.at(f, i, j, k); };
  const real c = v(I, J, K);
  const real s0 = reference_minmod(v(I + 1, J, K) - c, c - v(I - 1, J, K));
  const real s1 = reference_minmod(v(I, J + 1, K) - c, c - v(I, J - 1, K));
  const real s2 = reference_minmod(v(I, J, K + 1) - c, c - v(I, J, K - 1));
  const real off = real(0.25);
  return c + (si ? off : -off) * s0 + (sj ? off : -off) * s1 +
         (sk ? off : -off) * s2;
}

/// Non-smooth coarse field: independent values of both signs, so minmod
/// takes every branch (sign change, left smaller, right smaller).
void fill_rough(subgrid& u, std::uint64_t seed) {
  xoshiro256 rng(seed);
  for (int f = 0; f < NFIELD; ++f)
    for (int i = -G; i < N + G; ++i)
      for (int j = -G; j < N + G; ++j)
        for (int k = -G; k < N + G; ++k)
          u.at(f, i, j, k) = rng.uniform(-1.0, 2.0);
}

TEST(AmrOps, ProlongationMatchesPerCellFormulaBitwise) {
  subgrid coarse(rvec3{0, 0, 0}, 0.25), fine;
  fill_rough(coarse, 17);
  for (int oct = 0; oct < NCHILD; ++oct) {
    prolong_from_coarse(coarse, oct, fine);
    const int o[3] = {(oct & 1) * N / 2, ((oct >> 1) & 1) * N / 2,
                      ((oct >> 2) & 1) * N / 2};
    for (int f = 0; f < NFIELD; ++f)
      for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
          for (int k = 0; k < N; ++k)
            ASSERT_EQ(fine.at(f, i, j, k),
                      reference_prolonged_value(coarse, f, o[0] + i / 2,
                                                o[1] + j / 2, o[2] + k / 2,
                                                i & 1, j & 1, k & 1))
                << "octant " << oct << " field " << f << " cell " << i << ","
                << j << "," << k;
  }
}

TEST(AmrOps, GhostFromCoarseMatchesPerCellFormulaBitwise) {
  // A fine leaf at 2 * parent + parity sees its parent's neighbor (one level
  // coarser) across side d only where the side points away from its
  // siblings: parity 0 on a -1 axis, 1 on a +1 axis, either on a 0 axis.
  subgrid coarse(rvec3{0, 0, 0}, 0.25);
  fill_rough(coarse, 19);
  const ivec3 parent{3, 2, 5};
  const real sentinel = -99.0;
  int checked_dirs = 0, checked_cells = 0;
  for (int d = 0; d < NNEIGHBOR; ++d) {
    const ivec3 dir = tree::directions()[d];
    for (int parity = 0; parity < NCHILD; ++parity) {
      ivec3 fine_coords;
      bool allowed = true;
      for (int a = 0; a < 3; ++a) {
        const int p = (parity >> a) & 1;
        if ((dir[a] < 0 && p != 0) || (dir[a] > 0 && p != 1)) allowed = false;
        fine_coords[a] = 2 * parent[a] + p;
      }
      if (!allowed) continue;
      const ivec3 coarse_coords = parent + dir;
      subgrid fine(rvec3{0, 0, 0}, 0.125);
      fine.fill_all(sentinel);
      fill_ghost_from_coarse(fine, fine_coords, d, coarse, coarse_coords);
      ++checked_dirs;
      for (int f = 0; f < NFIELD; ++f)
        for (int i = -G; i < N + G; ++i)
          for (int j = -G; j < N + G; ++j)
            for (int k = -G; k < N + G; ++k) {
              const int c[3] = {i, j, k};
              bool in_box = true;
              int lc[3], sub[3];
              for (int a = 0; a < 3; ++a) {
                const bool lo_side = c[a] < 0, hi_side = c[a] >= N;
                in_box = in_box && (dir[a] < 0   ? lo_side
                                    : dir[a] > 0 ? hi_side
                                                 : !lo_side && !hi_side);
                const index_t gf = fine_coords[a] * N + c[a];
                lc[a] = static_cast<int>(gf / 2 - coarse_coords[a] * N);
                sub[a] = static_cast<int>(gf & 1);
              }
              if (!in_box) {
                ASSERT_EQ(fine.at(f, i, j, k), sentinel)
                    << "dir " << d << " wrote outside its ghost box at " << i
                    << "," << j << "," << k;
                continue;
              }
              ++checked_cells;
              ASSERT_EQ(fine.at(f, i, j, k),
                        reference_prolonged_value(coarse, f, lc[0], lc[1],
                                                  lc[2], sub[0], sub[1],
                                                  sub[2]))
                  << "dir " << d << " parity " << parity << " field " << f
                  << " cell " << i << "," << j << "," << k;
            }
    }
  }
  // 6 faces x 4 parities + 12 edges x 2 + 8 corners x 1.
  EXPECT_EQ(checked_dirs, 6 * 4 + 12 * 2 + 8);
  EXPECT_GT(checked_cells, 0);
}

}  // namespace
}  // namespace octo::grid
