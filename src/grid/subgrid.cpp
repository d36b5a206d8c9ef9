#include "grid/subgrid.hpp"

#include <algorithm>
#include <cmath>

namespace octo::grid {

namespace {

/// minmod slope limiter: 0 on sign change, else the smaller magnitude.
real minmod(real a, real b) {
  if (a * b <= 0) return 0;
  return std::abs(a) < std::abs(b) ? a : b;
}

}  // namespace

void subgrid::pack_range(int dc, int& lo, int& hi) {
  if (dc > 0) {
    lo = N - G;
    hi = N;
  } else if (dc < 0) {
    lo = 0;
    hi = G;
  } else {
    lo = 0;
    hi = N;
  }
}

void subgrid::ghost_range(int dc, int& lo, int& hi) {
  if (dc > 0) {
    lo = N;
    hi = N + G;
  } else if (dc < 0) {
    lo = -G;
    hi = 0;
  } else {
    lo = 0;
    hi = N;
  }
}

index_t subgrid::boundary_size(int d) {
  const ivec3 dir = tree::directions()[d];
  index_t n = NFIELD;
  for (int a = 0; a < 3; ++a) n *= (dir[a] == 0 ? N : G);
  return n;
}

void subgrid::pack_for_neighbor(int d, std::vector<real>& out) const {
  const ivec3 dir = tree::directions()[d];
  int lo[3], hi[3];
  for (int a = 0; a < 3; ++a)
    pack_range(static_cast<int>(dir[a]), lo[a], hi[a]);
  out.clear();
  out.reserve(static_cast<std::size_t>(boundary_size(d)));
  for (int f = 0; f < NFIELD; ++f) {
    const real* p = field_data(f);
    for (int i = lo[0]; i < hi[0]; ++i)
      for (int j = lo[1]; j < hi[1]; ++j)
        for (int k = lo[2]; k < hi[2]; ++k) out.push_back(p[idx(i, j, k)]);
  }
}

void subgrid::unpack_from_neighbor(int d, const real* data, index_t count) {
  OCTO_CHECK_MSG(count == boundary_size(d),
                 "boundary slab size mismatch: got " << count << ", expected "
                                                     << boundary_size(d));
  const ivec3 dir = tree::directions()[d];
  int lo[3], hi[3];
  for (int a = 0; a < 3; ++a)
    ghost_range(static_cast<int>(dir[a]), lo[a], hi[a]);
  index_t c = 0;
  for (int f = 0; f < NFIELD; ++f) {
    real* p = field_data(f);
    for (int i = lo[0]; i < hi[0]; ++i)
      for (int j = lo[1]; j < hi[1]; ++j)
        for (int k = lo[2]; k < hi[2]; ++k) p[idx(i, j, k)] = data[c++];
  }
}

void subgrid::copy_ghost_direct(int d, const subgrid& neighbor) {
  const ivec3 dir = tree::directions()[d];
  int lo[3], hi[3];
  for (int a = 0; a < 3; ++a)
    ghost_range(static_cast<int>(dir[a]), lo[a], hi[a]);
  const int sx = static_cast<int>(dir.x) * N;
  const int sy = static_cast<int>(dir.y) * N;
  const int sz = static_cast<int>(dir.z) * N;
  for (int f = 0; f < NFIELD; ++f) {
    real* dst = field_data(f);
    const real* src = neighbor.field_data(f);
    for (int i = lo[0]; i < hi[0]; ++i)
      for (int j = lo[1]; j < hi[1]; ++j)
        for (int k = lo[2]; k < hi[2]; ++k)
          dst[idx(i, j, k)] = src[idx(i - sx, j - sy, k - sz)];
  }
}

void subgrid::fill_ghost_outflow(int d) {
  const ivec3 dir = tree::directions()[d];
  int lo[3], hi[3];
  for (int a = 0; a < 3; ++a)
    ghost_range(static_cast<int>(dir[a]), lo[a], hi[a]);
  const auto clamp_own = [](int v) {
    return v < 0 ? 0 : (v >= N ? N - 1 : v);
  };
  for (int f = 0; f < NFIELD; ++f) {
    real* p = field_data(f);
    for (int i = lo[0]; i < hi[0]; ++i)
      for (int j = lo[1]; j < hi[1]; ++j)
        for (int k = lo[2]; k < hi[2]; ++k)
          p[idx(i, j, k)] = p[idx(clamp_own(i), clamp_own(j), clamp_own(k))];
  }
}

void subgrid::save_owned(real* out) const {
  for (int f = 0; f < NFIELD; ++f) {
    const real* p = field_data(f);
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j, out += N)
        std::memcpy(out, p + idx(i, j, 0), N * sizeof(real));
  }
}

void subgrid::load_owned(const real* in) {
  for (int f = 0; f < NFIELD; ++f) {
    real* p = field_data(f);
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j, in += N)
        std::memcpy(p + idx(i, j, 0), in, N * sizeof(real));
  }
}

// ---------------------------------------------------------------------------
// AMR operators
// ---------------------------------------------------------------------------

void restrict_to_coarse(const subgrid& fine, int octant, subgrid& coarse) {
  constexpr int H = subgrid::N / 2;
  const int ox = (octant & 1) * H;
  const int oy = ((octant >> 1) & 1) * H;
  const int oz = ((octant >> 2) & 1) * H;
  for (int f = 0; f < NFIELD; ++f) {
    for (int I = 0; I < H; ++I)
      for (int J = 0; J < H; ++J)
        for (int K = 0; K < H; ++K) {
          real sum = 0;
          for (int a = 0; a < 2; ++a)
            for (int b = 0; b < 2; ++b)
              for (int c = 0; c < 2; ++c)
                sum += fine.at(f, 2 * I + a, 2 * J + b, 2 * K + c);
          coarse.at(f, ox + I, oy + J, oz + K) = sum / 8;
        }
  }
}

namespace {

/// Limited per-axis slopes of a coarse cell (values per coarse cell width).
void coarse_slopes(const subgrid& g, int f, int I, int J, int K,
                   real slope[3]) {
  const auto v = [&](int i, int j, int k) { return g.at(f, i, j, k); };
  slope[0] = minmod(v(I + 1, J, K) - v(I, J, K), v(I, J, K) - v(I - 1, J, K));
  slope[1] = minmod(v(I, J + 1, K) - v(I, J, K), v(I, J, K) - v(I, J - 1, K));
  slope[2] = minmod(v(I, J, K + 1) - v(I, J, K), v(I, J, K) - v(I, J, K - 1));
}

/// Prolong coarse cell (I, J, K) of field \p f into its 8 fine children,
/// the lowest of which is fine cell (fi, fj, fk).  The slopes are computed
/// once per coarse cell, not once per child.
void prolong_cell(const subgrid& coarse, int f, int I, int J, int K,
                  subgrid& fine, int fi, int fj, int fk) {
  real slope[3];
  coarse_slopes(coarse, f, I, J, K, slope);
  const real c = coarse.at(f, I, J, K);
  const real off = real(0.25);
  for (int si = 0; si < 2; ++si)
    for (int sj = 0; sj < 2; ++sj)
      for (int sk = 0; sk < 2; ++sk)
        fine.at(f, fi + si, fj + sj, fk + sk) =
            c + (si ? off : -off) * slope[0] + (sj ? off : -off) * slope[1] +
            (sk ? off : -off) * slope[2];
}

}  // namespace

void prolong_from_coarse(const subgrid& coarse, int octant, subgrid& fine) {
  constexpr int H = subgrid::N / 2;
  const int ox = (octant & 1) * H;
  const int oy = ((octant >> 1) & 1) * H;
  const int oz = ((octant >> 2) & 1) * H;
  for (int f = 0; f < NFIELD; ++f)
    for (int I = 0; I < H; ++I)
      for (int J = 0; J < H; ++J)
        for (int K = 0; K < H; ++K)
          prolong_cell(coarse, f, ox + I, oy + J, oz + K, fine, 2 * I, 2 * J,
                       2 * K);
}

void fill_ghost_from_coarse(subgrid& fine, ivec3 fine_coords, int d,
                            const subgrid& coarse, ivec3 coarse_coords) {
  // Even N and G: the ghost box starts on a coarse cell boundary and holds
  // whole coarse cells, all 8 children of each.
  static_assert(subgrid::N % 2 == 0 && subgrid::G % 2 == 0);
  const ivec3 dir = tree::directions()[d];
  // Per axis: the coarse cells [lo, hi) under the ghost box, and the fine
  // index of coarse cell 0's lowest child.
  int lo[3], hi[3], shift[3];
  for (int a = 0; a < 3; ++a) {
    int flo, fhi;
    subgrid::ghost_range(static_cast<int>(dir[a]), flo, fhi);
    const index_t f0 = fine_coords[a] * subgrid::N;
    const index_t c0 = coarse_coords[a] * subgrid::N;
    OCTO_ASSERT(f0 + flo >= 0);
    lo[a] = static_cast<int>((f0 + flo) / 2 - c0);
    hi[a] = static_cast<int>((f0 + fhi) / 2 - c0);
    OCTO_CHECK_MSG(lo[a] >= 0 && hi[a] <= subgrid::N,
                   "coarse ghost fill outside owned region");
    shift[a] = static_cast<int>(2 * c0 - f0);
  }
  for (int f = 0; f < NFIELD; ++f)
    for (int I = lo[0]; I < hi[0]; ++I)
      for (int J = lo[1]; J < hi[1]; ++J)
        for (int K = lo[2]; K < hi[2]; ++K)
          prolong_cell(coarse, f, I, J, K, fine, 2 * I + shift[0],
                       2 * J + shift[1], 2 * K + shift[2]);
}

}  // namespace octo::grid
