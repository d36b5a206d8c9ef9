#pragma once
/// \file subgrid.hpp
/// The N×N×N evolved sub-grid attached to each octree leaf (N = 8), with a
/// ghost shell of width GHOST_WIDTH on every side.
///
/// Storage is structure-of-arrays: one contiguous (N+2G)^3 block per field,
/// so the SIMD kernels stream each field with unit stride along k.

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "common/vec3.hpp"
#include "grid/field.hpp"
#include "tree/morton.hpp"

namespace octo::grid {

class subgrid {
 public:
  static constexpr int N = SUBGRID_N;        ///< owned cells per edge
  static constexpr int G = GHOST_WIDTH;      ///< ghost width
  static constexpr int NT = N + 2 * G;       ///< total cells per edge
  static constexpr index_t cells_per_field = index_t(NT) * NT * NT;

  /// \p center and \p cell_dx give the geometry of the owned region.
  /// Extra trailing reals so SIMD kernels may overrun pack loads/stores past
  /// the last field block without leaving the allocation.
  static constexpr index_t simd_pad = 16;

  subgrid(rvec3 center = rvec3{0, 0, 0}, real cell_dx = real(1) / N)
      : center_(center),
        dx_(cell_dx),
        data_(static_cast<std::size_t>(NFIELD * cells_per_field + simd_pad),
              real(0)) {}

  // --- geometry ----------------------------------------------------------
  const rvec3& center() const { return center_; }
  real dx() const { return dx_; }
  real cell_volume() const { return dx_ * dx_ * dx_; }

  /// Center of owned cell (i, j, k), i/j/k in [0, N) (ghosts allowed too).
  rvec3 cell_center(int i, int j, int k) const {
    const real half = real(0.5) * N * dx_;
    return rvec3{center_.x - half + (i + real(0.5)) * dx_,
                 center_.y - half + (j + real(0.5)) * dx_,
                 center_.z - half + (k + real(0.5)) * dx_};
  }

  // --- access --------------------------------------------------------------
  /// Linear index for (i, j, k) in [-G, N+G)^3 within one field block.
  static constexpr index_t idx(int i, int j, int k) {
    return (index_t(i + G) * NT + (j + G)) * NT + (k + G);
  }

  real& at(int f, int i, int j, int k) { return data_[off(f) + idx(i, j, k)]; }
  real at(int f, int i, int j, int k) const {
    return data_[off(f) + idx(i, j, k)];
  }

  /// Contiguous block of field \p f ((N+2G)^3 values incl. ghosts).
  real* field_data(int f) { return data_.data() + off(f); }
  const real* field_data(int f) const { return data_.data() + off(f); }

  // --- whole-grid helpers ----------------------------------------------------
  void fill(int f, real v) {
    real* p = field_data(f);
    for (index_t c = 0; c < cells_per_field; ++c) p[c] = v;
  }

  void fill_all(real v) { data_.assign(data_.size(), v); }

  /// Sum of field f over owned cells times cell volume (e.g. total mass).
  real integral(int f) const {
    real s = 0;
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j)
        for (int k = 0; k < N; ++k) s += at(f, i, j, k);
    return s * cell_volume();
  }

  // --- ghost-layer pack/unpack ------------------------------------------------
  /// Number of reals in the boundary slab for direction index d.
  static index_t boundary_size(int d);

  /// Pack my owned cells that the neighbor in direction \p d needs as its
  /// ghost cells.  Layout: fields outer, then i, j, k of the slab.
  void pack_for_neighbor(int d, std::vector<real>& out) const;

  /// Fill my ghost shell on side \p d from a neighbor's packed slab.
  void unpack_from_neighbor(int d, const real* data, index_t count);

  /// Copy directly from the neighbor grid without an intermediate buffer —
  /// the paper's same-locality communication optimization (§VII-B).
  void copy_ghost_direct(int d, const subgrid& neighbor);

  /// Zero-gradient (outflow) fill of the ghost shell on side \p d; used at
  /// the physical domain boundary.
  void fill_ghost_outflow(int d);

  /// Periodic fill of side \p d from this grid's own opposite face; used by
  /// single-grid tests.
  void fill_ghost_periodic_self(int d) { copy_ghost_direct(d, *this); }

  /// Reals in an owned-cell block: every field's N^3 owned cells in
  /// (f, i, j, k) order, k fastest — one N-real row per (f, i, j).
  static constexpr index_t owned_size = index_t(NFIELD) * N * N * N;

  /// Copy the owned cells into / back from an owned-cell block of
  /// owned_size reals (the ghost shell is neither read nor written).
  void save_owned(real* out) const;
  void load_owned(const real* in);

  std::vector<real>& raw() { return data_; }
  const std::vector<real>& raw() const { return data_; }

  /// Ghost index range [lo, hi) along one axis on the side of direction
  /// component dc (the owned range [0, N) for dc = 0).
  static void ghost_range(int dc, int& lo, int& hi);

 private:
  static constexpr index_t off(int f) { return index_t(f) * cells_per_field; }

  /// Owned-cell index range [lo, hi) along one axis for packing toward
  /// direction component dc.
  static void pack_range(int dc, int& lo, int& hi);

  rvec3 center_;
  real dx_;
  std::vector<real> data_;
};

// ---------------------------------------------------------------------------
// AMR transfer operators
// ---------------------------------------------------------------------------

/// Conservative restriction: each coarse owned cell becomes the average of
/// its 8 fine children.  \p octant is the fine grid's position within the
/// coarse grid (bit 0 = x, bit 1 = y, bit 2 = z): the fine grid covers the
/// coarse octant's N/2 cells.
void restrict_to_coarse(const subgrid& fine, int octant, subgrid& coarse);

/// Conservative prolongation with minmod-limited linear reconstruction:
/// fills the fine grid's owned cells from the coarse octant.
void prolong_from_coarse(const subgrid& coarse, int octant, subgrid& fine);

/// Fill the ghost shell of \p fine on side \p d by prolongation from the
/// *coarser same-level-as-parent* neighbor \p coarse.  \p fine_coords and
/// \p coarse_coords are the global integer sub-grid coordinates
/// (tree::code_coords) of the two nodes at their own levels.
void fill_ghost_from_coarse(subgrid& fine, ivec3 fine_coords, int d,
                            const subgrid& coarse, ivec3 coarse_coords);

}  // namespace octo::grid
