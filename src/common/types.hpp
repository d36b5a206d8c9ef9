#pragma once
/// \file types.hpp
/// Fundamental scalar and index types shared by every octo module.

#include <cstddef>
#include <cstdint>

namespace octo {

/// Floating-point type used by all physics kernels.  Octo-Tiger evolves
/// conserved quantities in double precision to retain machine-precision
/// conservation; we follow suit.
using real = double;

/// Index type for cells, sub-grids and tree nodes.
using index_t = std::int64_t;

/// Unsigned type for Morton/location codes.
using code_t = std::uint64_t;

/// Number of spatial dimensions.  Octo-Tiger is strictly 3-D.
inline constexpr int NDIM = 3;

/// Cells per sub-grid edge (the paper's N; "N is typically 8").
inline constexpr int SUBGRID_N = 8;

/// Ghost-cell depth required by the piecewise-linear reconstruction stencil
/// (slope of the first ghost cell needs a second ghost layer).
inline constexpr int GHOST_WIDTH = 2;

/// Number of children of an octree node.
inline constexpr int NCHILD = 8;

/// Number of same-level neighbor directions (faces+edges+corners of a cube).
inline constexpr int NNEIGHBOR = 26;

/// Number of face directions, the first NFACE of tree::directions(): the
/// only ghost regions the hydro stencil reads, so the only ones a step
/// exchanges.
inline constexpr int NFACE = 6;

}  // namespace octo
