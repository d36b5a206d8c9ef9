#pragma once
/// \file morton.hpp
/// Octree location codes and neighbor-direction helpers.
///
/// A node is identified by a sentinel-prefixed location code: the root is
/// `1`; appending 3 bits per level selects the octant.  This gives cheap
/// parent/child navigation, a total Morton (Z-curve) order for space-filling
/// -curve partitioning, and supports levels up to 21.

#include <array>
#include <optional>

#include "common/error.hpp"
#include "common/types.hpp"
#include "common/vec3.hpp"

namespace octo::tree {

inline constexpr code_t root_code = 1;
inline constexpr int max_code_level = 20;

/// Tree level of a code (root == 0).
constexpr int code_level(code_t c) {
  int bits = 0;
  while (c > 1) {
    c >>= 3;
    ++bits;
  }
  return bits;
}

/// Child code for octant \p oct in [0, 8).  Bit 0 of oct is x, bit 1 y,
/// bit 2 z (i.e. oct = ix + 2*iy + 4*iz of the child within its parent).
constexpr code_t code_child(code_t c, int oct) {
  return (c << 3) | static_cast<code_t>(oct);
}

constexpr code_t code_parent(code_t c) { return c >> 3; }

/// Octant index of this node within its parent.
constexpr int code_octant(code_t c) { return static_cast<int>(c & 7); }

/// Integer coordinates in [0, 2^level)^3.
constexpr ivec3 code_coords(code_t c) {
  ivec3 r{0, 0, 0};
  const int level = code_level(c);
  for (int l = 0; l < level; ++l) {
    const auto oct = static_cast<int>((c >> (3 * (level - 1 - l))) & 7);
    r.x = (r.x << 1) | (oct & 1);
    r.y = (r.y << 1) | ((oct >> 1) & 1);
    r.z = (r.z << 1) | ((oct >> 2) & 1);
  }
  return r;
}

constexpr code_t code_from_coords(int level, ivec3 xyz) {
  code_t c = root_code;
  for (int l = level - 1; l >= 0; --l) {
    const int oct = static_cast<int>(((xyz.x >> l) & 1) |
                                     (((xyz.y >> l) & 1) << 1) |
                                     (((xyz.z >> l) & 1) << 2));
    c = code_child(c, oct);
  }
  return c;
}

/// Same-level neighbor in direction \p dir (components in {-1,0,1});
/// nullopt if the neighbor would lie outside the root domain.
inline std::optional<code_t> code_neighbor(code_t c, ivec3 dir) {
  const int level = code_level(c);
  const index_t n = index_t(1) << level;
  ivec3 xyz = code_coords(c);
  xyz += dir;
  if (xyz.x < 0 || xyz.x >= n || xyz.y < 0 || xyz.y >= n || xyz.z < 0 ||
      xyz.z >= n)
    return std::nullopt;
  return code_from_coords(level, xyz);
}

/// True if \p anc is an ancestor of (or equal to) \p c.
constexpr bool code_is_ancestor(code_t anc, code_t c) {
  while (c >= anc) {
    if (c == anc) return true;
    c >>= 3;
  }
  return false;
}

// ---------------------------------------------------------------------------
// 26 neighbor directions
// ---------------------------------------------------------------------------

/// All 26 (di,dj,dk) != 0 directions; faces first (0..5), then edges
/// (6..17), then corners (18..25).  Order is fixed and used as wire format
/// by the boundary manager.
inline const std::array<ivec3, NNEIGHBOR>& directions() {
  static const std::array<ivec3, NNEIGHBOR> dirs = [] {
    std::array<ivec3, NNEIGHBOR> d{};
    int n = 0;
    // faces
    for (int axis = 0; axis < 3; ++axis)
      for (int s = -1; s <= 1; s += 2) {
        ivec3 v{0, 0, 0};
        v[axis] = s;
        d[n++] = v;
      }
    // edges
    for (int dx = -1; dx <= 1; ++dx)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dz = -1; dz <= 1; ++dz) {
          const int nz = (dx != 0) + (dy != 0) + (dz != 0);
          if (nz == 2) d[n++] = ivec3{dx, dy, dz};
        }
    // corners
    for (int dx = -1; dx <= 1; dx += 2)
      for (int dy = -1; dy <= 1; dy += 2)
        for (int dz = -1; dz <= 1; dz += 2) d[n++] = ivec3{dx, dy, dz};
    OCTO_ASSERT(n == NNEIGHBOR);
    return d;
  }();
  return dirs;
}

/// Index of a direction vector in directions().
inline int dir_index(ivec3 dir) {
  const auto& dirs = directions();
  for (int i = 0; i < NNEIGHBOR; ++i)
    if (dirs[i] == dir) return i;
  OCTO_CHECK_MSG(false, "invalid direction (" << dir.x << ',' << dir.y << ','
                                              << dir.z << ')');
  return -1;
}

/// The opposite direction's index (send dir d, receive at opposite(d)).
inline int dir_opposite(int d) {
  const ivec3 v = directions()[d];
  return dir_index(ivec3{-v.x, -v.y, -v.z});
}

/// true for the 6 face directions (exactly one nonzero component).
inline bool dir_is_face(int d) { return d < NFACE; }

}  // namespace octo::tree
