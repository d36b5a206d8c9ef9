#pragma once
/// \file topology.hpp
/// Structure-only AMR octree.
///
/// Octo-Tiger's octree has leaf nodes carrying N^3 sub-grids and fully
/// refined interior nodes.  This class stores the *structure* (codes,
/// parent/child links, same-level neighbor links, geometry) without cell
/// data, so trees of the paper's production sizes (hundreds of thousands of
/// sub-grids) fit in memory.  `app::step_core` attaches one sub-grid to
/// every node (leaf and interior); the DES walks the bare topology.
///
/// The tree is built from a refinement predicate and then 2:1 balanced:
/// adjacent leaves (across faces, edges and corners) differ by at most one
/// level, which bounds ghost-layer interpolation stencils exactly as in
/// Octo-Tiger.

#include <array>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "common/vec3.hpp"
#include "tree/morton.hpp"

namespace octo::tree {

inline constexpr index_t invalid_node = -1;

struct tnode {
  code_t code = 0;
  index_t parent = invalid_node;
  std::array<index_t, NCHILD> children{};  ///< invalid_node when leaf
  std::array<index_t, NNEIGHBOR> neighbors{};  ///< same-level only
  int level = 0;
  bool leaf = true;

  bool has_child(int oct) const { return children[oct] != invalid_node; }
};

/// Decide whether a node at (level, center, half-width) should be refined.
using refine_predicate =
    std::function<bool(int level, const rvec3& center, real half_width)>;

class topology {
 public:
  /// Build a 2:1-balanced tree over the cube [-half_width, half_width]^3.
  /// A node is refined when `refine(level, center, hw)` returns true and
  /// level < max_level; further refinement happens during balancing.
  topology(real domain_half_width, int max_level,
           const refine_predicate& refine);

  // --- structure ---------------------------------------------------------
  index_t num_nodes() const { return static_cast<index_t>(nodes_.size()); }
  index_t num_leaves() const { return static_cast<index_t>(leaves_.size()); }
  const tnode& node(index_t i) const { return nodes_[i]; }
  index_t root() const { return 0; }

  /// Leaf node indices in Morton order (the SFC used for partitioning).
  const std::vector<index_t>& leaves() const { return leaves_; }

  /// Node indices of every node at \p level, in Morton order (ascending
  /// node index); empty for a level outside 0..max_depth().
  const std::vector<index_t>& nodes_at_level(int level) const;

  int max_depth() const { return max_depth_; }

  /// Exact-code lookup; invalid_node if no node has this code.
  index_t find(code_t code) const;

  /// Deepest existing node whose region contains the region of \p code.
  index_t find_enclosing(code_t code) const;

  /// Same-level neighbor of node \p n in direction index d, or invalid_node.
  index_t neighbor(index_t n, int d) const { return nodes_[n].neighbors[d]; }

  /// Neighbor at the same level if it exists, else the (single, by 2:1
  /// balance) coarser node covering that region, else invalid_node
  /// (domain boundary).
  index_t neighbor_or_coarser(index_t n, int d) const;

  // --- geometry ----------------------------------------------------------
  real domain_half_width() const { return half_width_; }

  /// Center of the node's cube.
  rvec3 center(index_t n) const;

  /// Half-width of the node's cube.
  real node_half_width(index_t n) const {
    return half_width_ / static_cast<real>(index_t(1) << nodes_[n].level);
  }

  /// Cell width of the sub-grid attached to this node.
  real cell_width(index_t n) const {
    return 2 * node_half_width(n) / SUBGRID_N;
  }

  /// Total evolved cells (leaves only).
  index_t num_cells() const {
    return num_leaves() * index_t(SUBGRID_N) * SUBGRID_N * SUBGRID_N;
  }

  // --- statistics ---------------------------------------------------------
  struct stats_t {
    index_t nodes = 0;
    index_t leaves = 0;
    index_t cells = 0;
    int depth = 0;
    std::vector<index_t> leaves_per_level;
  };
  stats_t stats() const;

 private:
  index_t add_node(code_t code, index_t parent);
  void refine_node(index_t n);
  void balance();
  void link_neighbors();
  void rebuild_in_morton_order();

  real half_width_;
  int max_level_;
  int max_depth_ = 0;
  std::vector<tnode> nodes_;
  std::vector<index_t> leaves_;
  std::vector<std::vector<index_t>> levels_;  ///< nodes per level
  std::unordered_map<code_t, index_t> by_code_;
};

}  // namespace octo::tree
