#include "tree/topology.hpp"

#include <algorithm>
#include <deque>

#include "common/error.hpp"

namespace octo::tree {

topology::topology(real domain_half_width, int max_level,
                   const refine_predicate& refine)
    : half_width_(domain_half_width), max_level_(max_level) {
  OCTO_CHECK(domain_half_width > 0);
  OCTO_CHECK(max_level >= 0 && max_level <= max_code_level);

  add_node(root_code, invalid_node);

  // Predicate-driven refinement, breadth-first so levels fill in order.
  std::deque<index_t> open;
  open.push_back(0);
  while (!open.empty()) {
    const index_t n = open.front();
    open.pop_front();
    const tnode& nd = nodes_[n];
    if (nd.level >= max_level_) continue;
    if (!refine(nd.level, center(n), node_half_width(n))) continue;
    refine_node(n);
    for (int oct = 0; oct < NCHILD; ++oct)
      open.push_back(nodes_[n].children[oct]);
  }

  balance();
  rebuild_in_morton_order();
  link_neighbors();

  leaves_.clear();
  for (index_t i = 0; i < num_nodes(); ++i) {
    if (nodes_[i].leaf) leaves_.push_back(i);
    max_depth_ = std::max(max_depth_, nodes_[i].level);
  }
  levels_.assign(static_cast<std::size_t>(max_depth_) + 1, {});
  for (index_t i = 0; i < num_nodes(); ++i)
    levels_[static_cast<std::size_t>(nodes_[i].level)].push_back(i);
  // nodes_ is in Morton DFS order, so leaves_ and each level are too.
}

index_t topology::add_node(code_t code, index_t parent) {
  const index_t idx = static_cast<index_t>(nodes_.size());
  tnode nd;
  nd.code = code;
  nd.parent = parent;
  nd.level = code_level(code);
  nd.children.fill(invalid_node);
  nd.neighbors.fill(invalid_node);
  nodes_.push_back(nd);
  by_code_.emplace(code, idx);
  return idx;
}

void topology::refine_node(index_t n) {
  OCTO_ASSERT(nodes_[n].leaf);
  nodes_[n].leaf = false;
  for (int oct = 0; oct < NCHILD; ++oct) {
    const index_t c = add_node(code_child(nodes_[n].code, oct), n);
    nodes_[n].children[oct] = c;
  }
}

void topology::balance() {
  // Repeatedly refine any leaf that has a neighbor more than one level
  // finer, until the tree is 2:1 balanced in all 26 directions.
  bool changed = true;
  while (changed) {
    changed = false;
    const index_t count = num_nodes();  // snapshot; new nodes checked next pass
    for (index_t n = 0; n < count; ++n) {
      if (nodes_[n].leaf) continue;
      // Interior node: every neighbor region at the same level must exist
      // at least as a leaf at level-1; i.e. the *parent's* neighbors must
      // be refined.  Equivalent formulation: for each direction, the
      // same-level neighbor region must be covered by a node of level
      // >= level-1... We check from the fine side:
      const tnode nd = nodes_[n];
      for (int d = 0; d < NNEIGHBOR; ++d) {
        const auto ncode = code_neighbor(nd.code, directions()[d]);
        if (!ncode) continue;
        // Deepest node containing the neighbor region.
        const index_t host = find_enclosing(*ncode);
        OCTO_ASSERT(host != invalid_node);
        if (nodes_[host].leaf && nodes_[host].level < nd.level) {
          // Interior node at level L has children at L+1; its neighbor
          // region is covered only by a leaf at level < L: children of n
          // would touch a leaf 2+ levels coarser.  Refine the host.
          refine_node(host);
          changed = true;
        }
      }
    }
  }
}

void topology::rebuild_in_morton_order() {
  // DFS from root following octant order yields Morton (Z-curve) order.
  std::vector<tnode> sorted;
  sorted.reserve(nodes_.size());
  std::vector<index_t> remap(nodes_.size(), invalid_node);

  std::vector<index_t> stack;
  stack.push_back(0);
  // Iterative pre-order DFS; children pushed in reverse so octant 0 pops
  // first.
  while (!stack.empty()) {
    const index_t n = stack.back();
    stack.pop_back();
    remap[n] = static_cast<index_t>(sorted.size());
    sorted.push_back(nodes_[n]);
    if (!nodes_[n].leaf) {
      for (int oct = NCHILD - 1; oct >= 0; --oct)
        stack.push_back(nodes_[n].children[oct]);
    }
  }
  OCTO_ASSERT(sorted.size() == nodes_.size());

  for (auto& nd : sorted) {
    if (nd.parent != invalid_node) nd.parent = remap[nd.parent];
    for (auto& c : nd.children)
      if (c != invalid_node) c = remap[c];
  }
  nodes_ = std::move(sorted);

  by_code_.clear();
  by_code_.reserve(nodes_.size());
  for (index_t i = 0; i < num_nodes(); ++i)
    by_code_.emplace(nodes_[i].code, i);
}

void topology::link_neighbors() {
  for (index_t n = 0; n < num_nodes(); ++n) {
    for (int d = 0; d < NNEIGHBOR; ++d) {
      const auto ncode = code_neighbor(nodes_[n].code, directions()[d]);
      nodes_[n].neighbors[d] = ncode ? find(*ncode) : invalid_node;
    }
  }
}

index_t topology::find(code_t code) const {
  const auto it = by_code_.find(code);
  return it == by_code_.end() ? invalid_node : it->second;
}

index_t topology::find_enclosing(code_t code) const {
  code_t c = code;
  while (c >= root_code) {
    const index_t n = find(c);
    if (n != invalid_node) return n;
    c = code_parent(c);
  }
  return invalid_node;
}

index_t topology::neighbor_or_coarser(index_t n, int d) const {
  const index_t same = nodes_[n].neighbors[d];
  if (same != invalid_node) return same;
  const auto ncode = code_neighbor(nodes_[n].code, directions()[d]);
  if (!ncode) return invalid_node;
  return find_enclosing(*ncode);
}

const std::vector<index_t>& topology::nodes_at_level(int level) const {
  static const std::vector<index_t> none;
  if (level < 0 || level > max_depth_) return none;
  return levels_[static_cast<std::size_t>(level)];
}

rvec3 topology::center(index_t n) const {
  const tnode& nd = nodes_[n];
  const ivec3 xyz = code_coords(nd.code);
  const real w = 2 * half_width_ / static_cast<real>(index_t(1) << nd.level);
  return rvec3{-half_width_ + (static_cast<real>(xyz.x) + real(0.5)) * w,
               -half_width_ + (static_cast<real>(xyz.y) + real(0.5)) * w,
               -half_width_ + (static_cast<real>(xyz.z) + real(0.5)) * w};
}

topology::stats_t topology::stats() const {
  stats_t s;
  s.nodes = num_nodes();
  s.leaves = num_leaves();
  s.cells = num_cells();
  s.depth = max_depth_;
  s.leaves_per_level.assign(max_depth_ + 1, 0);
  for (const index_t l : leaves_) ++s.leaves_per_level[nodes_[l].level];
  return s;
}

}  // namespace octo::tree
