#pragma once
/// \file dag.hpp
/// Task-graph profiling: per-node timing and dependency edges of one step's
/// task graph (`amt::task_graph`), recorded live.
///
/// The paper's APEX layer measures tasks *individually*; the AMT follow-up
/// work (Daiß et al.) argues the hard scaling questions — where does the
/// critical path live, who stalls whom — need the *graph*.  A task graph
/// built with `record` keeps exactly that, one node per task:
///
///   * its kernel class (the static name given at the call site, which is
///     also the task's trace span: "app.hydro.leaf", "gravity.m2l",
///     "dist.exchange.unpack", ...),
///   * its producers' node ids, which the graph already knows,
///   * its declared footprint,
///   * ready (all inputs resolved) / start (body begins on a worker) /
///     end timestamps on the shared trace clock, and
///   * the executing worker index,
///
/// and `task_graph::take_record()` moves them into a `graph_profile` that
/// `apex/critical_path.hpp` walks offline.  A barrier join is a
/// zero-duration "join" node.
///
/// Cost model: a graph that does not record pays one branch per task;
/// one that does appends its nodes to its own deque on the building
/// thread (no lock: the record is the graph's, not the process's), and
/// the timing writes are plain stores into that node's slot, ordered by
/// the scheduler's own happens-before edges.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace octo::apex {

/// Memory-region kinds a task footprint can name (see apex/race_audit.hpp
/// for the audit that consumes them).  `node` scopes each kind to one
/// octree node (or link/reduction ordinal); `part` subdivides a region
/// when different tasks write disjoint pieces (ghost directions, M2L
/// interaction chunks, per-stage message slots).
enum class rgn : std::uint8_t {
  field,      ///< a node's evolved sub-grid cells
  ghost,      ///< a leaf's ghost shell; part = direction
  stage0,     ///< a leaf's RK u0 snapshot
  moment,     ///< a node's multipole moments
  expansion,  ///< a node's local expansion; part = M2L interaction chunk
  gout,       ///< a leaf's gravity output (acceleration/potential)
  fcbuf,      ///< a leaf's refinement-boundary force-correction buffer
  slot,       ///< a ghost-exchange message slot; node = link ordinal
  dtred,      ///< the dt reduction; node = leaf ordinal
};
/// Number of region kinds (dtred is the last).
inline constexpr std::size_t num_rgn = static_cast<std::size_t>(rgn::dtred) + 1;

/// `part` value that overlaps every part of a region.
inline constexpr std::int32_t any_part = -1;

/// One declared read or write of a region.
struct mem_access {
  rgn region = rgn::field;
  bool write = false;
  std::int32_t node = 0;        ///< tree node index / link / ordinal
  std::int32_t part = any_part;
};

/// One recorded task node.
struct dag_node {
  const char* cls = "task";   ///< kernel class (static-duration string)
  std::uint32_t id = 0;       ///< creation order; deps always have lower ids
  std::uint64_t ready_ns = 0; ///< last dependency resolved (trace clock)
  std::uint64_t start_ns = 0; ///< body began executing
  std::uint64_t end_ns = 0;   ///< body finished (== start_ns if not run)
  std::int32_t worker = -1;   ///< executing worker index (-1: external)
  bool failed = false;        ///< raised or inherited an error
  std::vector<std::uint32_t> deps;  ///< producer node ids
  /// Declared read/write footprint (empty for a join; consumed by
  /// apex/race_audit.hpp).
  std::vector<mem_access> footprint;
};

/// A drained task graph's record (nodes in creation = topological order).
struct graph_profile {
  std::vector<dag_node> nodes;
  bool empty() const { return nodes.empty(); }
};

}  // namespace octo::apex
