#pragma once
/// \file dag.hpp
/// Task-graph profiling: per-node timing and dependency edges of one
/// dependency-driven step (`amt::dataflow` graph), recorded live.
///
/// The paper's APEX layer measures tasks *individually*; the AMT follow-up
/// work (Daiß et al.) argues the hard scaling questions — where does the
/// critical path live, who stalls whom — need the *graph*.  This recorder
/// captures exactly that: every `amt::dataflow` node created while a step
/// recording is active contributes
///
///   * its kernel class (the static name given at the call site:
///     "hydro-RK", "M2L", "unpack", "send", ...),
///   * dependency edges, resolved producer-side by shared-state identity,
///   * ready (all inputs resolved) / start (body begins on a worker) /
///     end timestamps on the shared trace clock, and
///   * the executing worker index,
///
/// into a `graph_profile` that `apex/critical_path.hpp` walks offline.
///
/// Cost model: when no recording is active the hook in `amt::dataflow` is
/// one relaxed atomic load (the <2% bench_micro_amt budget); when active,
/// node creation takes a mutex (graph build is cheap relative to the
/// kernels) and the timing writes are plain stores into that node's slot,
/// ordered by the scheduler's own happens-before edges.
///
/// One recording at a time: `begin_step()` / `end_step()` bracket a single
/// graph build + drain (the per-step structure of step_graph()).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
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

/// One recorded dataflow task node.
struct dag_node {
  const char* cls = "task";   ///< kernel class (static-duration string)
  std::uint32_t id = 0;       ///< creation order; deps always have lower ids
  std::uint64_t ready_ns = 0; ///< last dependency resolved (trace clock)
  std::uint64_t start_ns = 0; ///< body began executing
  std::uint64_t end_ns = 0;   ///< body finished (== start_ns if not run)
  std::int32_t worker = -1;   ///< executing worker index (-1: external)
  bool failed = false;        ///< resolved with an exception
  std::vector<std::uint32_t> deps;  ///< producer node ids
  /// Declared read/write footprint (empty unless the call site attached an
  /// access_set; consumed by apex/race_audit.hpp).
  std::vector<mem_access> footprint;
};

/// A drained step's task graph (nodes in creation = topological order).
struct graph_profile {
  std::vector<dag_node> nodes;
  bool empty() const { return nodes.empty(); }
};

/// Process-wide recorder, driven by amt::dataflow.
class dag_recorder {
 public:
  static dag_recorder& instance();

  /// Fast path for the dataflow hook.
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Start recording a fresh graph (drops any unfinished recording).
  void begin_step();

  /// Stop recording and move the captured graph out.  Call only after the
  /// graph has drained — node slots are written until their tasks finish.
  graph_profile end_step();

  /// Register a node.  \p out_state identifies the node's result
  /// (shared-state address) so later nodes can resolve their edges;
  /// \p dep_states are the dependencies' shared-state addresses (producers
  /// the recording did not create, such as a promise's future or an
  /// earlier recording's join, are skipped).  Returns the node's stable
  /// slot, or nullptr when recording is off.
  dag_node* on_create(const char* cls, const void* out_state,
                      const void* const* dep_states, std::size_t ndeps);

  /// Epoch of the recording that is (or was) open; bumped by both
  /// begin_step() and end_step().  A deferred writer — a continuation that
  /// still holds a `dag_node*` after the step's awaited futures resolved
  /// (e.g. a pure `when_all` join whose result nobody in the step awaits)
  /// — captures this at node creation and revalidates with pin() before
  /// touching the slot.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Writer guard for continuation-context slot writes.  Returns true and
  /// holds the slot alive iff \p epoch's recording is still open; the
  /// caller must unpin() after its plain stores.  end_step() bumps the
  /// epoch first and then drains pinned writers before freeing slots, so
  /// a successful pin means the write cannot race the free.
  bool pin(std::uint64_t epoch);
  void unpin();

 private:
  dag_recorder() = default;
  static std::atomic<bool>& enabled_flag();

  std::mutex mutex_;  ///< guards nodes_ growth and the state index
  std::deque<dag_node> nodes_;  ///< deque: slots never move
  std::unordered_map<const void*, std::uint32_t> state_index_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> pinned_{0};  ///< in-flight deferred writers
};

}  // namespace octo::apex
