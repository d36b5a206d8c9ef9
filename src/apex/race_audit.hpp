#pragma once
/// \file race_audit.hpp
/// Happens-before audit of one recorded step graph (either step mode: a
/// barrier step is ordered by its recorded phase joins).
///
/// The dataflow step mode (app/step_core.cpp, dist/cluster.cpp,
/// gravity/solver.cpp) replaced phase barriers with hand-wired per-leaf
/// dependency edges, and its correctness rests entirely on those WAR/WAW
/// edges being complete — the exact bug class that had to be patched by
/// hand in `fmm_solver::build_solve` (the `solve_graph{mom_free,
/// exp_free, leaf_out}` free-edges).  Nothing in the runtime *proves* the
/// wiring: a missing edge produces a data race that only TSan-under-load
/// might catch, and only if the schedule happens to interleave badly.
///
/// This auditor closes that gap.  Each named `amt::dataflow` call site
/// attaches an `access_set` declaring the memory regions the task reads
/// and writes (region kind x tree node x optional part).  After a recorded
/// step drains (`apex::dag_recorder`), `audit_races` propagates per-node
/// ancestor bitsets over the recorded edges — vector clocks over the DAG,
/// computed in creation order, which is topological because a dependency
/// always has a lower creation id — and checks that every pair of
/// conflicting declared accesses (same region, overlapping part, at least
/// one write) is happens-before ordered.  An unordered pair is reported
/// with both task names, the shared region, and the missing edge.
///
/// Cost model: `access_set::r()/w()` no-op unless a dag recording is
/// active, so annotated call sites stay on the one-relaxed-load budget of
/// the dataflow hook when auditing is off.  The audit itself runs offline
/// on the drained graph (O(V·E/64) bitset propagation + per-region pair
/// checks), never inside the step.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "apex/dag.hpp"

namespace octo::apex {

// rgn / mem_access / any_part live in apex/dag.hpp (the recorded node
// carries the footprint); this header adds the builder and the audit.

/// Region kind name for reports ("field", "ghost", ...).
const char* rgn_name(rgn r);

/// Fluent footprint builder attached at a dataflow call site:
///
///   amt::dataflow("M2M", apex::access_set{}
///                            .r(apex::rgn::moment, child)
///                            .w(apex::rgn::moment, n),
///                 fn, deps, rt);
///
/// Builds nothing unless a dag recording is active.
class access_set {
 public:
  access_set() = default;

  // node/part widen from the repo's index_t; real node counts fit easily.
  access_set& r(rgn region, std::int64_t node, std::int64_t part = any_part) {
    if (dag_recorder::enabled())
      acc_.push_back(mem_access{region, false, static_cast<std::int32_t>(node),
                                static_cast<std::int32_t>(part)});
    return *this;
  }
  access_set& w(rgn region, std::int64_t node, std::int64_t part = any_part) {
    if (dag_recorder::enabled())
      acc_.push_back(mem_access{region, true, static_cast<std::int32_t>(node),
                                static_cast<std::int32_t>(part)});
    return *this;
  }

  bool empty() const { return acc_.empty(); }
  std::vector<mem_access> take() { return std::move(acc_); }
  const std::vector<mem_access>& accesses() const { return acc_; }

 private:
  std::vector<mem_access> acc_;
};

/// One unordered conflicting pair (ids are creation order, first < second).
struct race_conflict {
  std::string first_cls;
  std::uint32_t first_id = 0;
  std::string second_cls;
  std::uint32_t second_id = 0;
  mem_access first_access{};   ///< the earlier task's touch of the region
  mem_access second_access{};  ///< the later task's touch of the region
  /// Human-readable line: both tasks, the region, the missing edge.
  std::string describe() const;
};

struct race_audit_options {
  /// Audit-layer edge removal for regression tests: every recorded edge
  /// whose producer's kernel class is `drop_edge_from` and whose
  /// consumer's is `drop_edge_to` is ignored during propagation.  The
  /// *real* schedule is untouched — the step still executes race-free —
  /// but the audited graph loses the ordering, reproducing the missing-
  /// edge bug class without introducing an actual race.
  std::string drop_edge_from;
  std::string drop_edge_to;
  /// Stop collecting after this many conflicts (the graph is usually
  /// either clean or systematically broken).
  std::size_t max_conflicts = 32;
};

struct race_audit_result {
  std::size_t tasks = 0;             ///< nodes in the audited graph
  std::size_t tasks_with_footprint = 0;
  std::size_t accesses = 0;          ///< declared accesses seen
  std::size_t pairs_checked = 0;     ///< conflicting pairs tested for HB
  std::size_t edges_dropped = 0;     ///< by the drop_edge injection
  std::vector<race_conflict> conflicts;

  bool clean() const { return conflicts.empty(); }
  /// Multi-line report (one header + one line per conflict).
  std::string summary() const;
};

/// Audit one drained step graph.  Nodes must be in creation order with
/// deps referring to lower ids (the dag_recorder invariant).
race_audit_result audit_races(const graph_profile& g,
                              const race_audit_options& opt = {});

/// Step-driver hook (sim_options::audit_races): audit \p g, bump the
/// `race.audits` / `race.conflicts` counters, honor OCTO_RACE_AUDIT_DUMP
/// (write the graph JSON for `octo_analyze --race-audit`), and throw
/// octo::error carrying the full conflict report when the graph fails.
void audit_step_or_throw(const graph_profile& g);

/// Serialize a recorded graph (+footprints) as JSON, the `octo_analyze
/// --race-audit` interchange format.
void dump_graph_json(const graph_profile& g, std::ostream& out);

/// A graph loaded from JSON owns its kernel-class strings (dag_node::cls
/// borrows from `names`).
struct owned_graph {
  graph_profile graph;
  std::shared_ptr<std::vector<std::string>> names;
};
owned_graph load_graph_json(const std::string& text);

}  // namespace octo::apex
