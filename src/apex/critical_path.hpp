#pragma once
/// \file critical_path.hpp
/// Offline analysis of a step graph's own record (apex/dag.hpp, moved out
/// by `amt::task_graph::take_record`): critical path, per-kernel-class
/// contribution, per-worker slack.
///
/// The critical path answers the question the barrier-vs-dataflow idle
/// numbers cannot: *which chain of tasks bounds the step*, and which kernel
/// classes (gravity.m2l, app.hydro.leaf, dist.exchange.unpack, ...) that
/// chain spends its time
/// in.  Per-worker busy/slack quantifies the residual imbalance once the
/// barriers are gone.
///
/// Determinism: the longest chain is selected by (length, lower node id)
/// so ties break identically run-to-run; a node that resolved with an
/// exception (its body never ran) contributes its recorded — possibly
/// zero — duration and is flagged in the result rather than skipped.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apex/dag.hpp"

namespace octo::apex {

/// Busy time of one worker over the analyzed graph.
struct worker_load {
  std::int32_t worker = -1;
  std::uint64_t busy_ns = 0;   ///< summed task durations
  std::uint64_t tasks = 0;
};

struct critical_path_result {
  /// Node ids of the critical path, in execution order.
  std::vector<std::uint32_t> path;
  /// Summed task durations along the path.
  std::uint64_t length_ns = 0;
  /// End-to-end graph makespan (max end - min ready over all nodes).
  std::uint64_t makespan_ns = 0;
  /// Longest single task duration in the graph (lower bound on length_ns).
  std::uint64_t longest_task_ns = 0;
  /// Kernel-class -> summed duration along the critical path.
  std::map<std::string, std::uint64_t> class_ns;
  /// Kernel-class -> summed duration over the whole graph.
  std::map<std::string, std::uint64_t> class_total_ns;
  /// Per-worker busy time, ascending by worker index.
  std::vector<worker_load> workers;
  /// (max busy - mean busy) / max busy over workers that ran tasks;
  /// 0 = perfectly balanced, -> 1 = one worker did everything.
  double imbalance = 0;
  /// Any node on the path carried an exception.
  bool path_failed = false;

  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;

  /// length / makespan: 1 = the step *is* its critical path (no slack
  /// anywhere); small = width-bound, not chain-bound.
  double crit_path_frac() const {
    return makespan_ns > 0
               ? static_cast<double>(length_ns) /
                     static_cast<double>(makespan_ns)
               : 0;
  }
};

/// Walk the DAG (nodes in topological = creation order) and extract the
/// critical path.  Safe on an empty profile (all-zero result).
critical_path_result analyze_critical_path(const graph_profile& g);

/// Export a result as apex counters: `dag.crit_path_us`, `dag.nodes`,
/// `dag.edges`, and `dag.crit.<class>_us` per kernel class on the path.
void export_critical_path_counters(const critical_path_result& r);

/// Human-readable breakdown (the per-step section octo_analyze prints).
void print_critical_path(std::ostream& os, const critical_path_result& r);

}  // namespace octo::apex
