#pragma once
/// \file workload.hpp
/// Builds the per-timestep task/message DAG that Octo-Tiger executes,
/// from a concrete AMR tree and an SFC partition, and runs it through the
/// DES engine.
///
/// One RK stage emits, per the real code's structure:
///   * a hydro kernel task per leaf, depending on the previous stage's
///     gravity evaluation of the same leaf and on the 26 neighbors'
///     previous-stage hydro results (ghost slabs; messages when the
///     neighbor is owned by another node);
///   * the gravity solve: M2M bottom-up, the Multipole kernel (M2L + near
///     field) per node — split into `m2l_chunks` tasks (§VII-C) — with
///     moment-halo dependencies on the 26 same-level neighbors, then L2L
///     top-down and per-leaf evaluation.
///
/// Knobs map one-to-one onto the paper's experiments: `simd` (Fig. 7),
/// `boost` (Fig. 3), `comm_opt` (Fig. 8), `m2l_chunks` (Fig. 9),
/// `use_gpus` (Figs. 4/5), machine choice (Figs. 4/5/10).

#include "des/engine.hpp"
#include "machine/spec.hpp"
#include "tree/partition.hpp"
#include "tree/topology.hpp"

namespace octo::des {

struct workload_options {
  bool simd = true;
  bool boost = false;
  bool comm_opt = true;
  int m2l_chunks = 1;
  bool use_gpus = true;
  bool gravity = true;
  // option kept: ROADMAP item 7 (kernel costs from measurements)
  machine::kernel_work work{};
};

/// Build the DAG of one full timestep.
graph build_step_graph(const tree::topology& topo,
                       const tree::partition_result& part,
                       const machine::machine_spec& m,
                       const workload_options& opt);

struct experiment_result {
  double step_seconds = 0;
  double cells_per_sec = 0;
  double subgrids_per_sec = 0;
  double cpu_utilization = 0;
  double gpu_utilization = 0;
  double avg_node_power_w = 0;
  double total_power_w = 0;
  std::uint64_t messages = 0;
  double bytes = 0;
};

/// Partition the tree over `num_nodes`, build the step DAG and simulate it.
/// `cores_override` > 0 restricts each node's cores (Fig. 3).
experiment_result run_experiment(const tree::topology& topo,
                                 const machine::machine_spec& m,
                                 int num_nodes, const workload_options& opt,
                                 int cores_override = 0);

}  // namespace octo::des
