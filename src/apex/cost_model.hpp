#pragma once
/// \file cost_model.hpp
/// Measured per-leaf cost model for dynamic load rebalancing.
///
/// The SFC partition (tree/partition.hpp) is only as good as the cost
/// vector it balances.  A static estimate (cells x depth) is wrong the
/// moment the binary's refined region concentrates hydro, gravity and
/// serialization work around the two stars, so the cluster measures: every
/// per-leaf task (hydro, ghost send/unpack, gravity density refresh)
/// adds its wall time here, and `end_step()` folds the step's totals into
/// an exponentially-weighted moving average.  The EWMA smooths scheduler
/// noise while tracking real drift (a leaf whose neighbors migrated away
/// starts serializing its slabs and genuinely costs more).
///
/// Overhead when rebalancing is off: call sites hold a null pointer and
/// skip the clock read entirely — the model is never touched.
/// Overhead when on: one steady_clock read pair plus one relaxed atomic
/// add per task, well under the microsecond scale of the tasks measured.
///
/// Counters: `lb.cost_steps` (steps folded into the EWMA).

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace octo::apex {

class leaf_cost_model {
 public:
  /// Start measuring \p n_leaves slots (aligned with topology.leaves()
  /// order).  \p alpha is the EWMA weight of the newest step.  Any
  /// previous history is discarded (call again after a regrid).
  void reset(std::size_t n_leaves, double alpha = 0.3);

  /// True once reset() has been called with a nonzero slot count.
  bool active() const { return n_ != 0; }
  std::size_t size() const { return n_; }

  /// Zero the per-step accumulators (top of every step).
  void begin_step();

  /// Attribute \p ns nanoseconds of measured work to leaf \p slot.
  /// Thread-safe (relaxed atomic add); callable from any task.
  void add_ns(std::size_t slot, std::uint64_t ns) {
    if (slot < n_) step_ns_[slot].fetch_add(ns, std::memory_order_relaxed);
  }

  /// Fold the step's accumulators into the EWMA (bottom of every step).
  void end_step();

  /// Steps folded so far; 0 = no measurements yet, costs() is unusable.
  std::uint64_t steps_observed() const { return steps_; }

  /// Smoothed per-leaf cost in nanoseconds, usable as the cost vector of
  /// tree::partition_sfc.  Slots that measured nothing get cost 1 (never
  /// 0: a zero-cost prefix would glue those leaves to one locality).
  std::vector<real> costs() const;

  /// Raw EWMA value of one slot (tests).
  double ewma_ns(std::size_t slot) const {
    return slot < n_ ? ewma_[slot] : 0.0;
  }

 private:
  std::size_t n_ = 0;
  double alpha_ = 0.3;
  std::uint64_t steps_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> step_ns_;
  std::vector<double> ewma_;
};

/// RAII measurement into a (possibly null) model: times its scope and
/// attributes it to \p slot.  A null model costs one branch.
class cost_scope {
 public:
  cost_scope(leaf_cost_model* model, std::size_t slot)
      : model_(model), slot_(slot) {
    if (model_) start_ = now_ns();
  }
  ~cost_scope() {
    if (model_) model_->add_ns(slot_, now_ns() - start_);
  }
  cost_scope(const cost_scope&) = delete;
  cost_scope& operator=(const cost_scope&) = delete;

 private:
  static std::uint64_t now_ns();

  leaf_cost_model* model_;
  std::size_t slot_;
  std::uint64_t start_ = 0;
};

}  // namespace octo::apex
