#pragma once
/// \file execution_space.hpp
/// `amt_space`: the AMT runtime a kernel's tasks run on (the Kokkos *HPX
/// execution space* of the paper).  It is only a runtime handle; kernels
/// are plain functions that `amt::task_graph` tasks call.  The §VII-C
/// per-launch split (Fig. 9: 1 vs 16 tasks per Multipole-kernel launch) is
/// `gravity::gravity_options::m2l_chunks`, and the root's M2L always runs
/// as row tasks (see `fmm_solver::build_solve`).

#include "amt/runtime.hpp"

namespace octo::exec {

/// Runs kernels as tasks on an AMT runtime.
class amt_space {
 public:
  explicit amt_space(amt::runtime& rt) : rt_(&rt) {}

  /// Default: the global runtime.
  amt_space() : rt_(&amt::runtime::global()) {}

  amt::runtime& runtime() const { return *rt_; }

 private:
  amt::runtime* rt_;
};

}  // namespace octo::exec
