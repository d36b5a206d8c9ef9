#pragma once
/// \file simulation.hpp
/// The mini-Octo-Tiger driver on one locality: the step core
/// (app/step_core.hpp) plus density-driven regridding.

#include "app/step_core.hpp"

namespace octo::app {

class simulation : public step_core {
 public:
  simulation(const scen::scenario& sc, sim_options opt,
             exec::amt_space space = exec::amt_space{});

  /// Rebuild the AMR tree from the *current* density field (refine where
  /// rho > options().rho_refine, up to max_level; 2:1 balance is restored
  /// by the tree builder) and conservatively transfer the state: regions
  /// that coarsened are restricted, regions that refined are prolonged.
  /// Returns true if the topology changed.
  bool regrid();

  /// Narrow restore hook for checkpointing: overwrite the integration
  /// clock (leaf fields must already hold the checkpointed state), then
  /// rebuild the derived state exactly as an uninterrupted run would carry
  /// it — re-exchange ghosts, re-solve gravity, recompute the CFL dt.
  using step_core::restore_state;

  index_t num_leaves() const { return topo_->num_leaves(); }
  index_t num_cells() const { return topo_->num_cells(); }

  /// Gravitational acceleration/potential of the last solve.
  const gravity::fmm_solver& gravity() const { return *grav_; }

  const sim_options& options() const { return opt_; }
};

}  // namespace octo::app
