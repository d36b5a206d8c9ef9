#pragma once
/// \file checkpoint.hpp (dist)
/// Fault-tolerant checkpoint/restart for the multi-locality cluster.
///
/// Writes and restores through app/checkpoint.hpp, which both drivers
/// share (per-leaf records in SFC order, the integration state in the
/// header, the `ckpt.written` counter and `ckpt.restore` timer); the
/// cluster adds its four exchange_stats counters as the header's
/// extension words.
///
/// `run_with_checkpoints` is the resilience driver the paper's Fugaku-scale
/// runs rely on: step the cluster, checkpoint every `every` steps keeping
/// the last `keep` files, and on any `octo::error` escaping a step or a
/// checkpoint write — an injected fault (common/fault.hpp), a corrupted
/// ghost slab, a failed write — roll back to the newest checkpoint that
/// still *verifies* and replay.  Because restore rebuilds ghosts, gravity
/// and the CFL dt from the restored fields, the replayed trajectory is
/// bitwise identical to an uninterrupted run.

#include <cstdint>
#include <string>

#include "app/checkpoint.hpp"
#include "dist/cluster.hpp"

namespace octo::dist {

/// app::write_checkpoint with the four exchange_stats counters as the
/// header's extension words.  Returns bytes.
std::size_t write_checkpoint(const cluster& cl, const std::string& path);

/// app::restore_checkpoint, then the exchange_stats counters from the
/// extension words (throws if the file carries none).
void restore_checkpoint(cluster& cl, const app::checkpoint_data& data);

struct run_options {
  std::string dir;       ///< directory for ckpt_<step>.bin files
  int every = 1;         ///< checkpoint cadence in steps
  /// Retain the newest K checkpoint files.
  // option kept: FaultEnv.RollbackReplayMatchesUninterruptedRunBitwise
  int keep = 3;
  /// Give up (rethrow) after this many rollbacks.
  // option kept: FaultEnv.DriverGivesUpAfterMaxRestarts
  int max_restarts = 8;
};

struct run_result {
  int steps = 0;                ///< cluster.steps_taken() at exit
  int restarts = 0;             ///< rollback-and-replay cycles
  int checkpoints_written = 0;
  std::string last_checkpoint;  ///< newest file written (empty if none)
};

/// Step \p cl until steps_taken() == \p target_steps with periodic
/// checkpoints and rollback-on-fault (above).  If a fault hits before any
/// valid checkpoint exists, the cluster is re-initialize()d and the run
/// restarts from step 0.  Throws the last fault once opt.max_restarts is
/// exhausted.
run_result run_with_checkpoints(cluster& cl, int target_steps,
                                const run_options& opt);

/// Newest `ckpt_*.bin` in \p dir that reads back and passes every CRC;
/// empty string when none does.  Partial `.tmp` files and corrupted
/// checkpoints are skipped, not deleted.
std::string newest_valid_checkpoint(const std::string& dir);

}  // namespace octo::dist
