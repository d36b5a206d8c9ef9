#pragma once
/// \file checkpoint.hpp
/// Single-file binary checkpoints (our stand-in for Octo-Tiger's
/// Silo/HDF5 output, Fig. 2's blue boxes), hardened for fault-tolerant
/// restart (v2).
///
/// Format v2 (little-endian; integers 64-bit, checksums CRC-32):
///
///   magic "OCTOCKPT" | version
///   header record : time | step | dt | domain_half | max_level
///                   | nleaves | nstats | nstats x u64  + CRC-32
///   leaf records  : location code | NFIELD x N^3 owned cells  + CRC-32
///                   (one per leaf, SFC order)
///   trailer       : magic "OCTOEND." | CRC-32 of every preceding byte
///
/// Every record carries its own CRC so a bit-flip is attributed to the
/// failing record by name; the trailer checksum additionally catches
/// truncation and block reordering.  Writes are atomic: the stream goes to
/// `<path>.tmp` and is renamed onto `<path>` only after a clean close, so a
/// crash (or injected fault, common/fault.hpp) mid-write never clobbers the
/// previous valid checkpoint.
///
/// The `stats` words are an opaque extension slot: empty for
/// `app::simulation`, the four exchange_stats counters for the
/// multi-locality `dist::cluster` (dist/checkpoint.hpp).  Both drivers
/// write and restore through write_checkpoint() / restore_checkpoint()
/// below.
///
/// Ghost cells are not stored; restore re-exchanges ghosts, re-solves
/// gravity, and recomputes the CFL dt from the restored fields, which is
/// exactly the state an uninterrupted run would carry — restart is bitwise
/// transparent.

#include <cstdint>
#include <string>
#include <vector>

#include "app/step_core.hpp"

namespace octo::app {

/// On-disk checkpoint version written by this build.
inline constexpr std::int64_t checkpoint_version = 2;

/// Result of reading a checkpoint back (also the writer's input).
struct checkpoint_data {
  real time = 0;
  std::int64_t step = 0;
  real dt = 0;
  real domain_half = 0;
  std::int64_t max_level = 0;
  /// Opaque extension words (dist::cluster stores exchange_stats here).
  std::vector<std::uint64_t> stats;
  std::vector<code_t> leaf_codes;
  /// One owned-cell block (grid::subgrid::save_owned) per leaf, same order
  /// as leaf_codes.
  std::vector<std::vector<real>> fields;
};

/// Read and fully verify a checkpoint; throws octo::error naming the
/// failing record (header / leaf record / trailer) on any corruption.
checkpoint_data read_checkpoint(const std::string& path);

/// Write the current state of either driver to \p path (atomic, v2), with
/// \p stats as the header's extension words.  Returns bytes written and
/// counts `ckpt.written`.
std::size_t write_checkpoint(const step_core& core, const std::string& path,
                             std::vector<std::uint64_t> stats = {});

/// Restore a checkpoint into a driver whose topology has the same leaf
/// codes (throws otherwise): sub-grid contents, then time/step via
/// step_core::restore_state(), which re-exchanges ghosts and recomputes dt
/// so the next step() is bitwise identical to an uninterrupted run.
/// Samples the `ckpt.restore` timer.  The extension words are the
/// caller's to read.
void restore_checkpoint(step_core& core, const checkpoint_data& data);

}  // namespace octo::app
