#pragma once
/// \file cluster.hpp
/// In-process multi-locality execution of the simulation.
///
/// The octree's leaves are partitioned over `num_localities` HPX-style
/// localities along the space-filling curve (tree/partition.hpp).  Leaf
/// ghost exchange runs through per-(leaf, direction) channels, exactly like
/// Octo-Tiger's boundary communication:
///
///   * remote pairs, or any pair with `local_optimization == false`:
///     the sender packs the 26-direction slab, *serializes* it (the HPX
///     action path), and the receiver deserializes and unpacks;
///   * same-locality pairs with `local_optimization == true` (§VII-B):
///     the sender passes a bare pointer token through the channel — the
///     promise/future notification that "the local values are up-to-date
///     and can be safely accessed" — and the receiver copies directly from
///     the neighbor's memory, skipping serialization and buffers.
///
/// The receive side attaches unpack work to `when_all` of its channel
/// futures, so the exchange is barrier-free across leaves (communication/
/// computation overlap as in the real code).  Statistics feed the DES
/// calibration and Fig. 8's model.
///
/// Every serialized slab is sealed with a CRC-32; a slab corrupted or
/// truncated in transit (for real, or via the fault injector in
/// common/fault.hpp) is detected at unpack time and fails the whole
/// exchange loudly instead of being silently integrated — the trigger for
/// `dist::run_with_checkpoints` rollback (dist/checkpoint.hpp).
///
/// Serialized slabs additionally route through `dist::transport`
/// (transport.hpp): sequence numbers, acknowledgements, retransmission
/// with backoff, duplicate suppression — so the exchange completes
/// bitwise-identically under message drop / delay / duplication /
/// reordering, and a genuinely lost slab fails the exchange with
/// `transport_error` instead of deadlocking the receive side.  Locality
/// death is detected by a per-step heartbeat deadline and survived online
/// via `recovery.hpp`: the partition shrinks over the survivors and the
/// dead leaves are restored from in-memory buddy replicas (kept on the
/// SFC-neighbor locality) or the newest valid checkpoint.

#include <cstdint>
#include <memory>
#include <vector>

#include "amt/channel.hpp"
#include "app/step_core.hpp"
#include "dist/recovery.hpp"
#include "dist/trace_merge.hpp"
#include "dist/transport.hpp"
#include "tree/partition.hpp"

namespace octo::dist {

/// Measured-cost dynamic load rebalancing (dist/rebalance.cpp).
struct lb_options {
  /// Consider a rebalance every this many steps; 0 = never (measurement
  /// can still be on via `measure`).
  int every = 0;
  /// Measure per-leaf costs without ever rebalancing (ablation baseline:
  /// the same max_over_mean series, no migrations).
  bool measure = false;
  /// Hysteresis: apply a candidate partition only when the current
  /// measured max/mean exceeds the projected one by this factor.
  double min_gain = 1.05;
  /// EWMA weight of the newest step in the per-leaf cost model.
  double ewma_alpha = 0.3;

  bool measuring() const { return measure || every > 0; }
};

struct dist_options {
  int num_localities = 2;
  /// The paper's §VII-B same-locality direct-access optimization.
  bool local_optimization = true;
  /// Route every serialized slab through the reliable transport layer
  /// (sequencing/ack/retry).  Off = the seed's bare-channel path, kept as
  /// the baseline for measuring the robustness tax (bench_fig8).
  bool reliable_transport = true;
  transport_options transport{};
  /// Heartbeat deadline for locality-failure detection; a locality that
  /// has not beaten this long after the step opened is declared dead.
  double heartbeat_deadline_ms = 25;
  /// Keep an in-memory buddy replica of every leaf's state on the next
  /// surviving locality along the SFC — the online recovery source.
  bool buddy_replication = true;
  /// Measured-cost dynamic load rebalancing with live leaf migration.
  lb_options lb{};
  app::sim_options sim{};
};

struct exchange_stats {
  std::uint64_t local_direct = 0;      ///< slabs passed as pointer tokens
  std::uint64_t local_serialized = 0;  ///< same-locality but full path
  std::uint64_t remote_messages = 0;
  std::uint64_t bytes_serialized = 0;

  std::uint64_t total_slabs() const {
    return local_direct + local_serialized + remote_messages;
  }
};

/// The step core (app/step_core.hpp) on `num_localities` localities: the
/// core owns the mesh state and the one step graph; the cluster adds what
/// one locality lacks through the core's hooks.
class cluster : public app::step_core {
 public:
  cluster(const scen::scenario& sc, dist_options opt,
          exec::amt_space space = exec::amt_space{});
  /// Writes the distributed trace bundle (see set_trace_dir) when armed.
  ~cluster() override;

  /// Narrow restore hook for checkpointing (dist/checkpoint.hpp): the leaf
  /// fields must already hold the checkpointed state; this overwrites the
  /// integration clock and exchange statistics, re-exchanges ghosts,
  /// re-solves gravity and recomputes the CFL dt — bitwise identical to
  /// the state an uninterrupted run carries after the same step.
  void restore_state(real time, std::int64_t step, const exchange_stats& st);

  /// Live locality-failure recovery (implemented in recovery.cpp): mark
  /// \p dead localities dead, shrink the partition over the survivors,
  /// restore the lost leaves from buddy replicas — or roll the whole
  /// cluster back to the newest valid checkpoint in \p ckpt_dir when a
  /// replica is unavailable — rebuild channels and transport, and
  /// re-derive ghosts, gravity and dt.  Throws octo::error when neither
  /// recovery source exists.
  void recover_locality_failure(const std::vector<int>& dead,
                                const std::string& ckpt_dir = {});

  /// Measured-cost rebalance attempt (implemented in rebalance.cpp):
  /// recompute the SFC partition over the live localities from the cost
  /// model's EWMA, and — only when the measured max/mean imbalance exceeds
  /// the projection by `lb.min_gain` — live-migrate every leaf whose owner
  /// changes (checkpoint-format pack, reliable transport, unpack), rebuild
  /// channels on a fresh transport epoch, and re-derive ghosts/gravity/dt
  /// exactly as recovery does.  Returns true when a rebalance was applied.
  /// Physics-transparent: the continued run is bitwise identical to one
  /// that never rebalanced.  No-op without measurements.
  bool maybe_rebalance();

  /// Rebalances applied so far (the step_record's `rebalance_count`).
  std::uint64_t rebalance_count() const { return rebalance_count_; }
  /// Candidate partitions evaluated but skipped by hysteresis.
  std::uint64_t rebalances_skipped() const { return rebalances_skipped_; }

  /// Per-leaf costs the partitioner should balance right now: the cost
  /// model's measured EWMA once any step has been observed, the static
  /// estimate (tree::static_leaf_costs) before that.
  std::vector<real> current_leaf_costs() const;

  const tree::partition_result& partition() const { return part_; }
  const exchange_stats& stats() const { return stats_; }
  transport_stats transport_statistics() const;
  bool locality_alive(int loc) const {
    return locality_alive_[static_cast<std::size_t>(loc)] != 0;
  }
  int live_localities() const;

  /// Arm distributed tracing into \p dir: span recording plus per-locality
  /// message-flow stamps on deliberately skewed locality clocks
  /// (skew_ns_per_locality x locality index simulates independent node
  /// clocks; the merge has to undo it).  The bundle — trace.locK.json per
  /// locality, the clock-aligned trace.merged.json, cluster_report.txt —
  /// is written by write_trace_bundle(), or automatically at destruction.
  /// Also armed from the environment: OCTO_TRACE naming an existing
  /// *directory* selects this mode (OCTO_TRACE_SKEW_US, a non-negative
  /// integer, overrides the per-locality skew, default 2000 us; any other
  /// value throws octo::error naming it).
  void set_trace_dir(const std::string& dir,
                     std::int64_t skew_ns_per_locality = 2'000'000);

  /// Write the distributed trace bundle into \p dir (see set_trace_dir)
  /// and return the merge summary (offsets applied, flows matched).
  merge_result write_trace_bundle(const std::string& dir);

  /// Cluster-wide end-of-run report: aggregated apex counters for all
  /// localities, per-locality traffic totals, estimated clock offsets vs.
  /// the configured skews, transport statistics.
  void write_cluster_report(std::ostream& os) const;

 private:
  /// One message through a boundary channel.
  struct boundary_msg {
    bool direct = false;              ///< token: copy straight from `src`
    const grid::subgrid* src = nullptr;
    std::vector<std::uint8_t> bytes;  ///< serialized slab otherwise
  };
  /// Slab counts of one exchange, added lock-free by the send tasks.
  struct xfer_counts;
  /// One dataflow step's link state: its slab counts and the failure latch
  /// that closes the step's channels when any task fails.
  struct link_step;

  // --- step-core hooks ---------------------------------------------------
  void on_layout() override;
  void on_initialized() override;
  /// Armed node-death trigger, then the heartbeat round: fires any armed
  /// locality kill, scrubs the victim's leaves, and throws
  /// locality_failure for every locality silent past the deadline.
  void before_step() override;
  void after_sdc_retry() override;
  /// Rebalance check every lb.every steps, else refresh the replicas.
  void after_step() override;
  void finish_step_record(apex::step_record& rec) override;
  void save_step_entry() override { entry_stats_ = stats_; }
  void restore_step_entry() override { stats_ = entry_stats_; }
  int num_localities() const override { return dopt_.num_localities; }
  int leaf_owner(index_t leaf) const override { return part_.owner(leaf); }
  void exchange_leaf_faces() override;
  void open_links() override;
  void close_links(bool ok) override;
  void watch_task(const sf& f) override;
  void add_link_tasks(step_graph_state& g) override;
  bool link_reads_source(index_t l, index_t nb) const override {
    return part_.owner(l) == part_.owner(nb) && dopt_.local_optimization;
  }

  /// Send every leaf-to-leaf face of leaf \p l: a pointer token to a
  /// same-locality neighbor (with local_optimization), else a sealed,
  /// serialized slab through the transport.
  void send_faces(index_t l, xfer_counts& counts);
  /// Write \p msg into leaf \p l's ghost face \p d.
  void unpack_face(index_t l, int d, boundary_msg msg);
  /// Fold one exchange's slab counts into stats_ and the apex counters.
  void add_counts(const xfer_counts& counts);

  /// Fresh boundary channels and a fresh transport epoch; old channels are
  /// closed first so stragglers (pending receives, delayed in-flight
  /// frames) fail or drop instead of corrupting the next exchange.
  void rebuild_channels();
  /// Refresh the buddy replicas (leaf state copied to the next surviving
  /// locality along the SFC) after a completed step.
  void update_replicas();
  /// Next surviving locality after \p loc on the locality ring.
  int buddy_of(int loc) const;
  /// Transport link carrying leaf slot \p s's migration payload (the range
  /// past the nleaves x 26 boundary links).
  int migration_link(index_t slot) const {
    return static_cast<int>(topo_->leaves().size()) * NNEIGHBOR +
           static_cast<int>(slot);
  }

  dist_options dopt_;
  tree::partition_result part_;

  /// channels_[leaf_slot * 26 + dir]: inbound slab from direction dir.
  /// shared_ptr so a delayed transport frame delivering after a rebuild
  /// lands in the old, closed channel (dropped) instead of freed memory.
  std::vector<std::shared_ptr<amt::channel<boundary_msg>>> channels_;
  std::unique_ptr<transport> transport_;
  std::shared_ptr<link_step> link_step_;

  /// Liveness and recovery state.
  std::vector<char> locality_alive_;
  heartbeat_monitor monitor_;
  /// Buddy replicas, indexed by leaf slot: a copy of the leaf's state and
  /// the locality "holding" it (the owner's SFC successor).
  std::vector<grid::subgrid> replicas_;
  std::vector<int> replica_holder_;
  /// Recovery totals folded into the next step_record.
  std::uint64_t pending_localities_lost_ = 0;
  std::uint64_t pending_leaves_migrated_ = 0;
  transport_stats last_transport_stats_{};

  /// Dynamic load rebalancing state (dist/rebalance.cpp).
  std::uint64_t rebalance_count_ = 0;
  std::uint64_t rebalances_skipped_ = 0;

  /// Distributed-trace state (set_trace_dir): output directory, configured
  /// per-locality skew, the live offset estimator (refined every step from
  /// new flow samples), and how many samples it has already consumed.
  std::string trace_dir_;
  std::int64_t trace_skew_ns_ = 0;
  clock_offset_estimator offset_est_;
  std::size_t flows_consumed_ = 0;

  exchange_stats stats_;
  /// stats_ at the SDC snapshot: a retried step counts its slabs once.
  exchange_stats entry_stats_;
};

}  // namespace octo::dist
