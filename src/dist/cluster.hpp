#pragma once
/// \file cluster.hpp
/// In-process multi-locality execution of the simulation.
///
/// The octree's leaves are partitioned over `num_localities` HPX-style
/// localities along the space-filling curve (tree/partition.hpp).  Only the
/// six face ghosts of a leaf are exchanged: the hydro stencil steps along
/// one axis at a time, so no kernel reads an edge or corner ghost.  A leaf
/// face to a leaf neighbor takes one of two paths:
///
///   * same-locality pairs with `local_optimization == true` (§VII-B):
///     the step core's copy task copies the face straight from the
///     neighbor's owned cells, skipping serialization and buffers.  Its
///     footprint-derived edge is the promise/future notification that "the
///     local values are up-to-date and can be safely accessed";
///   * remote pairs, or any pair with `local_optimization == false` — the
///     faces linked() reports: the sender's task packs the face slab and
///     *serializes* it (the HPX action path) into the receiving face's
///     message slot, and the receiver's unpack task deserializes and
///     unpacks it, exactly like Octo-Tiger's boundary communication.
///
/// Like every task of the step graph, the link tasks declare footprints:
/// a send writes the slots of its outbound links, an unpack reads its
/// link's slot and writes the ghost face.  So each unpack is ordered
/// after the send that filled its slot, and the next stage's send after
/// the unpack that emptied it, by derived edges alone; the exchange stays
/// barrier-free across leaves (communication/computation overlap as in
/// the real code).  Statistics feed the DES calibration and Fig. 8's model.
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
/// death (the fault injector's liveness, checked at step entry) is
/// survived online via `recovery.hpp`: the partition shrinks over the
/// survivors and the dead leaves are restored from in-memory buddy
/// replicas (kept on the SFC-neighbor locality) or the newest valid
/// checkpoint.

#include <cstdint>
#include <memory>
#include <vector>

#include "app/step_core.hpp"
#include "dist/recovery.hpp"
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

  bool measuring() const { return measure || every > 0; }
};

struct dist_options {
  int num_localities = 2;
  /// The paper's §VII-B same-locality direct-access optimization.
  bool local_optimization = true;
  /// Route every serialized slab through the reliable transport layer
  /// (sequencing/ack/retry).  Off = a send stores each slab straight into
  /// the receiving face's slot, kept as the baseline for measuring the
  /// robustness tax (bench_fig8).
  bool reliable_transport = true;
  transport_options transport{};
  /// Keep an in-memory buddy replica of every leaf's state on the next
  /// surviving locality along the SFC — the online recovery source.
  bool buddy_replication = true;
  /// Measured-cost dynamic load rebalancing with live leaf migration.
  lb_options lb{};
  app::sim_options sim{};
};

struct exchange_stats {
  std::uint64_t local_direct = 0;      ///< same-locality faces copied directly
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

  /// Checkpoint restore's last step (dist/checkpoint.hpp): overwrite the
  /// exchange statistics after step_core::restore_state() has re-exchanged
  /// the ghosts, so the checkpointed counters win.
  void restore_stats(const exchange_stats& st);

  /// Live locality-failure recovery (implemented in recovery.cpp): mark
  /// \p dead localities dead, shrink the partition over the survivors,
  /// restore the lost leaves from buddy replicas — or roll the whole
  /// cluster back to the newest valid checkpoint in \p ckpt_dir when a
  /// replica is unavailable — open a fresh transport epoch, and re-derive
  /// ghosts, gravity and dt.  Throws octo::error when neither
  /// recovery source exists.
  void recover_locality_failure(const std::vector<int>& dead,
                                const std::string& ckpt_dir = {});

  /// Measured-cost rebalance attempt (implemented in rebalance.cpp):
  /// recompute the SFC partition over the live localities from the cost
  /// model's EWMA, and — only when the measured max/mean imbalance exceeds
  /// the projection by `lb.min_gain` — live-migrate every leaf whose owner
  /// changes (checkpoint-format pack, reliable transport, unpack), open a
  /// fresh transport epoch, and re-derive ghosts/gravity/dt exactly as
  /// recovery does.  Returns true when a rebalance was applied.
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

 private:
  /// A sealed, serialized face slab: one message.
  using slab_bytes = std::vector<std::uint8_t>;
  /// Leaf \c leaf's ghost face \c dir, filled from neighbor \c from.
  struct face_link {
    index_t leaf;
    int dir;
    index_t from;
  };
  /// One step graph's link state: its slab counts (added lock-free by the
  /// send tasks; the direct copies as the link tasks are added) and its
  /// message slots, one per link.
  struct link_step;

  // --- step-core hooks ---------------------------------------------------
  void on_layout() override;
  void on_initialized() override;
  /// Armed node-death trigger, then the liveness check: fires any armed
  /// locality kill, scrubs the victim's leaves, and throws
  /// locality_failure naming every locality still counted alive that the
  /// fault injector reports dead — at once, with no deadline.
  void before_step() override;
  /// Rebalance check every lb.every steps, else refresh the replicas.
  void after_step() override;
  void finish_step_record(apex::step_record& rec) override;
  void save_step_entry() override { entry_stats_ = stats_; }
  void restore_step_entry() override { stats_ = entry_stats_; }
  int num_localities() const override { return dopt_.num_localities; }
  int leaf_owner(index_t leaf) const override { return part_.owner(leaf); }
  void open_links() override;
  void close_links(bool ok) override;
  void add_link_tasks(amt::task_graph& g) override;
  /// A leaf-leaf face, unless both leaves share a locality and
  /// local_optimization is on (the copy task fills that one).
  bool linked(index_t n, index_t nb) const override;

  /// Send links [\p begin, \p end), all from one leaf, as sealed,
  /// serialized slabs into their slots of \p ls: through the transport,
  /// whose delivery stores each, or straight without the transport.
  void send_faces(std::size_t begin, std::size_t end,
                  const std::shared_ptr<link_step>& ls);
  /// Unseal the slab \p bytes into leaf \p l's ghost face \p d.
  void unpack_face(index_t l, int d, slab_bytes bytes);
  /// Fold one exchange's slab counts into stats_ and the apex counters.
  void add_counts(const link_step& ls);

  /// On every partition change and failed exchange: renumber the links and
  /// open a fresh transport epoch, so frames still in flight are dropped,
  /// not delivered into an exchange.
  void reset_links();
  /// Refresh the buddy replicas (leaf state copied to the next surviving
  /// locality along the SFC) after a completed step.
  void update_replicas();
  /// Next surviving locality after \p loc on the locality ring.
  int buddy_of(int loc) const;

  dist_options dopt_;
  tree::partition_result part_;

  /// The linked faces by sender (a link's id is its index here), their ids
  /// by receiver, and the leaf-leaf faces the copy task fills (§VII-B).
  std::vector<face_link> links_;
  std::vector<std::size_t> inbound_;
  std::uint64_t direct_faces_ = 0;

  /// Made once, by locality count: it keeps its monotonic statistics
  /// across re-initialize(), rebalances and recoveries.
  std::unique_ptr<transport> transport_;
  /// The current graph's link state.  Shared with its send tasks and
  /// their deliveries, so a frame delivered after its graph ended (a send
  /// that gave up) lands in that graph's slots, not in freed memory.
  std::shared_ptr<link_step> link_step_;

  /// Liveness and recovery state.
  std::vector<char> locality_alive_;
  /// Buddy replicas: one owned-cell block (grid::subgrid::save_owned) per
  /// leaf slot, and the locality "holding" it (the owner's SFC successor).
  std::vector<real> replicas_;
  std::vector<int> replica_holder_;
  /// Recovery totals folded into the next step_record.
  std::uint64_t pending_localities_lost_ = 0;
  std::uint64_t pending_leaves_migrated_ = 0;
  transport_stats last_transport_stats_{};

  /// Dynamic load rebalancing state (dist/rebalance.cpp).
  std::uint64_t rebalance_count_ = 0;
  std::uint64_t rebalances_skipped_ = 0;

  exchange_stats stats_;
  /// stats_ at the SDC snapshot: a retried step counts its slabs once.
  exchange_stats entry_stats_;
};

}  // namespace octo::dist
