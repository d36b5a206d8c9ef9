#include "dist/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

#include "amt/task_graph.hpp"
#include "apex/apex.hpp"
#include "apex/trace.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "dist/serialize.hpp"

namespace octo::dist {

cluster::cluster(const scen::scenario& sc, dist_options opt,
                 exec::amt_space space)
    : step_core(sc, opt.sim, space, opt.lb.measuring()),
      dopt_(std::move(opt)) {
  OCTO_CHECK(dopt_.num_localities >= 1);
  if (dopt_.reliable_transport)
    transport_ = std::make_unique<transport>(
        dopt_.num_localities, dopt_.transport, space_.runtime());
}

void cluster::on_layout() {
  // Seed the first partition with the static cost estimate (cells x depth)
  // rather than an empty cost vector: uniform-cost splits hand the refined
  // region's concentrated work to whichever locality the Morton curve
  // visits last, and until the first rebalance that misjudgment is the
  // whole run's balance.
  part_ = tree::partition_sfc(*topo_, dopt_.num_localities,
                              tree::static_leaf_costs(*topo_));
  locality_alive_.assign(static_cast<std::size_t>(dopt_.num_localities), 1);
  rebalance_count_ = 0;
  rebalances_skipped_ = 0;
  reset_links();
  pending_localities_lost_ = 0;
  pending_leaves_migrated_ = 0;
  // The transport survives re-initialize() (only its epoch advances), so
  // baseline the per-step deltas on its current cumulative counters.
  last_transport_stats_ = transport_statistics();
  stats_ = exchange_stats{};
  replicas_.clear();
  replica_holder_.clear();
}

void cluster::on_initialized() { update_replicas(); }

void cluster::reset_links() {
  // Links by sender (leaf order, faces ascending) are the send tasks and
  // their slot writes; inbound_ orders the unpacks by receiver the same way
  // (leaves() ascends by node index).
  links_.clear();
  direct_faces_ = 0;
  for (const index_t l : topo_->leaves())
    for (int d = 0; d < NFACE; ++d) {
      const index_t nb = topo_->neighbor(l, d);
      if (nb == tree::invalid_node || !topo_->node(nb).leaf) continue;
      if (linked(nb, l))
        links_.push_back({nb, tree::dir_opposite(d), l});
      else
        ++direct_faces_;
    }
  inbound_.resize(links_.size());
  std::iota(inbound_.begin(), inbound_.end(), 0);
  std::sort(inbound_.begin(), inbound_.end(), [this](auto a, auto b) {
    return std::pair(links_[a].leaf, links_[a].dir) <
           std::pair(links_[b].leaf, links_[b].dir);
  });

  if (transport_) transport_->advance_epoch();
}

transport_stats cluster::transport_statistics() const {
  return transport_ ? transport_->stats() : transport_stats{};
}

int cluster::live_localities() const {
  int n = 0;
  for (const char a : locality_alive_) n += a != 0;
  return n;
}

int cluster::buddy_of(int loc) const {
  const int nloc = dopt_.num_localities;
  for (int step = 1; step < nloc; ++step) {
    const int cand = (loc + step) % nloc;
    if (locality_alive_[static_cast<std::size_t>(cand)]) return cand;
  }
  return loc;  // sole survivor: replica stays with the owner
}

void cluster::update_replicas() {
  if (!dopt_.buddy_replication) return;
  const apex::scoped_trace_span span("dist.update_replicas");
  const auto& leaves = topo_->leaves();
  constexpr auto block = static_cast<std::size_t>(grid::subgrid::owned_size);
  replicas_.resize(leaves.size() * block);
  replica_holder_.assign(leaves.size(), 0);
  for (std::size_t s = 0; s < leaves.size(); ++s)
    replica_holder_[s] = buddy_of(part_.owner(leaves[s]));
  amt::run_each(space_.runtime(), "dist.replica.leaf", leaves.size(),
                [&](std::size_t s) {
                  grids_[leaves[s]].save_owned(replicas_.data() + s * block);
                });
}

// ---------------------------------------------------------------------------
// Leaf-face links: message slots, serialization, transport
// ---------------------------------------------------------------------------

namespace {
/// Apex counters mirroring exchange_stats — the measured series behind
/// Fig. 8 (serialized-vs-direct ghost-slab traffic).
struct exchange_counters {
  apex::metric_id local_direct =
      apex::registry::instance().counter("dist.local_direct_slabs");
  apex::metric_id local_serialized =
      apex::registry::instance().counter("dist.local_serialized_slabs");
  apex::metric_id remote =
      apex::registry::instance().counter("dist.remote_messages");
  apex::metric_id bytes =
      apex::registry::instance().counter("dist.bytes_serialized");
  apex::metric_id faults =
      apex::registry::instance().counter("fault.injected");
};
exchange_counters& counters() {
  static exchange_counters c;
  return c;
}
}  // namespace

struct cluster::link_step {
  std::uint64_t local_direct = 0;
  std::atomic<std::uint64_t> local_serialized{0}, remote{0}, bytes{0};
  std::vector<slab_bytes> slots;
};

bool cluster::linked(index_t n, index_t nb) const {
  return topo_->node(n).leaf && topo_->node(nb).leaf &&
         !(dopt_.local_optimization && part_.owner(n) == part_.owner(nb));
}

void cluster::send_faces(std::size_t begin, std::size_t end,
                         const std::shared_ptr<link_step>& ls) {
  const index_t l = links_[begin].from;
  const apex::cost_scope cost(cost_model_ptr(),
                              static_cast<std::size_t>(leaf_slot_[l]));
  for (std::size_t k = begin; k < end; ++k) {
    // The receiver nb sees us in the opposite direction rd.
    const auto [nb, rd, from] = links_[k];
    std::vector<real> slab;
    grids_[l].pack_for_neighbor(tree::dir_opposite(rd), slab);
    oarchive ar;
    ar.put(static_cast<std::int32_t>(rd));
    ar.put_vector(slab);
    ar.seal();
    std::vector<std::uint8_t> bytes = ar.take();
    // Transit-corruption hook: may bit-flip or truncate the sealed buffer;
    // the receiver's unseal() must catch it.
    if (fault::injector::instance().ghost_slab_hook(bytes))
      apex::registry::instance().add(counters().faults);
    ls->bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
    (part_.owner(l) == part_.owner(nb) ? ls->local_serialized : ls->remote)
        .fetch_add(1, std::memory_order_relaxed);
    if (transport_) {
      // Reliable path: sequence/ack/retry through the lossy network;
      // blocks (helping the scheduler) until the delivery has stored the
      // slab and been acked.
      transport_->send(static_cast<int>(k), part_.owner(l), part_.owner(nb),
                       std::move(bytes), [ls, k](slab_bytes payload) {
                         ls->slots[k] = std::move(payload);
                       });
    } else {
      ls->slots[k] = std::move(bytes);
    }
  }
}

void cluster::unpack_face(index_t l, int d, slab_bytes bytes) {
  const apex::cost_scope cost(cost_model_ptr(),
                              static_cast<std::size_t>(leaf_slot_[l]));
  iarchive ar(std::move(bytes));
  ar.unseal("serialized ghost slab");
  const auto rd = ar.get<std::int32_t>();
  OCTO_CHECK(rd == d);
  const auto slab = ar.get_vector<real>();
  grids_[l].unpack_from_neighbor(d, slab.data(),
                                 static_cast<index_t>(slab.size()));
}

void cluster::add_counts(const link_step& ls) {
  stats_.local_direct += ls.local_direct;
  stats_.local_serialized += ls.local_serialized.load();
  stats_.remote_messages += ls.remote.load();
  stats_.bytes_serialized += ls.bytes.load();
  // Mirror this exchange's deltas into apex counters so the Fig. 8
  // traffic split is visible in any registry report.
  auto& reg = apex::registry::instance();
  reg.add(counters().local_direct, ls.local_direct);
  reg.add(counters().local_serialized, ls.local_serialized.load());
  reg.add(counters().remote, ls.remote.load());
  reg.add(counters().bytes, ls.bytes.load());
}

void cluster::open_links() {
  link_step_ = std::make_shared<link_step>();
  link_step_->slots.resize(links_.size());
}

void cluster::close_links(bool ok) {
  if (ok)
    add_counts(*link_step_);
  else
    reset_links();
  link_step_.reset();
}

void cluster::add_link_tasks(amt::task_graph& g) {
  link_step_->local_direct += direct_faces_;

  // Senders: one task per leaf with a linked face.  It writes the slot of
  // each outbound link, so a stage-s send waits for the stage s-1 unpack of
  // each of those links (WAR): a slot holds one stage's slab at a time.
  for (std::size_t b = 0, e = 0; b < links_.size(); b = e) {
    const index_t l = links_[b].from;
    auto fp = g.footprint();
    fp.r(apex::rgn::field, l);
    for (e = b; e < links_.size() && links_[e].from == l; ++e)
      fp.w(apex::rgn::slot, static_cast<std::int64_t>(e));
    g.add("dist.exchange.send", std::move(fp),
          [this, b, e, ls = link_step_] { send_faces(b, e, ls); });
  }
  g.join();

  // Receivers: one unpack per linked face, reading the slot its send
  // filled (transport::send returns only after the delivery), with no
  // exchange barrier in dataflow mode.  A failed send fails its unpacks
  // through the same edge.
  for (const std::size_t k : inbound_) {
    const auto [l, d, from] = links_[k];
    g.add("dist.exchange.unpack",
          g.footprint()
              .r(apex::rgn::slot, static_cast<std::int64_t>(k))
              .w(apex::rgn::ghost, l, d),
          [this, l, d, k, ls = link_step_] {
            unpack_face(l, d, std::move(ls->slots[k]));
          });
  }
}

// ---------------------------------------------------------------------------
// Step hooks: liveness, replicas, rebalancing, record columns
// ---------------------------------------------------------------------------

void cluster::before_step() {
  // Armed node-death trigger (arm_step_failure) — before any state
  // mutation, so a rollback sees a consistent cluster.  Likewise the
  // locality kill + liveness check: detection precedes the stage-0 copy,
  // so recovery sees every survivor at the end of the previous step.
  auto& inj = fault::injector::instance();
  inj.maybe_fail_step();
  const int victim =
      inj.locality_kill_hook(static_cast<std::uint64_t>(steps_) + 1);
  if (victim >= 0 && victim < dopt_.num_localities &&
      locality_alive_[static_cast<std::size_t>(victim)]) {
    // The node is gone and its memory with it: scrub the victim's leaves
    // so recovery provably restores them from a replica or checkpoint
    // rather than silently reusing in-process state.
    for (const index_t l :
         part_.leaves_of_locality[static_cast<std::size_t>(victim)])
      grids_[l].fill_all(std::numeric_limits<real>::quiet_NaN());
  }
  // A locality can die only through the injector, so its liveness is the
  // whole answer: every locality still counted alive that the injector
  // reports dead fails the step now, with no deadline to wait out.
  std::vector<int> dead;
  for (int loc = 0; loc < dopt_.num_localities; ++loc)
    if (locality_alive_[static_cast<std::size_t>(loc)] &&
        !inj.locality_alive(loc))
      dead.push_back(loc);
  if (!dead.empty()) throw locality_failure(dead);
}

void cluster::after_step() {
  // Rebalance check rides the step boundary (every K steps): the measured
  // EWMA is fresh, no exchange is in flight, and maybe_rebalance() leaves
  // the cluster exactly where a completed step does (replicas included).
  bool rebalanced = false;
  if (dopt_.lb.every > 0 && steps_ % dopt_.lb.every == 0)
    rebalanced = maybe_rebalance();
  if (!rebalanced) update_replicas();
}

void cluster::finish_step_record(apex::step_record& rec) {
  // Transport counters are emitted as this-step deltas so retries/timeouts
  // line up with cells/second; recovery totals accumulated since the last
  // record ride along.
  const transport_stats ts = transport_statistics();
  rec.transport_retries = ts.retries - last_transport_stats_.retries;
  rec.transport_timeouts = ts.timeouts - last_transport_stats_.timeouts;
  rec.transport_dups_dropped =
      ts.dups_dropped - last_transport_stats_.dups_dropped;
  last_transport_stats_ = ts;
  rec.localities_lost = pending_localities_lost_;
  rec.leaves_migrated = pending_leaves_migrated_;
  pending_localities_lost_ = 0;
  pending_leaves_migrated_ = 0;
  rec.rebalance_count = rebalance_count_;
  if (cost_model_.active() && cost_model_.steps_observed() > 0)
    rec.max_over_mean = static_cast<double>(
        tree::cost_max_over_mean(*topo_, part_, cost_model_.costs()));
}

void cluster::restore_stats(const exchange_stats& st) { stats_ = st; }

}  // namespace octo::dist
