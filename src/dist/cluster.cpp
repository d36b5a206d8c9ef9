#include "dist/cluster.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <utility>

#include "amt/future.hpp"
#include "apex/apex.hpp"
#include "apex/flow.hpp"
#include "apex/trace.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "dist/serialize.hpp"

namespace octo::dist {

cluster::cluster(const scen::scenario& sc, dist_options opt,
                 exec::amt_space space)
    : step_core(sc, opt.sim, space, /*leaf_links=*/true, opt.lb.measuring(),
                opt.lb.ewma_alpha),
      dopt_(std::move(opt)) {
  OCTO_CHECK(dopt_.num_localities >= 1);
  // OCTO_TRACE naming an existing directory selects the distributed-trace
  // workflow (a file path keeps the plain single-trace behaviour the apex
  // bootstrap already handles).
  if (const auto env = config::env("OCTO_TRACE")) {
    std::error_code ec;
    if (std::filesystem::is_directory(*env, ec)) {
      std::int64_t skew_ns = 2'000'000;
      if (const auto sk = config::env("OCTO_TRACE_SKEW_US")) {
        const char* b = sk->data();
        const char* e = b + sk->size();
        long long us = -1;
        const auto [end, err] = std::from_chars(b, e, us);
        if (err != std::errc{} || end != e || us < 0 ||
            us > std::numeric_limits<std::int64_t>::max() / 1000)
          throw error("OCTO_TRACE_SKEW_US='" + *sk +
                      "' is not a non-negative integer of microseconds");
        skew_ns = static_cast<std::int64_t>(us) * 1000;
      }
      set_trace_dir(*env, skew_ns);
    }
  }
}

cluster::~cluster() {
  if (trace_dir_.empty() || !initialized_) return;
  try {
    write_trace_bundle(trace_dir_);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist::cluster: trace bundle failed: %s\n",
                 e.what());
  }
}

void cluster::set_trace_dir(const std::string& dir,
                            std::int64_t skew_ns_per_locality) {
  trace_dir_ = dir;
  trace_skew_ns_ = skew_ns_per_locality;
  auto& tr = apex::trace::instance();
  // Record spans, but route the single-file writer away from the
  // directory: the bundle writer below owns every file in there.
  tr.enable("");
  auto& fr = apex::flow_recorder::instance();
  for (int k = 0; k < dopt_.num_localities; ++k)
    fr.set_clock_skew(static_cast<std::uint32_t>(k),
                      skew_ns_per_locality * k);
  apex::flow_recorder::set_enabled(true);
}

merge_result cluster::write_trace_bundle(const std::string& dir) {
  const auto flows = apex::flow_recorder::instance().snapshot();
  std::vector<std::string> files;
  files.reserve(static_cast<std::size_t>(dopt_.num_localities));
  for (int k = 0; k < dopt_.num_localities; ++k) {
    std::string path = dir + "/trace.loc" + std::to_string(k) + ".json";
    std::ofstream out(path, std::ios::trunc);
    OCTO_CHECK_MSG(out.good(), "cannot write " + path);
    // The in-process cluster shares one worker pool; its span timelines
    // are written once, under locality 0's pid.
    write_locality_trace(out, k, flows, /*include_spans=*/k == 0);
    files.push_back(std::move(path));
  }
  const merge_result res = merge_traces(files, dir + "/trace.merged.json");
  std::ofstream rep(dir + "/cluster_report.txt", std::ios::trunc);
  if (rep.good()) write_cluster_report(rep);
  return res;
}

void cluster::write_cluster_report(std::ostream& os) const {
  const auto flows = apex::flow_recorder::instance().snapshot();
  const auto nloc = static_cast<std::size_t>(dopt_.num_localities);
  os << "=== cluster report (" << dopt_.num_localities << " localities, "
     << live_localities() << " alive, " << steps_ << " steps) ===\n";

  struct loc_traffic {
    std::uint64_t sent = 0, received = 0, bytes_out = 0;
  };
  std::vector<loc_traffic> traffic(nloc);
  for (const auto& f : flows) {
    if (f.src_loc < nloc) {
      ++traffic[f.src_loc].sent;
      traffic[f.src_loc].bytes_out += f.bytes;
    }
    if (f.dst_loc < nloc) ++traffic[f.dst_loc].received;
  }
  const auto offsets = offset_est_.offsets(nloc);
  for (std::size_t k = 0; k < nloc; ++k) {
    os << "locality " << k << ": " << traffic[k].sent << " slabs out ("
       << traffic[k].bytes_out << " B), " << traffic[k].received
       << " in; clock skew " << trace_skew_ns_ * static_cast<std::int64_t>(k)
       << " ns, estimated offset " << offsets[k] << " ns\n";
  }
  os << "flow samples: " << flows.size() << " (" << offset_est_.samples()
     << " used for offset estimation)\n";

  const transport_stats ts = transport_statistics();
  os << "transport: " << ts.messages << " messages, " << ts.retries
     << " retries, " << ts.timeouts << " timeouts, " << ts.dups_dropped
     << " dups dropped\n";
  os << "exchange: " << stats_.local_direct << " direct / "
     << stats_.local_serialized << " local-serialized / "
     << stats_.remote_messages << " remote slabs, "
     << stats_.bytes_serialized << " B serialized\n";

  os << "--- aggregated apex counters (all localities) ---\n";
  apex::registry::instance().report(os);
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
  monitor_.reset(dopt_.num_localities);
  rebalance_count_ = 0;
  rebalances_skipped_ = 0;
  rebuild_channels();
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

void cluster::rebuild_channels() {
  // Break stragglers first: pending receives fail with broken_channel,
  // delayed in-flight frames deliver into a closed channel and drop.
  for (auto& ch : channels_)
    if (ch) ch->close();
  const std::size_t nleaves = topo_->leaves().size();
  const std::size_t n = nleaves * NNEIGHBOR;
  channels_.clear();
  channels_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    channels_.push_back(std::make_shared<amt::channel<boundary_msg>>());
  if (dopt_.reliable_transport) {
    // One extra link per leaf slot past the boundary range carries that
    // leaf's migration payload during a rebalance.
    if (!transport_)
      transport_ = std::make_unique<transport>(
          static_cast<int>(n + nleaves), dopt_.transport, space_.runtime());
    else
      // Keep the transport (and its monotonic statistics — recreating it
      // here made the per-step stats deltas wrap after a rebuild) and open
      // a fresh link generation instead: sequence numbers restart at 0 and
      // any delayed pre-rebuild frame is dropped by its stale epoch rather
      // than colliding with the new generation's seq 0.
      transport_->advance_epoch();
  }
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
  if (replicas_.empty()) {
    replicas_.reserve(leaves.size());
    for (const index_t l : leaves)
      replicas_.emplace_back(topo_->center(l), topo_->cell_width(l));
  }
  replica_holder_.assign(leaves.size(), 0);
  auto& rt = space_.runtime();
  std::vector<amt::future<void>> futs;
  futs.reserve(leaves.size());
  for (std::size_t s = 0; s < leaves.size(); ++s) {
    replica_holder_[s] = buddy_of(part_.owner(leaves[s]));
    futs.push_back(amt::async(
        [this, s, l = leaves[s]] { replicas_[s] = grids_[l]; }, rt));
  }
  amt::wait_all(futs, rt);
}

// ---------------------------------------------------------------------------
// Leaf-face links: channels, serialization, transport
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

/// True when leaf \p l has at least one leaf neighbor (a link to send on).
bool has_leaf_links(const tree::topology& topo, index_t l) {
  for (int d = 0; d < NNEIGHBOR; ++d) {
    const index_t nb = topo.neighbor(l, d);
    if (nb != tree::invalid_node && topo.node(nb).leaf) return true;
  }
  return false;
}
}  // namespace

struct cluster::xfer_counts {
  std::atomic<std::uint64_t> ld{0}, ls{0}, rm{0}, by{0};
};

struct cluster::link_step {
  xfer_counts counts;
  std::atomic<bool> failed{false};
  std::vector<std::shared_ptr<amt::channel<boundary_msg>>> channels;
};

void cluster::send_faces(index_t l, xfer_counts& counts) {
  const apex::scoped_trace_span span("dist.exchange.send");
  const apex::cost_scope cost(cost_model_ptr(),
                              static_cast<std::size_t>(leaf_slot_[l]));
  for (int d = 0; d < NNEIGHBOR; ++d) {
    const index_t nb = topo_->neighbor(l, d);
    if (nb == tree::invalid_node || !topo_->node(nb).leaf) continue;
    // The receiver nb sees us in the opposite direction.
    const int rd = tree::dir_opposite(d);
    const std::size_t link = link_of(nb, rd);
    auto& ch = *channels_[link];
    const bool same_loc = part_.owner(l) == part_.owner(nb);
    if (same_loc && dopt_.local_optimization) {
      boundary_msg msg;
      msg.direct = true;
      msg.src = &grids_[l];
      ch.send(std::move(msg));
      counts.ld.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::vector<real> slab;
    grids_[l].pack_for_neighbor(d, slab);
    oarchive ar;
    ar.put(static_cast<std::int32_t>(rd));
    ar.put_vector(slab);
    ar.seal();
    std::vector<std::uint8_t> bytes = ar.take();
    // Transit-corruption hook: may bit-flip or truncate the sealed buffer;
    // the receiver's unseal() must catch it.
    if (fault::injector::instance().ghost_slab_hook(bytes))
      apex::registry::instance().add(counters().faults);
    counts.by.fetch_add(bytes.size(), std::memory_order_relaxed);
    (same_loc ? counts.ls : counts.rm).fetch_add(1, std::memory_order_relaxed);
    if (transport_) {
      // Reliable path: sequence/ack/retry through the lossy network;
      // blocks (helping the scheduler) until acked.
      auto sink = channels_[link];
      transport_->send(static_cast<int>(link), part_.owner(l),
                       part_.owner(nb), std::move(bytes),
                       [sink](std::vector<std::uint8_t> payload) {
                         boundary_msg msg;
                         msg.bytes = std::move(payload);
                         sink->send(std::move(msg));
                       });
    } else {
      boundary_msg msg;
      msg.bytes = std::move(bytes);
      ch.send(std::move(msg));
    }
  }
}

void cluster::unpack_face(index_t l, int d, boundary_msg msg) {
  const apex::scoped_trace_span span("dist.exchange.unpack");
  const apex::cost_scope cost(cost_model_ptr(),
                              static_cast<std::size_t>(leaf_slot_[l]));
  if (msg.direct) {
    grids_[l].copy_ghost_direct(d, *msg.src);
    return;
  }
  iarchive ar(std::move(msg.bytes));
  ar.unseal("serialized ghost slab");
  const auto rd = ar.get<std::int32_t>();
  OCTO_CHECK(rd == d);
  const auto slab = ar.get_vector<real>();
  grids_[l].unpack_from_neighbor(d, slab.data(),
                                 static_cast<index_t>(slab.size()));
}

void cluster::add_counts(const xfer_counts& counts) {
  stats_.local_direct += counts.ld.load();
  stats_.local_serialized += counts.ls.load();
  stats_.remote_messages += counts.rm.load();
  stats_.bytes_serialized += counts.by.load();
  // Mirror this exchange's deltas into apex counters so the Fig. 8
  // traffic split is visible in any registry report.
  auto& reg = apex::registry::instance();
  reg.add(counters().local_direct, counts.ld.load());
  reg.add(counters().local_serialized, counts.ls.load());
  reg.add(counters().remote, counts.rm.load());
  reg.add(counters().bytes, counts.by.load());
}

void cluster::open_links() {
  link_step_ = std::make_shared<link_step>();
  link_step_->channels = channels_;
}

void cluster::watch_task(const sf& f) {
  // Failure latch: the first task that resolves with an exception closes
  // every channel, so arrival futures whose message will now never be sent
  // resolve (with broken_channel) and the drain cannot hang.  The latch
  // holds its own shared_ptr copies so a late close hits live channel
  // objects even after rebuild_channels().
  f.state()->add_continuation([ls = link_step_, st = f.state()] {
    if (st->has_exception() && !ls->failed.exchange(true))
      for (const auto& ch : ls->channels) ch->close();
  });
}

void cluster::close_links(bool ok) {
  if (ok)
    add_counts(link_step_->counts);
  else
    rebuild_channels();
  link_step_.reset();
}

void cluster::add_link_tasks(step_graph_state& g) {
  auto& rt = space_.runtime();
  const auto& leaves = topo_->leaves();

  // Senders: one task per leaf with leaf-leaf links.  The edge on the
  // previous stage's send keeps every link's channel FIFO aligned with
  // stage order — without it a fast stage-s send could pair with the
  // receiver's stage s-1 receive.
  for (const index_t l : leaves) {
    const auto li = static_cast<std::size_t>(l);
    if (!has_leaf_links(*topo_, l)) continue;
    auto deps = g.graph.edges();
    deps.push_back(g.H[li]);
    if (g.prevSend[li].valid()) deps.push_back(g.prevSend[li]);
    g.SEND[li] = g.graph.add(
        "send", apex::access_set{}.r(apex::rgn::field, l),
        [this, l, ls = link_step_] { send_faces(l, ls->counts); },
        std::move(deps));
  }

  // Receivers: the channel arrival resolves a per-link future (stash via
  // inline continuation), and the unpack task fires on the arrival plus
  // its WAR edges (barriered: plus the copy join) — transport acks and
  // unpacks flow with no exchange barrier.  Receives are issued in stage
  // order here, matching the per-link FIFO.
  auto slots = std::make_shared<std::vector<boundary_msg>>(g.UNP.size());
  for (const index_t l : leaves) {
    const auto li = static_cast<std::size_t>(l);
    for (int d = 0; d < NNEIGHBOR; ++d) {
      const index_t nb = topo_->neighbor(l, d);
      if (nb == tree::invalid_node || !topo_->node(nb).leaf) continue;
      const std::size_t link = link_of(l, d);
      sf arrival = channels_[link]->receive().then_inline(
          [slots, link](boundary_msg msg) { (*slots)[link] = std::move(msg); },
          rt);
      auto deps = g.graph.edges();
      deps.push_back(g.H[li]);  // WAR: hydro read this ghost face
      if (g.stage > 0) {
        if (g.prevUnp[link].valid()) deps.push_back(g.prevUnp[link]);
        for (const index_t f : g.pclients[li])
          deps.push_back(g.prevP[static_cast<std::size_t>(f)]);
      }
      // Footprint: the ghost-face write only.  A direct-token unpack also
      // reads the neighbor's owned cells, but that read is ordered by the
      // channel send/receive — a happens-before edge the recorded graph
      // cannot see (the arrival resolves outside any dataflow node) — so
      // declaring it would be a guaranteed false positive.
      g.UNP[link] = g.graph.add(
          "unpack", apex::access_set{}.w(apex::rgn::ghost, l, d),
          [this, l, d, slots, link] {
            unpack_face(l, d, std::move((*slots)[link]));
          },
          std::move(deps), std::move(arrival));
    }
  }
}

// ---------------------------------------------------------------------------
// Step hooks: heartbeat, replicas, rebalancing, record columns
// ---------------------------------------------------------------------------

void cluster::before_step() {
  // Armed node-death trigger (OCTO_FAULT_STEP) — before any state
  // mutation, so a rollback sees a consistent cluster.  Likewise the
  // locality kill + heartbeat check: detection precedes the stage-0 copy,
  // so recovery sees every survivor at the end of the previous step (in
  // dataflow mode the graph's deterministic drain then surfaces any
  // failure the heartbeat round missed).
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
  // Heartbeat round: every locality that is actually alive beats; the
  // monitor then waits out the deadline for anyone silent.
  monitor_.arm_step();
  for (int loc = 0; loc < dopt_.num_localities; ++loc)
    if (locality_alive_[static_cast<std::size_t>(loc)] &&
        inj.locality_alive(loc))
      monitor_.beat(loc);
  auto dead = monitor_.overdue(dopt_.heartbeat_deadline_ms);
  if (dead.empty() && monitor_.window_suspended()) {
    // A suspended window (post-rebalance/recovery quiescence) skips the
    // deadline so a slow survivor is not misdeclared — but a locality
    // whose *connections* are already refused is known dead, not slow;
    // letting the step proceed would fail mid-exchange with a
    // transport_error the recovery driver cannot attribute.
    for (int loc = 0; loc < dopt_.num_localities; ++loc)
      if (locality_alive_[static_cast<std::size_t>(loc)] &&
          !inj.locality_alive(loc))
        dead.push_back(loc);
  }
  if (!dead.empty()) throw locality_failure(dead);
}

void cluster::after_sdc_retry() {
  // A successful retry took extra wall time the adaptive heartbeat
  // deadline never observed; don't let the next round misread the stall
  // as a locality death.
  monitor_.suspend_next_window();
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
  // Feed the adaptive heartbeat deadline with this step's wall time.
  monitor_.observe_step_ms(rec.step_seconds * 1e3);

  // Refine the clock-offset estimate with this step's fresh flow samples:
  // the per-link minima only sharpen as more slabs transit.
  if (apex::flow_recorder::enabled()) {
    const auto flows = apex::flow_recorder::instance().snapshot();
    for (std::size_t i = flows_consumed_; i < flows.size(); ++i)
      offset_est_.observe(flows[i]);
    flows_consumed_ = flows.size();
  }
}

void cluster::restore_state(real time, std::int64_t step,
                            const exchange_stats& st) {
  step_core::restore_state(time, step);
  // Last, so the checkpointed counters win over the restore exchange.
  stats_ = st;
}

}  // namespace octo::dist
