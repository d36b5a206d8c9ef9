#include "apex/apex.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace octo::apex {

// Every counter/timer name registered from src/, one entry per line in
// the exact form  {"name", "doc"},  — octo_lint and the schema-sync test
// parse this table textually.  Names ending in '*' are dynamic prefixes.
const std::vector<metric_name_info>& metric_registry() {
  static const std::vector<metric_name_info> table = {
      {"amt.tasks_executed", "tasks run by the worker pool"},
      {"amt.steals", "successful work steals"},
      {"amt.failed_steals", "steal attempts that found nothing"},
      {"amt.external_posts", "tasks posted from non-worker threads"},
      {"amt.helping_runs", "tasks run by a blocked waiter (helping)"},
      {"amt.worker_idle_us", "cumulative worker idle time"},
      {"amt.queue_high_water", "max per-worker queue depth seen"},
      {"amt.max_pending", "max in-flight task count seen"},
      {"app.exchange_ghosts", "ghost-exchange phase wall time"},
      {"app.solve_gravity", "gravity-solve phase wall time"},
      {"app.hydro_stage", "hydro RK-stage wall time"},
      {"app.step", "whole-step wall time"},
      {"app.steps", "simulation steps completed"},
      {"ckpt.write", "checkpoint serialize+write wall time"},
      {"ckpt.restore", "checkpoint restore wall time"},
      {"ckpt.rollbacks", "restores forced by a failed step"},
      {"ckpt.written", "checkpoints written"},
      {"dag.crit_path_us", "recorded-step critical path length"},
      {"dag.nodes", "recorded dataflow nodes per step"},
      {"dag.edges", "recorded dataflow edges per step"},
      {"dag.crit.*", "per-kernel-class time on the critical path"},
      {"dist.local_direct_slabs", "same-locality ghost faces copied directly"},
      {"dist.local_serialized_slabs", "ghost slabs serialized locally"},
      {"dist.remote_messages", "ghost slabs sent via the transport"},
      {"dist.bytes_serialized", "ghost bytes serialized"},
      {"fault.injected", "faults injected by the fault plan"},
      {"lb.rebalances", "load rebalances performed"},
      {"lb.leaves_moved", "leaves migrated by rebalancing"},
      {"lb.skipped", "rebalance opportunities below threshold"},
      {"lb.rebalance", "rebalance wall time"},
      {"lb.cost_steps", "steps folded into the measured cost model"},
      {"race.audits", "dataflow steps audited for unordered conflicts"},
      {"race.conflicts", "unordered conflicting task pairs detected"},
      {"recovery.localities_lost", "locality failures recovered from"},
      {"recovery.leaves_migrated", "leaves re-homed during recovery"},
      {"recovery.recover", "recovery wall time"},
      {"sdc.audits", "invariant audits executed"},
      {"sdc.detected", "invariant violations detected"},
      {"sdc.retries", "step retries after a detected violation"},
      {"sdc.rollbacks", "checkpoint rollbacks after repeated violations"},
      {"sdc.audit", "invariant audit wall time"},
      {"transport.messages", "messages sent by the in-process transport"},
      {"transport.retries", "message retransmissions"},
      {"transport.timeouts", "ack timeouts"},
      {"transport.dups_dropped", "duplicate deliveries dropped"},
      {"transport.acks", "acks delivered"},
      {"transport.epoch_dropped", "stale-epoch messages dropped"},
  };
  return table;
}

bool metric_registered(const std::string& name) {
  for (const auto& e : metric_registry()) {
    const std::string entry = e.name;
    if (!entry.empty() && entry.back() == '*') {
      if (name.rfind(entry.substr(0, entry.size() - 1), 0) == 0) return true;
    } else if (name == entry) {
      return true;
    }
  }
  return false;
}

registry& registry::instance() {
  static registry r;
  return r;
}

registry::~registry() = default;

template <typename Slot>
metric_id registry::register_slot(slot_table<Slot>& table,
                                  std::map<std::string, metric_id>& index,
                                  const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index.find(name);
  if (it != index.end()) return it->second;

  const int id = table.count.load(std::memory_order_relaxed);
  const int chunk_idx = id >> slot_table<Slot>::chunk_bits;
  OCTO_CHECK_MSG(chunk_idx < slot_table<Slot>::max_chunks,
                 "apex: metric capacity exhausted registering " << name);
  auto& chunk_ptr = table.chunks[static_cast<std::size_t>(chunk_idx)];
  if (chunk_ptr.load(std::memory_order_relaxed) == nullptr) {
    // Publish the chunk before the count so a racing sample() that sees
    // the new count also sees the chunk.
    chunk_ptr.store(new typename slot_table<Slot>::chunk(),
                    std::memory_order_release);
  }
  table[id].name = name;
  table.count.store(id + 1, std::memory_order_release);
  index.emplace(name, id);
  return id;
}

metric_id registry::timer(const std::string& name) {
  return register_slot(timer_slots_, timer_index_, name);
}

metric_id registry::counter(const std::string& name) {
  return register_slot(counter_slots_, counter_index_, name);
}

namespace {

/// Histogram bucket for a sample of \p ns nanoseconds: bit_width, so bucket
/// b (b >= 1) covers [2^(b-1), 2^b) ns; bucket 0 is ns == 0.
inline int hist_bucket(std::uint64_t ns) {
  return std::min(static_cast<int>(std::bit_width(ns)),
                  registry::hist_buckets - 1);
}

/// Representative latency (seconds) for a bucket: geometric bucket middle.
inline double bucket_seconds(int b) {
  if (b == 0) return 0;
  return std::exp2(static_cast<double>(b) - 0.5) * 1e-9;
}

/// Quantile from a log2 histogram (nearest-rank over bucket counts).
double hist_quantile(const std::uint64_t* counts, int n, std::uint64_t total,
                     double q) {
  if (total == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (int b = 0; b < n; ++b) {
    seen += counts[b];
    if (seen >= rank && counts[b] > 0) return bucket_seconds(b);
  }
  return bucket_seconds(n - 1);
}

}  // namespace

void registry::sample(metric_id id, double seconds) {
  if (!enabled()) return;
  if (id < 0 || id >= timer_slots_.count.load(std::memory_order_acquire))
    return;
  auto& s = timer_slots_[id];
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.total_ns.fetch_add(ns, std::memory_order_relaxed);
  s.hist[static_cast<std::size_t>(hist_bucket(ns))].fetch_add(
      1, std::memory_order_relaxed);
  // CAS loops for min/max (contention is negligible: samples are >> rare
  // relative to the work they measure).
  std::uint64_t cur = s.min_ns.load(std::memory_order_relaxed);
  while (ns < cur &&
         !s.min_ns.compare_exchange_weak(cur, ns, std::memory_order_relaxed))
    ;
  cur = s.max_ns.load(std::memory_order_relaxed);
  while (ns > cur &&
         !s.max_ns.compare_exchange_weak(cur, ns, std::memory_order_relaxed))
    ;
}

void registry::add(metric_id id, std::uint64_t delta) {
  if (!enabled()) return;
  if (id < 0 || id >= counter_slots_.count.load(std::memory_order_acquire))
    return;
  counter_slots_[id].value.fetch_add(delta, std::memory_order_relaxed);
}

std::vector<registry::timer_stats> registry::timers() const {
  const int n = timer_slots_.count.load(std::memory_order_acquire);
  std::vector<timer_stats> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& s = timer_slots_[i];
    timer_stats t;
    t.name = s.name;
    t.calls = s.calls.load(std::memory_order_relaxed);
    t.total_seconds =
        static_cast<double>(s.total_ns.load(std::memory_order_relaxed)) *
        1e-9;
    const auto mn = s.min_ns.load(std::memory_order_relaxed);
    t.min_seconds = t.calls ? static_cast<double>(mn) * 1e-9 : 0;
    t.max_seconds =
        static_cast<double>(s.max_ns.load(std::memory_order_relaxed)) *
        1e-9;
    std::uint64_t counts[hist_buckets];
    std::uint64_t total = 0;
    for (int b = 0; b < hist_buckets; ++b) {
      counts[b] = s.hist[static_cast<std::size_t>(b)].load(
          std::memory_order_relaxed);
      total += counts[b];
    }
    t.p50_seconds = hist_quantile(counts, hist_buckets, total, 0.50);
    t.p95_seconds = hist_quantile(counts, hist_buckets, total, 0.95);
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<registry::counter_stats> registry::counters() const {
  const int n = counter_slots_.count.load(std::memory_order_acquire);
  std::vector<counter_stats> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& s = counter_slots_[i];
    out.push_back({s.name, s.value.load(std::memory_order_relaxed)});
  }
  return out;
}

namespace {

/// "app.step" -> "app"; names without a dot group under themselves.
std::string group_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

void registry::report(std::ostream& os) const {
  auto ts = timers();
  ts.erase(std::remove_if(ts.begin(), ts.end(),
                          [](const auto& t) { return t.calls == 0; }),
           ts.end());

  // Hierarchical grouping: bucket by first dotted component, order groups
  // by aggregate total time, members by their own total.
  std::map<std::string, std::vector<const timer_stats*>> groups;
  for (const auto& t : ts) groups[group_of(t.name)].push_back(&t);
  std::vector<std::pair<double, const std::string*>> order;
  order.reserve(groups.size());
  for (auto& [g, members] : groups) {
    double total = 0;
    for (const auto* m : members) total += m->total_seconds;
    std::sort(members.begin(), members.end(), [](const auto* a, const auto* b) {
      return a->total_seconds > b->total_seconds;
    });
    order.emplace_back(total, &g);
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  if (!ts.empty()) {
    table t({"timer", "calls", "total [s]", "mean [us]", "p50 [us]",
             "p95 [us]", "max [us]"});
    for (const auto& [total, gname] : order) {
      t.add_row({"[" + *gname + "]", "", table::fmt(total), "", "", "", ""});
      for (const auto* s : groups[*gname]) {
        t.add_row({"  " + s->name,
                   table::fmt(static_cast<long long>(s->calls)),
                   table::fmt(s->total_seconds),
                   table::fmt(s->mean_seconds() * 1e6),
                   table::fmt(s->p50_seconds * 1e6),
                   table::fmt(s->p95_seconds * 1e6),
                   table::fmt(s->max_seconds * 1e6)});
      }
    }
    t.print(os);
  }

  auto cs = counters();
  cs.erase(std::remove_if(cs.begin(), cs.end(),
                          [](const auto& c) { return c.value == 0; }),
           cs.end());
  if (!cs.empty()) {
    std::sort(cs.begin(), cs.end(), [](const auto& a, const auto& b) {
      const auto ga = group_of(a.name), gb = group_of(b.name);
      return ga != gb ? ga < gb : a.name < b.name;
    });
    table c({"counter", "value"});
    std::string last_group;
    for (const auto& s : cs) {
      const auto g = group_of(s.name);
      if (g != last_group) {
        c.add_row({"[" + g + "]", ""});
        last_group = g;
      }
      c.add_row({"  " + s.name, table::fmt(static_cast<long long>(s.value))});
    }
    c.print(os);
  }
}

void registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const int nt = timer_slots_.count.load(std::memory_order_acquire);
  for (int i = 0; i < nt; ++i) {
    auto& s = timer_slots_[i];
    s.calls.store(0);
    s.total_ns.store(0);
    s.min_ns.store(~std::uint64_t(0));
    s.max_ns.store(0);
    for (auto& h : s.hist) h.store(0);
  }
  const int nc = counter_slots_.count.load(std::memory_order_acquire);
  for (int i = 0; i < nc; ++i) counter_slots_[i].value.store(0);
}

}  // namespace octo::apex
