#pragma once
/// \file task_graph.hpp
/// One builder for a step's task graph, in either shape of the Fig. 9
/// ablation.  A caller adds each task with its declared footprint — the
/// regions it reads and writes (apex::access_set, region kind x node x
/// optional part) — and never names an edge; the graph decides which task
/// waits on which.
///
///   * dataflow: every task's edges are derived from the footprints of the
///     tasks added before it, in build order (rules below), and join()
///     does nothing — the graph's only join is drain().
///   * barrier: every task's only edge is the previous phase join, and
///     join() closes the phase: the calling thread waits, helping, for the
///     tasks added since the last join and joins them with one `when_all`
///     before it builds the next phase.
///
/// The caller builds the same phases in the same order either way and
/// calls join() at each phase boundary, so a barrier schedule is the
/// dataflow graph with its derived edges replaced by phase joins.
///
/// Edge rules.  Per (region kind, node) the dataflow graph keeps the last
/// whole-region writer, the last writer of each part since then, and the
/// readers (with the part they read) since the write that covers them:
///
///   * a read of part p waits for the whole-region writer and the writer
///     of part p (a read of any_part: the writers of every part) — RAW.
///     An any_part read also retires every older any_part reader entered
///     before the newest part writer: it waits on that writer, which
///     waited on them, so a later part write needs no edge of its own to
///     them;
///   * a write of part p waits for the whole-region writer, part p's
///     writer (WAW) and the readers of part p or of any_part (WAR), then
///     becomes part p's writer and clears the part-p readers;
///   * an any_part write waits for every writer and every reader, then
///     becomes the whole-region writer and clears the entry.
///
/// A task's edges are deduplicated, in the order first seen.  Cost: the
/// footprint builds nothing in a barrier graph unless a DAG recording is
/// active, so the barrier path derives and stores no edges at all.

#include <array>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "amt/future.hpp"
#include "apex/race_audit.hpp"
#include "apex/trace.hpp"
#include "common/error.hpp"

namespace octo::amt {

class task_graph {
 public:
  using edge = shared_future<void>;

  task_graph(runtime& rt, bool barrier)
      : rt_(&rt), barrier_(barrier), join_ns_(apex::trace::now_ns()) {}

  /// An empty footprint for add(): it records in a dataflow graph, which
  /// derives its edges from it, and in a barrier graph only while a DAG
  /// recording (the race audit) is active.
  apex::access_set footprint() const {
    return apex::access_set(!barrier_ || apex::dag_recorder::enabled());
  }

  /// Add a task with its footprint \p fp (from footprint()).  It waits on
  /// the edges derived from \p fp in dataflow mode, or on the previous
  /// join in barrier mode.  Throws octo::error in dataflow mode when \p fp
  /// is empty: such a task would be ordered against nothing.
  template <typename F>
  edge add(const char* name, apex::access_set fp, F&& f) {
    const auto id = static_cast<std::uint32_t>(tasks_.size());
    std::vector<edge> in;
    if (barrier_) {
      in.push_back(join_);
    } else {
      if (fp.empty())
        throw error(std::string("task_graph: task '") + name +
                    "' declares no footprint in a dataflow graph");
      derive(fp.accesses(), id);
      for (const std::uint32_t d : deps_) in.push_back(tasks_[d]);
      publish(fp.accesses(), id);  // id is the slot tasks_ gives it below
    }
    edge t = detail::dataflow_node(name, &fp, std::forward<F>(f),
                                   std::move(in), *rt_);
    tasks_.push_back(t);
    return t;
  }

  /// Barrier mode: wait (helping) for the tasks added since the last join,
  /// then join them and stamp the join on the trace clock.  Joining
  /// resolved tasks resolves inline, with no continuation parked on each.
  /// No-op in dataflow mode and for an empty phase.
  void join() {
    if (!barrier_ || phase_begin_ == tasks_.size()) return;
    std::vector<edge> phase(
        tasks_.begin() + static_cast<std::ptrdiff_t>(phase_begin_),
        tasks_.end());
    for (const auto& t : phase) t.wait(*rt_);
    join_ = amt::when_all(std::move(phase), *rt_);
    join_ns_ = apex::trace::now_ns();
    phase_begin_ = tasks_.size();
  }

  /// Trace-clock stamp of the last join (the builder's creation before
  /// the first); consecutive stamps bound the barrier phases.
  std::uint64_t last_join_ns() const { return join_ns_; }

  /// Wait for every task, then return the first error in build order, or
  /// nullptr.  A task that inherits an error from its edges comes after
  /// the task that raised it, so this names the cause.
  std::exception_ptr drain() const {
    for (const auto& t : tasks_) t.wait(*rt_);
    for (const auto& t : tasks_)
      if (auto e = detail::stored_exception(t.state())) return e;
    return nullptr;
  }

 private:
  static constexpr std::uint32_t none = ~std::uint32_t{0};
  /// A reader (its index in tasks_) with the part of the region it read.
  /// Tasks are indices, not futures: the table costs no reference counts.
  struct reader {
    std::int32_t part;
    std::uint32_t task;
  };
  /// The dataflow graph's view of one (region kind, node).
  struct region_state {
    std::uint32_t writer = none;  ///< last whole-region writer
    /// Last writer of each part since then, indexed by part (none: no
    /// write of that part).
    std::vector<std::uint32_t> part_writer;
    std::uint32_t newest_part_writer = none;  ///< max of part_writer
    std::vector<reader> readers;  ///< readers since their write
  };

  region_state& state(const apex::mem_access& a) {
    auto& v = table_[static_cast<std::size_t>(a.region)];
    const auto n = static_cast<std::size_t>(a.node);
    if (n >= v.size()) v.resize(n + 1);
    return v[n];
  }

  /// Edge t -> id, once per producer t.
  void add_dep(std::uint32_t t, std::uint32_t id) {
    if (t == none || dep_of_[t] == id) return;
    dep_of_[t] = id;
    deps_.push_back(t);
  }

  /// Task \p id's RAW, WAR and WAW edges from touching \p acc, into deps_.
  void derive(const std::vector<apex::mem_access>& acc, std::uint32_t id) {
    dep_of_.push_back(none);  // task id's own slot
    deps_.clear();
    for (const auto& a : acc) {
      const region_state& s = state(a);
      add_dep(s.writer, id);
      const bool any = a.part == apex::any_part;
      if (any) {
        for (const std::uint32_t w : s.part_writer) add_dep(w, id);
      } else if (static_cast<std::size_t>(a.part) < s.part_writer.size()) {
        add_dep(s.part_writer[static_cast<std::size_t>(a.part)], id);
      }
      if (!a.write) continue;
      for (const auto& r : s.readers)
        if (any || r.part == a.part || r.part == apex::any_part)
          add_dep(r.task, id);
    }
  }

  /// Enter task \p t into the table: its reads first, then its writes, so
  /// a task that reads and writes one region is left as its writer.  A
  /// region a task reads twice is entered once.
  void publish(const std::vector<apex::mem_access>& acc, std::uint32_t t) {
    for (const auto& a : acc) {
      if (a.write) continue;
      region_state& s = state(a);
      auto& readers = s.readers;
      // t waits on the newest part writer (RAW), which waited on every
      // any_part reader entered before it (WAR): those are ordered
      // before t, so t stands in for them.
      if (a.part == apex::any_part && s.newest_part_writer != none)
        std::erase_if(readers, [&](const reader& r) {
          return r.part == apex::any_part && r.task < s.newest_part_writer;
        });
      if (readers.empty() || readers.back().part != a.part ||
          readers.back().task != t)
        readers.push_back({a.part, t});
    }
    for (const auto& a : acc) {
      if (!a.write) continue;
      region_state& s = state(a);
      if (a.part == apex::any_part) {
        s.writer = t;
        s.part_writer.clear();
        s.newest_part_writer = none;
        s.readers.clear();
        continue;
      }
      std::erase_if(s.readers,
                    [&](const reader& r) { return r.part == a.part; });
      const auto p = static_cast<std::size_t>(a.part);
      if (p >= s.part_writer.size()) s.part_writer.resize(p + 1, none);
      s.part_writer[p] = t;
      s.newest_part_writer = t;
    }
  }

  runtime* rt_;
  bool barrier_;
  std::vector<edge> tasks_;    ///< every task in build order
  std::size_t phase_begin_ = 0;  ///< first task after the last join
  edge join_;                  ///< the last join (invalid before the first)
  std::uint64_t join_ns_;
  /// Dataflow edge table, per region kind, indexed by node.
  std::array<std::vector<region_state>, apex::num_rgn> table_;
  std::vector<std::uint32_t> deps_;  ///< derive()'s result, reused
  /// Per task: the last task whose deps_ took it (O(1) deduplication).
  std::vector<std::uint32_t> dep_of_;
};

}  // namespace octo::amt
