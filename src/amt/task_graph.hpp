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
///   * barrier: a task has no edges and runs as soon as it is added, and
///     join() closes the phase: the calling thread waits, helping, until
///     every task added so far has finished before it builds the next
///     phase.
///
/// The caller builds the same phases in the same order either way and
/// calls join() at each phase boundary, so a barrier schedule is the
/// dataflow graph with its derived edges replaced by phase joins.
///
/// The graph owns its tasks.  Each holds its body, a count of unfinished
/// producers, its successors and a failed flag.  An edge to a producer that
/// has already finished is not counted; a finishing task decrements its
/// successors' counts and posts each one that reaches zero.  Tasks run
/// while the graph is still being built, so a producer's successor list is
/// appended to under its lock, against its finishing at the same moment.
/// A task whose producer failed — or, in barrier mode, that follows a
/// failed phase — does not run and is marked failed; only a task whose
/// body threw stores an exception, and drain() returns the first in build
/// order, which is therefore the cause.
///
/// A task's class (add()'s name) is its only name.  While the trace is on
/// (apex/trace.hpp), run() records one span under the class around each
/// body it runs; a task that inherits a failure runs no body and records
/// no span.  A body opens no span of its own.
///
/// A graph built with `record` keeps its own record (apex/dag.hpp): one
/// node per task with its class, producer ids, footprint, ready/start/end
/// times, worker and failed flag, and per barrier join a zero-duration
/// "join" node that the next phase's tasks depend on.  A task's start and
/// end stamps are the clock reads that bound its span.  take_record()
/// moves the nodes out once the graph has drained.  A graph built without
/// it records nothing, whatever other graphs in the process do.
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
/// footprint builds nothing in a barrier graph that does not record, so
/// that path derives and stores no edges at all.
///
/// run_each() is the fork-join over an index range: a barrier graph of n
/// tasks of one class, drained, its first failure rethrown.  Its class
/// must not reuse the name of a span enclosing the call: the two would
/// merge in the trace's per-name self times.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <iterator>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "amt/runtime.hpp"
#include "amt/unique_function.hpp"
#include "apex/dag.hpp"
#include "apex/race_audit.hpp"
#include "apex/trace.hpp"
#include "common/error.hpp"

namespace octo::amt {

class task_graph {
 public:
  /// A graph on \p rt in the barrier or the dataflow shape; with
  /// \p record it keeps a node per task and per join for take_record().
  task_graph(runtime& rt, bool barrier, bool record = false)
      : rt_(&rt),
        barrier_(barrier),
        record_(record),
        join_ns_(apex::trace::now_ns()) {}

  /// Waits, helping, for every task: they point into the graph.
  ~task_graph() { wait_all(); }

  task_graph(const task_graph&) = delete;
  task_graph& operator=(const task_graph&) = delete;

  /// An empty footprint for add(): it records in a dataflow graph, which
  /// derives its edges from it, and in a barrier graph only when the graph
  /// records (for the race audit).
  apex::access_set footprint() const {
    return apex::access_set(!barrier_ || record_);
  }

  /// Add a task of class \p cls (static-duration storage: its span and
  /// record name) with its footprint \p fp (from footprint()).  It waits
  /// on the edges derived from \p fp in dataflow mode, or runs at once in
  /// barrier mode.  Throws octo::error in dataflow mode when \p fp is
  /// empty: such a task would be ordered against nothing.
  template <typename F>
  void add(const char* cls, apex::access_set fp, F&& f) {
    const auto id = static_cast<std::uint32_t>(tasks_.size());
    if (!barrier_) {
      if (fp.empty())
        throw error(std::string("task_graph: task '") + cls +
                    "' declares no footprint in a dataflow graph");
      derive(fp.accesses(), id);
    }
    task& t = tasks_.emplace_back(cls, std::forward<F>(f));
    unfinished_.fetch_add(1, std::memory_order_relaxed);
    if (barrier_) {
      if (phase_failed_) t.failed.store(true, std::memory_order_relaxed);
    } else {
      for (const std::uint32_t d : deps_) link(tasks_[d], t);
      publish(fp.accesses(), id);
    }
    if (record_) record(fp.take(), t);
    release(t);  // the creation token
  }

  /// Barrier mode: wait (helping) for the tasks added since the last join,
  /// then stamp the join on the trace clock.  No-op in dataflow mode and
  /// for an empty phase.
  void join() {
    if (!barrier_ || phase_begin_ == tasks_.size()) return;
    wait_all();
    join_ns_ = apex::trace::now_ns();
    rec_deps_.clear();
    bool failed = false;
    for (std::size_t i = phase_begin_; i < tasks_.size(); ++i) {
      failed = failed || tasks_[i].failed.load(std::memory_order_relaxed);
      if (record_) rec_deps_.push_back(tasks_[i].dag->id);
    }
    phase_failed_ = phase_failed_ || failed;
    if (record_) {
      join_dag_ = &new_node("join", {});
      join_dag_->ready_ns = join_dag_->start_ns = join_dag_->end_ns = join_ns_;
      join_dag_->failed = failed;
    }
    phase_begin_ = tasks_.size();
  }

  /// Trace-clock stamp of the last join (the builder's creation before
  /// the first); consecutive stamps bound the barrier phases.
  std::uint64_t last_join_ns() const { return join_ns_; }

  /// Wait for every task, then return the first error in build order, or
  /// nullptr.  A task that inherits an error from its edges comes after
  /// the task that raised it, so this names the cause.
  std::exception_ptr drain() const {
    wait_all();
    for (const task& t : tasks_)
      if (t.error) return t.error;
    return nullptr;
  }

  /// Wait for every task, then move the record out (nodes in creation
  /// order, which is topological); empty for a graph built without
  /// `record`.  The recording ends here: tasks added later are not
  /// recorded.
  apex::graph_profile take_record() {
    wait_all();
    apex::graph_profile p;
    p.nodes.assign(std::make_move_iterator(nodes_.begin()),
                   std::make_move_iterator(nodes_.end()));
    nodes_.clear();
    record_ = false;
    join_dag_ = nullptr;
    for (task& t : tasks_) t.dag = nullptr;
    return p;
  }

 private:
  static constexpr std::uint32_t none = ~std::uint32_t{0};

  /// One task.  The builder writes it until add() releases the creation
  /// token; workers reach it only through a post or a successor list, so
  /// tasks_ (a deque: elements never move) is the builder's alone.
  struct task {
    task(const char* c, unique_function<void()> f)
        : cls(c), body(std::move(f)) {}
    const char* cls;  ///< span and record name
    unique_function<void()> body;
    /// Unfinished counted producers, plus the creation token add() holds.
    std::atomic<std::uint32_t> pending{1};
    /// Set by a failed producer before its decrement, or by the body.
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< what the body threw (written by run())
    std::mutex m;              ///< guards done and successors
    bool done = false;
    std::vector<task*> successors;
    apex::dag_node* dag = nullptr;  ///< its node in nodes_, or null
  };

  /// A reader (its index in tasks_) with the part of the region it read.
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

  /// Edge p -> c, counted only while p has not finished; a finished p
  /// passes on its failure at once.
  static void link(task& p, task& c) {
    const std::lock_guard<std::mutex> lock(p.m);
    if (p.done) {
      if (p.failed.load(std::memory_order_relaxed))
        c.failed.store(true, std::memory_order_relaxed);
      return;
    }
    c.pending.fetch_add(1, std::memory_order_relaxed);
    p.successors.push_back(&c);
  }

  /// Drop one of \p t's pending counts; the last one posts it.
  void release(task& t) {
    if (t.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    if (t.dag != nullptr) t.dag->ready_ns = apex::trace::now_ns();
    rt_->post([this, &t] { run(t); });
  }

  /// Run \p t's body unless it inherited a failure, then finish it: mark
  /// it done, release its successors and, last, leave the graph's count.
  void run(task& t) {
    apex::dag_node* const dag = t.dag;
    const bool inherited = t.failed.load(std::memory_order_relaxed);
    const bool traced = !inherited && apex::trace::enabled();
    const bool timed = traced || dag != nullptr;
    const std::uint64_t start = timed ? apex::trace::now_ns() : 0;
    if (!inherited) {
      try {
        t.body();
      } catch (...) {
        t.error = std::current_exception();
        t.failed.store(true, std::memory_order_relaxed);
      }
    }
    const bool failed = inherited || t.error != nullptr;
    if (timed) {
      const std::uint64_t end = inherited ? start : apex::trace::now_ns();
      if (traced)
        apex::trace::instance().record_span(t.cls, start, end - start);
      if (dag != nullptr) {
        dag->start_ns = start;
        dag->end_ns = end;
        dag->worker = rt_->worker_index();
        dag->failed = failed;
      }
    }
    std::vector<task*> successors;
    {
      const std::lock_guard<std::mutex> lock(t.m);
      t.done = true;
      successors.swap(t.successors);
    }
    for (task* s : successors) {
      if (failed) s->failed.store(true, std::memory_order_relaxed);
      release(*s);
    }
    unfinished_.fetch_sub(1, std::memory_order_release);  // last touch
  }

  /// Append a node of class \p cls with footprint \p fp; its producers
  /// are rec_deps_.
  apex::dag_node& new_node(const char* cls, std::vector<apex::mem_access> fp) {
    apex::dag_node& n = nodes_.emplace_back();
    n.cls = cls != nullptr ? cls : "task";
    n.id = static_cast<std::uint32_t>(nodes_.size() - 1);
    n.deps = rec_deps_;
    n.footprint = std::move(fp);
    return n;
  }

  void record(std::vector<apex::mem_access> fp, task& t) {
    rec_deps_.clear();
    if (barrier_) {
      if (join_dag_ != nullptr) rec_deps_.push_back(join_dag_->id);
    } else {
      for (const std::uint32_t d : deps_)
        if (tasks_[d].dag != nullptr) rec_deps_.push_back(tasks_[d].dag->id);
    }
    t.dag = &new_node(t.cls, std::move(fp));
  }

  /// Wait, helping, until every task added so far has finished.
  void wait_all() const {
    rt_->help_until([this] {
      return unfinished_.load(std::memory_order_acquire) == 0;
    });
  }

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
  bool record_;                ///< keep nodes_ (until take_record())
  std::deque<task> tasks_;     ///< every task in build order
  /// The record, one node per task and per join (a deque: a task's node
  /// never moves while workers stamp it).
  std::deque<apex::dag_node> nodes_;
  std::atomic<std::size_t> unfinished_{0};  ///< tasks added, not finished
  std::size_t phase_begin_ = 0;  ///< first task after the last join
  bool phase_failed_ = false;    ///< barrier: a joined phase had a failure
  apex::dag_node* join_dag_ = nullptr;  ///< the last join's record, or null
  std::uint64_t join_ns_;
  std::vector<std::uint32_t> rec_deps_;  ///< recorded producer ids, reused
  /// Dataflow edge table, per region kind, indexed by node.
  std::array<std::vector<region_state>, apex::num_rgn> table_;
  std::vector<std::uint32_t> deps_;  ///< derive()'s result, reused
  /// Per task: the last task whose deps_ took it (O(1) deduplication).
  std::vector<std::uint32_t> dep_of_;
};

/// Run \p fn(i) for every i in [0, \p n) as n tasks of class \p cls on
/// \p rt, and wait for all of them: a barrier graph that records nothing.
/// A failure does not stop the other tasks; once every one has run, the
/// first failure in index order is rethrown.
template <typename F>
void run_each(runtime& rt, const char* cls, std::size_t n, F&& fn) {
  task_graph g(rt, /*barrier=*/true);
  for (std::size_t i = 0; i < n; ++i)
    g.add(cls, g.footprint(), [&fn, i] { fn(i); });
  if (const std::exception_ptr e = g.drain()) std::rethrow_exception(e);
}

}  // namespace octo::amt
