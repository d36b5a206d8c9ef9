#pragma once
/// \file task_graph.hpp
/// One builder for a step's task graph, in either shape of the Fig. 9
/// ablation.
///
///   * dataflow: every task waits on exactly the edges its caller names,
///     and join() does nothing — the graph's only join is drain().
///   * barrier: every task's only edge is the previous phase join (plus an
///     edge the caller keeps in both shapes, e.g. a channel arrival), and
///     join() closes the phase: the calling thread waits, helping, for the
///     tasks added since the last join and joins them with one `when_all`
///     before it builds the next phase.
///
/// The caller builds the same phases in the same order either way and
/// calls join() at each phase boundary, so a barrier schedule is the
/// dataflow graph with its per-node edges replaced by phase joins.

#include <cstdint>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "amt/channel.hpp"
#include "amt/future.hpp"
#include "apex/trace.hpp"

namespace octo::amt {

class task_graph {
 public:
  using edge = shared_future<void>;

  task_graph(runtime& rt, bool barrier)
      : rt_(&rt), barrier_(barrier), join_ns_(apex::trace::now_ns()) {}

  /// A task's dependency list: collects edges in the dataflow shape and
  /// drops them in the barrier shape, where the phase join is the only
  /// edge — so a barrier graph pays nothing for its per-node wiring.
  class edge_list {
   public:
    edge_list() = default;
    void push_back(const edge& e) {
      if (wire_) v_.push_back(e);
    }

   private:
    friend class task_graph;
    explicit edge_list(bool wire) : wire_(wire) {}
    bool wire_ = false;
    std::vector<edge> v_;
  };

  /// An empty dependency list for add() / when_all().
  edge_list edges() const { return edge_list(!barrier_); }

  /// Hand every task to \p fn as it is added (e.g. a failure latch).
  void on_task(std::function<void(const edge&)> fn) { watch_ = std::move(fn); }

  /// Add a task with a declared footprint (see amt::dataflow).  It waits
  /// on \p keep (when valid) and then on \p deps in dataflow mode, or on
  /// the previous join in barrier mode.
  template <typename F>
  edge add(const char* name, apex::access_set fp, F&& f, edge_list deps,
           edge keep = {}) {
    std::vector<edge> in;
    if (barrier_)
      in.push_back(join_);
    else
      in = std::move(deps.v_);
    if (keep.valid()) in.insert(in.begin(), std::move(keep));
    edge t = dataflow(name, std::move(fp), std::forward<F>(f), std::move(in),
                      *rt_);
    if (watch_) watch_(t);
    tasks_.push_back(t);
    return t;
  }

  /// A pure join over \p deps for wiring the dataflow shape; an invalid
  /// edge in barrier mode, where the phase joins order everything.
  edge when_all(edge_list deps) {
    return barrier_ ? edge{}
                    : edge(amt::when_all(std::move(deps.v_), *rt_));
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

  /// Wait for every task, then return the first error in build order —
  /// preferring a real failure over the broken_channel cascade a failed
  /// exchange leaves behind — or nullptr.
  std::exception_ptr drain() const {
    for (const auto& t : tasks_) t.wait(*rt_);
    std::exception_ptr first;
    for (const auto& t : tasks_) {
      auto e = detail::stored_exception(t.state());
      if (!e) continue;
      if (!first) first = e;
      try {
        std::rethrow_exception(e);
      } catch (const broken_channel&) {
      } catch (...) {
        return e;
      }
    }
    return first;
  }

 private:
  runtime* rt_;
  bool barrier_;
  std::function<void(const edge&)> watch_;
  std::vector<edge> tasks_;    ///< every task in build order
  std::size_t phase_begin_ = 0;  ///< first task after the last join
  edge join_;                  ///< the last join (invalid before the first)
  std::uint64_t join_ns_;
};

}  // namespace octo::amt
