#pragma once
/// \file metrics.hpp
/// Per-step structured metrics emitter (JSON-lines or CSV).
///
/// Records one line per simulation step: step number, simulated time, dt,
/// per-phase wall times, sub-grid/cell counts, and the paper's headline
/// metric — *processed sub-grid cells per second* (the y-axis of Figs.
/// 4–6 and 10) — so every run produces the raw series the paper's plots
/// are drawn from.
///
/// Bootstrap: the examples open the sink from `OCTO_METRICS=<path>`
/// (extension picks the format: `.csv` -> CSV, anything else -> JSONL).

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <variant>

namespace octo::apex {

/// One simulation step's worth of observability data.
struct step_record {
  int step = 0;           ///< 1-based step number
  double time = 0;        ///< simulated time after the step
  double dt = 0;          ///< time step taken
  double step_seconds = 0;      ///< wall time of the whole step
  double exchange_seconds = 0;  ///< ghost exchange (all RK stages)
  double gravity_seconds = 0;   ///< FMM solves (all RK stages)
  double hydro_seconds = 0;     ///< hydro kernels (all RK stages)
  std::uint64_t subgrids = 0;   ///< leaves in the tree
  std::uint64_t cells = 0;      ///< sub-grid cells evolved this step
  /// Headline metric: cells / step_seconds.
  double cells_per_sec = 0;
  /// Reliable-transport activity this step (dist/transport.hpp deltas).
  std::uint64_t transport_retries = 0;
  std::uint64_t transport_timeouts = 0;
  std::uint64_t transport_dups_dropped = 0;
  /// Locality-failure recovery folded into this step (dist/recovery.hpp).
  std::uint64_t localities_lost = 0;
  std::uint64_t leaves_migrated = 0;
  /// Worker idle time this step as a fraction of step_seconds x workers
  /// (from amt::runtime_stats::idle_ns deltas) — the measured series behind
  /// the barrier-vs-dataflow comparison (Fig. 9's starvation, quantified).
  double idle_fraction = 0;
  /// Dataflow-mode task-graph profile (apex/critical_path.hpp); all zero
  /// when the step ran barriered or DAG recording was off.
  double crit_path_us = 0;   ///< longest duration-weighted task chain
  double crit_path_frac = 0; ///< crit path / graph makespan (1 = chain-bound)
  double imbalance = 0;      ///< (max-mean)/max worker busy time
  /// Measured-cost dynamic load rebalancing (dist/rebalance.cpp).
  std::uint64_t rebalance_count = 0;  ///< rebalances applied so far (cumulative)
  double max_over_mean = 0;  ///< measured per-locality cost imbalance
                             ///< (tree::cost_max_over_mean; 0 = unmeasured)
  /// Silent-data-corruption defense (app/invariants.hpp); all cumulative.
  std::uint64_t sdc_audits = 0;     ///< completed audit+seal passes
  std::uint64_t sdc_detected = 0;   ///< tripped detectors
  std::uint64_t sdc_retries = 0;    ///< snapshot retries attempted
  std::uint64_t sdc_rollbacks = 0;  ///< escalations to checkpoint rollback

  /// Fill cells_per_sec from cells and step_seconds.
  void finalize() {
    cells_per_sec = step_seconds > 0
                        ? static_cast<double>(cells) / step_seconds
                        : 0;
  }
};

/// One step_record column: its CSV header name / JSONL key and the member
/// it holds.  The writer (metrics_sink::emit) and the reader
/// (load_metrics_jsonl) both loop over `step_columns`, so the schema is
/// spelled out once; a value prints as `%d`, `%llu` or `%.9g` by member
/// type.
struct step_column {
  const char* name;
  std::variant<int step_record::*, std::uint64_t step_record::*,
               double step_record::*>
      member;
};

/// Every column, in output order.
inline constexpr step_column step_columns[] = {
    {"step", &step_record::step},
    {"time", &step_record::time},
    {"dt", &step_record::dt},
    {"step_seconds", &step_record::step_seconds},
    {"exchange_seconds", &step_record::exchange_seconds},
    {"gravity_seconds", &step_record::gravity_seconds},
    {"hydro_seconds", &step_record::hydro_seconds},
    {"subgrids", &step_record::subgrids},
    {"cells", &step_record::cells},
    {"cells_per_sec", &step_record::cells_per_sec},
    {"transport_retries", &step_record::transport_retries},
    {"transport_timeouts", &step_record::transport_timeouts},
    {"transport_dups_dropped", &step_record::transport_dups_dropped},
    {"localities_lost", &step_record::localities_lost},
    {"leaves_migrated", &step_record::leaves_migrated},
    {"idle_fraction", &step_record::idle_fraction},
    {"crit_path_us", &step_record::crit_path_us},
    {"crit_path_frac", &step_record::crit_path_frac},
    {"imbalance", &step_record::imbalance},
    {"rebalance_count", &step_record::rebalance_count},
    {"max_over_mean", &step_record::max_over_mean},
    {"sdc_audits", &step_record::sdc_audits},
    {"sdc_detected", &step_record::sdc_detected},
    {"sdc_retries", &step_record::sdc_retries},
    {"sdc_rollbacks", &step_record::sdc_rollbacks},
};

/// Thread-safe append-only sink.  A default-constructed sink is closed;
/// emit() on a closed sink is a no-op, so call sites don't need guards.
class metrics_sink {
 public:
  metrics_sink() = default;

  /// Open \p path for writing (truncates); the extension picks the format
  /// (".csv" -> CSV, anything else -> JSONL).  Returns false on IO failure.
  bool open(const std::string& path);

  bool is_open() const { return out_.is_open(); }
  const std::string& path() const { return path_; }

  /// Append one record (writes the CSV header on first emit).
  void emit(const step_record& rec);

  std::uint64_t records_emitted() const { return emitted_; }

  void close();

 private:
  enum class format { jsonl, csv };

  std::ofstream out_;
  std::string path_;
  format format_ = format::jsonl;
  std::uint64_t emitted_ = 0;
  std::mutex mutex_;
};

}  // namespace octo::apex
