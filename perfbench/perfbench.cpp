/// \file perfbench.cpp
/// Closed-loop cells/s benchmark driver for one workload.
///
///   octo_perfbench workload=star-df seed=1 steps=32 out=result.json
///                  [setups=3 workers=2 trace=0|1 trace_file=t.json]
///
/// One process, one AMT runtime with `workers` workers (the calling thread
/// drives the step loop and helps while it waits).  The driver builds the
/// seeded scenario `setups` times (scenario construction + initialize(),
/// SCF included; the median is the set-up time), keeps the last instance,
/// runs one audit cycle (4 steps) of untimed warm-up, then `steps` timed
/// steps, each starting when the previous step() returned.  It then checks
/// the evolved state
/// (finite fields, mass drift, zero SDC detections) and records a CRC32
/// digest of every leaf's owned cells.
///
/// With trace=1 the timed steps are recorded through apex::trace plus a
/// metrics sink (which turns on the dataflow DAG recorder); span self times
/// per name come from the Chrome trace re-loaded through apex/analyze.hpp.
/// One-thread probes then time single layers on the evolved state.
///
/// The result is one JSON object written to `out`.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "amt/future.hpp"
#include "amt/runtime.hpp"
#include "apex/analyze.hpp"
#include "apex/apex.hpp"
#include "apex/metrics.hpp"
#include "apex/trace.hpp"
#include "app/invariants.hpp"
#include "app/simulation.hpp"
#include "common/config.hpp"
#include "common/crc32.hpp"
#include "common/random.hpp"
#include "common/stopwatch.hpp"
#include "dist/cluster.hpp"
#include "gravity/solver.hpp"
#include "grid/field.hpp"
#include "hydro/kernel.hpp"
#include "scenarios/scenarios.hpp"
#include "tree/partition.hpp"

extern char** environ;

namespace {

using namespace octo;
using grid::subgrid;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct workload {
  std::string name;
  std::string scenario;
  int level = 2;
  app::step_mode mode = app::step_mode::dataflow;
  bool self_gravity = true;
  int localities = 0;  ///< 0 = app::simulation, else dist::cluster
  /// Largest relative change of total mass the output check accepts over
  /// warm-up + timed steps.
  double mass_tol = 0;
};

workload find_workload(const std::string& name) {
  // Mass tolerances: about ten times the drift the code shows over the
  // 44 steps of a run (outflow boundaries and density floors; the star
  // and the binary lose ~4e-4 and ~1.4e-4, Sedov conserves to round-off).
  if (name == "star-df")
    return {"star-df", "rotating_star", 2, app::step_mode::dataflow, true, 0,
            5e-3};
  if (name == "sedov-barrier")
    return {"sedov-barrier", "sedov", 5, app::step_mode::barrier, false, 0,
            1e-12};
  if (name == "dwd-4loc")
    return {"dwd-4loc", "dwd", 2, app::step_mode::dataflow, true, 4, 2e-3};
  throw error("unknown workload '" + name +
              "' (star-df, sedov-barrier, dwd-4loc)");
}

app::sim_options make_sim_options(const workload& w,
                                  const scen::scenario& sc) {
  app::sim_options o;
  o.max_level = w.level;
  o.cfl = real(0.4);
  o.self_gravity = w.self_gravity;
  o.hydro = hydro::hydro_options{};
  o.hydro.gas = sc.gas;
  o.hydro.use_simd = true;
  o.gravity = gravity::gravity_options{};
  o.fixed_dt = 0;
  o.mode = w.mode;
  o.audit_races = false;
  o.measure_leaf_costs = false;
  o.audit.enabled = true;
  o.audit.every = 4;
  return o;
}

dist::dist_options make_dist_options(const workload& w,
                                     const scen::scenario& sc) {
  dist::dist_options o;
  o.num_localities = w.localities;
  o.local_optimization = true;
  o.reliable_transport = true;
  o.transport = dist::transport_options{};
  o.buddy_replication = true;
  o.lb = dist::lb_options{};
  o.lb.every = 0;
  o.lb.measure = false;
  o.sim = make_sim_options(w, sc);
  return o;
}

// ---------------------------------------------------------------------------
// Seeded placement: a quarter-turn rotation about z and a sub-cell shift,
// applied by wrapping the scenario's public refine/init functions.
// ---------------------------------------------------------------------------

struct placement {
  int quarter_turns = 0;
  rvec3 shift{0, 0, 0};
};

placement placement_for(std::uint64_t seed, const workload& w,
                        const scen::scenario& base) {
  std::uint64_t s = seed ^ 0x6a09e667f3bcc909ULL;
  placement p;
  p.quarter_turns = static_cast<int>(splitmix64(s) % 4);
  // At most a quarter of the finest cell along each axis.
  const real dx_min = 2 * base.domain_half /
                      static_cast<real>(subgrid::N * (1 << w.level));
  for (int a = 0; a < 3; ++a) {
    const double u =
        static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;  // [0, 1)
    p.shift[a] = static_cast<real>((u - 0.5) * 0.5) * dx_min;
  }
  return p;
}

/// Rotate (x, y) by q quarter turns counter-clockwise.
rvec3 rotate_q(rvec3 v, int q) {
  for (int k = 0; k < q; ++k) v = rvec3{-v.y, v.x, v.z};
  return v;
}

/// Position in the scenario's own frame of a point of the placed problem.
rvec3 to_scenario_frame(const rvec3& x, const placement& p) {
  return rotate_q(x - p.shift, (4 - p.quarter_turns) % 4);
}

scen::scenario place(scen::scenario sc, const placement& p) {
  auto refine = sc.refine;
  sc.refine = [refine, p](int level, const rvec3& c, real hw) {
    return refine(level, to_scenario_frame(c, p), hw);
  };
  auto init = sc.init;
  sc.init = [init, p](subgrid& u) {
    // A quarter turn maps the cell lattice onto itself, so the placed
    // sub-grid is an index permutation of one filled in the scenario frame.
    subgrid src(to_scenario_frame(u.center(), p), u.dx());
    init(src);
    constexpr int N = subgrid::N;
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j) {
        int si = i, sj = j;
        for (int k = 0; k < p.quarter_turns; ++k) {
          const int t = si;
          si = sj;
          sj = N - 1 - t;
        }
        for (int k = 0; k < N; ++k) {
          for (int f = 0; f < grid::NFIELD; ++f)
            u.at(f, i, j, k) = src.at(f, si, sj, k);
          const rvec3 s = rotate_q(rvec3{src.at(grid::f_sx, si, sj, k),
                                         src.at(grid::f_sy, si, sj, k), 0},
                                   p.quarter_turns);
          u.at(grid::f_sx, i, j, k) = s.x;
          u.at(grid::f_sy, i, j, k) = s.y;
        }
      }
  };
  return sc;
}

// ---------------------------------------------------------------------------
// One driver over app::simulation or dist::cluster
// ---------------------------------------------------------------------------

class driver {
 public:
  driver(const workload& w, const scen::scenario& sc, amt::runtime& rt) {
    const exec::amt_space space(rt);
    if (w.localities > 0)
      cl_ = std::make_unique<dist::cluster>(sc, make_dist_options(w, sc),
                                            space);
    else
      sim_ = std::make_unique<app::simulation>(sc, make_sim_options(w, sc),
                                               space);
  }
  void initialize() { sim_ ? sim_->initialize() : cl_->initialize(); }
  void step() { sim_ ? (void)sim_->step() : (void)cl_->step(); }
  const tree::topology& topo() const {
    return sim_ ? sim_->topo() : cl_->topo();
  }
  const subgrid& leaf(index_t n) const {
    return sim_ ? sim_->leaf(n) : cl_->leaf(n);
  }
  app::ledger measure() const { return sim_ ? sim_->measure() : cl_->measure(); }
  std::uint64_t sdc_detections() const {
    return sim_ ? sim_->sdc_detections() : cl_->sdc_detections();
  }
  const apex::step_record& last() const {
    return sim_ ? sim_->last_step_metrics() : cl_->last_step_metrics();
  }
  void set_metrics_sink(apex::metrics_sink* s) {
    sim_ ? sim_->set_metrics_sink(s) : cl_->set_metrics_sink(s);
  }
  dist::cluster* cluster() const { return cl_.get(); }

 private:
  std::unique_ptr<app::simulation> sim_;
  std::unique_ptr<dist::cluster> cl_;
};

/// CRC32 over every leaf's owned-cell seal, in leaf (Morton) order.
std::uint32_t state_digest(const driver& d) {
  std::uint32_t crc = 0;
  for (const index_t l : d.topo().leaves()) {
    const std::uint32_t c = app::invariant_auditor::leaf_crc(d.leaf(l));
    crc = crc32(&c, sizeof c, crc);
  }
  return crc;
}

bool all_finite(const driver& d) {
  constexpr int N = subgrid::N;
  for (const index_t l : d.topo().leaves()) {
    const subgrid& u = d.leaf(l);
    for (int f = 0; f < grid::NFIELD; ++f)
      for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
          for (int k = 0; k < N; ++k)
            if (!std::isfinite(u.at(f, i, j, k))) return false;
  }
  return true;
}

/// Bytes of evolved state the step touches: one sub-grid per tree node plus
/// the RK stage-0 copies of the leaves (and the cluster's buddy replicas).
double state_bytes(const driver& d) {
  const double per = static_cast<double>(subgrid().raw().size() * sizeof(real));
  double grids = static_cast<double>(d.topo().num_nodes() +
                                     d.topo().num_leaves());
  if (d.cluster() != nullptr) grids += static_cast<double>(d.topo().num_leaves());
  return grids * per;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

std::uint64_t llc_bytes() {
  for (int idx = 4; idx >= 0; --idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream lvl(base + "/level"), sz(base + "/size");
    int level = 0;
    std::string size;
    if (!(lvl >> level) || !(sz >> size) || level < 2) continue;
    std::uint64_t v = std::strtoull(size.c_str(), nullptr, 10);
    if (!size.empty() && (size.back() == 'K')) v <<= 10;
    if (!size.empty() && (size.back() == 'M')) v <<= 20;
    return v;
  }
  return 0;
}

double timer_total(const std::string& name) {
  for (const auto& t : apex::registry::instance().timers())
    if (t.name == name) return t.total_seconds;
  return 0;
}

/// Run \p f as one task on \p rt while the calling thread blocks without
/// helping: a one-worker runtime then really runs on one thread.
void run_on(amt::runtime& rt, const std::function<void()>& f) {
  std::promise<void> done;
  rt.post([&] {
    try {
      f();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  done.get_future().get();
}

/// Median of \p reps timings of \p f (seconds).
double time_median(int reps, const std::function<void()>& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const stopwatch sw;
    f();
    t.push_back(sw.seconds());
  }
  return median(t);
}

/// Writer for the driver's one result object (common/json.hpp only reads).
class json_out {
 public:
  json_out& key(const std::string& k) {
    os_ << (first_ ? "" : ",") << '"' << k << "\":";
    first_ = false;
    return *this;
  }
  json_out& num(const std::string& k, double v) {
    key(k);
    os_ << number(v);
    return *this;
  }
  json_out& str(const std::string& k, const std::string& v) {
    key(k);
    os_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') os_ << '\\';
      if (c == '\n') {
        os_ << "\\n";
        continue;
      }
      os_ << c;
    }
    os_ << '"';
    return *this;
  }
  json_out& boolean(const std::string& k, bool v) {
    key(k);
    os_ << (v ? "true" : "false");
    return *this;
  }
  json_out& nums(const std::string& k, const std::vector<double>& v) {
    key(k);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i)
      os_ << (i ? "," : "") << number(v[i]);
    os_ << ']';
    return *this;
  }
  json_out& object(const std::string& k, const std::map<std::string, double>& m) {
    key(k);
    json_out inner;
    for (const auto& [n, v] : m) inner.num(n, v);
    os_ << inner.str();
    return *this;
  }
  std::string str() const { return "{" + os_.str() + "}"; }

 private:
  /// All digits; JSON has no NaN/Inf, so a non-finite value reads 0.
  static std::string number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
  }

  std::ostringstream os_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Span self times from the recorded Chrome trace
// ---------------------------------------------------------------------------

struct span_profile {
  std::map<std::string, double> self_us;  ///< by span name, worker + driver
  double worker_named_us = 0;   ///< self time of named spans on worker lanes
  double worker_task_self_us = 0;  ///< amt.task self time on worker lanes
  double driver_helping_us = 0; ///< helping-run time on non-worker threads
};

/// The runtime's generic wrappers around every task execution; their self
/// time is task work that no named span covers.
bool is_task_wrapper(const std::string& name) {
  return name == "amt.task" || name == "amt.helping_run";
}

/// Self time = duration minus the directly nested spans on the same
/// timeline.  Only spans starting inside [t0_us, t1_us) count.
span_profile profile_spans(const apex::loaded_trace& t, double t0_us,
                           double t1_us) {
  std::map<std::pair<int, int>, std::vector<const apex::trace_span*>> lanes;
  for (const auto& s : t.spans)
    if (s.ts_us >= t0_us && s.ts_us < t1_us)
      lanes[{s.pid, s.tid}].push_back(&s);
  span_profile out;
  for (auto& [lane, spans] : lanes) {
    const auto it = t.thread_names.find(lane);
    const bool worker =
        it != t.thread_names.end() && it->second.rfind("amt.worker.", 0) == 0;
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<double> self(spans.size());
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto* s = spans[i];
      while (!stack.empty()) {
        const auto* top = spans[stack.back()];
        if (s->ts_us < top->ts_us + top->dur_us) break;
        stack.pop_back();
      }
      self[i] = s->dur_us;
      if (!stack.empty()) self[stack.back()] -= s->dur_us;
      if (!worker && s->name == "amt.helping_run" &&
          std::none_of(stack.begin(), stack.end(), [&](std::size_t k) {
            return spans[k]->name == "amt.helping_run";
          }))
        out.driver_helping_us += s->dur_us;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out.self_us[spans[i]->name] += self[i];
      if (!worker) continue;
      (is_task_wrapper(spans[i]->name) ? out.worker_task_self_us
                                       : out.worker_named_us) += self[i];
    }
  }
  return out;
}

/// One-thread probes of single layers on the evolved state of \p d.
void probe_layers(const workload& w, const placement& p, const driver& d,
                  amt::runtime& rt, std::map<std::string, double>& m) {
  amt::runtime rt1(1);
  const tree::topology& topo = d.topo();
  const index_t leaves = topo.num_leaves();
  const std::vector<index_t>& lv = topo.leaves();
  const scen::scenario sc0 = place(scen::by_name(w.scenario), p);
  const app::sim_options so = [&] {
    app::sim_options o = make_sim_options(w, sc0);
    o.hydro.omega = sc0.omega;
    return o;
  }();

  // amt: spawn of an empty task + get, from the driving thread.
  {
    constexpr int batch = 2000;
    std::vector<double> per;
    for (int r = 0; r < 9; ++r) {
      const stopwatch sw;
      for (int i = 0; i < batch; ++i) amt::async([] {}, rt).get();
      per.push_back(sw.seconds() / batch);
    }
    m["amt.spawn_get_us"] = median(per) * 1e6;
  }
  // app: the SDC seal pass (leaf_crc over every leaf).
  {
    const double s = time_median(5, [&] {
      for (const index_t l : lv)
        (void)app::invariant_auditor::leaf_crc(d.leaf(l));
    });
    m["app.sdc_seal_us_per_leaf"] = s * 1e6 / static_cast<double>(leaves);
  }
  // gravity: one full FMM solve on the evolved densities, one worker.
  std::unique_ptr<gravity::fmm_solver> fmm;
  if (w.self_gravity) {
    fmm = std::make_unique<gravity::fmm_solver>(topo, so.gravity);
    for (const index_t l : lv) fmm->set_leaf_from_subgrid(l, d.leaf(l));
    m["gravity.solve_1t_s"] = time_median(3, [&] {
      run_on(rt1, [&] { fmm->solve(exec::amt_space(rt1)); });
    });
  } else {
    m["gravity.solve_1t_s"] = 0;
  }
  // hydro: the per-leaf kernels, one thread.
  {
    hydro::workspace ws;
    std::vector<real> dudt(static_cast<std::size_t>(hydro::dudt_size), 0);
    std::vector<double> flux, src, sig;
    for (int r = 0; r < 3; ++r) {
      stopwatch sw;
      for (const index_t l : lv) {
        std::fill(dudt.begin(), dudt.end(), real(0));
        hydro::flux_divergence(d.leaf(l), so.hydro, ws, dudt);
      }
      flux.push_back(sw.seconds());
      sw.reset();
      for (const index_t l : lv) {
        if (fmm)
          hydro::add_sources(d.leaf(l), so.hydro, fmm->gx(l).data(),
                             fmm->gy(l).data(), fmm->gz(l).data(), dudt);
        else
          hydro::add_sources(d.leaf(l), so.hydro, nullptr, nullptr,
                             nullptr, dudt);
      }
      src.push_back(sw.seconds());
      sw.reset();
      real vmax = 0;
      for (const index_t l : lv)
        vmax = std::max(vmax, hydro::max_signal_speed(d.leaf(l), so.hydro));
      sig.push_back(sw.seconds());
      OCTO_CHECK(vmax > 0);
    }
    const double nl = static_cast<double>(leaves);
    m["hydro.flux_us_per_leaf"] = median(flux) * 1e6 / nl;
    m["hydro.sources_us_per_leaf"] = median(src) * 1e6 / nl;
    m["hydro.signal_us_per_leaf"] = median(sig) * 1e6 / nl;
    m["hydro.cells_per_s_1t"] =
        static_cast<double>(topo.num_cells()) /
        (median(flux) + median(src) + median(sig));
  }
  // tree: topology build (+ the cluster's SFC partition).
  m["tree.build_s"] = time_median(5, [&] {
    const tree::topology t = sc0.make_topology(w.level);
    if (w.localities > 0) {
      const auto part = tree::partition_sfc(t, w.localities,
                                            tree::static_leaf_costs(t));
      OCTO_CHECK(part.num_localities == w.localities);
    }
  });
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct run_args {
  std::string workload;
  std::uint64_t seed = 1;
  int steps = 32;
  int setups = 3;
  unsigned workers = 2;
  bool trace = false;
  std::string trace_file;
  std::string out;
};

/// Refuse to run when an OCTO_* variable could change the workload (step
/// mode, audit cadence, fault injection, tracing).
void check_clean_environment() {
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "OCTO_", 5) == 0)
      throw error(std::string("inherited environment variable would change "
                              "the workload: ") +
                  *e);
}

/// Untimed steps before the timed window: one audit cycle.
constexpr int warmup_steps = 4;

int run(const run_args& a) {
  check_clean_environment();
  const workload w = find_workload(a.workload);
  OCTO_CHECK_MSG(a.steps > 0 && a.steps % 4 == 0,
                 "timed steps must be whole audit cycles (4)");
  OCTO_CHECK_MSG(a.setups >= 1, "setups must be >= 1");

  amt::runtime rt(a.workers);
  const amt::scoped_global_runtime global(rt);
  json_out js;
  js.str("workload", w.name).num("seed", static_cast<double>(a.seed));
  js.num("workers", a.workers).num("level", w.level);
  js.num("localities", w.localities);
  js.str("mode", w.mode == app::step_mode::dataflow ? "dataflow" : "barrier");
  js.boolean("self_gravity", w.self_gravity);
  js.str("simd", PERFBENCH_SIMD).str("build_type", PERFBENCH_BUILD_TYPE);
  js.num("llc_bytes", static_cast<double>(llc_bytes()));

  const placement p = placement_for(a.seed, w, scen::by_name(w.scenario));
  js.num("quarter_turns", p.quarter_turns);
  js.nums("shift", {p.shift.x, p.shift.y, p.shift.z});

  const bool trace = a.trace;
  double scf_s = 0;
  std::vector<double> setup_s;
  std::vector<std::uint32_t> init_digests;
  std::unique_ptr<driver> d;
  for (int r = 0; r < a.setups; ++r) {
    d.reset();
    const stopwatch sw;
    scen::scenario sc = place(scen::by_name(w.scenario), p);
    if (trace && sc.prepare) {
      // scf.solve_s probe: the one-time preparation on its own; the
      // initialize() below then finds it done.
      const stopwatch scf_sw;
      sc.prepare();
      scf_s = scf_sw.seconds();
    }
    d = std::make_unique<driver>(w, sc, rt);
    d->initialize();
    setup_s.push_back(sw.seconds());
    init_digests.push_back(state_digest(*d));
  }
  const bool setups_agree =
      std::all_of(init_digests.begin(), init_digests.end(),
                  [&](std::uint32_t v) { return v == init_digests.front(); });
  js.nums("setup_s", setup_s);
  js.boolean("setups_agree", setups_agree);

  const tree::topology& topo = d->topo();
  const index_t leaves = topo.num_leaves();
  js.num("leaves", static_cast<double>(leaves));
  js.num("cells", static_cast<double>(topo.num_cells()));
  js.num("state_bytes", state_bytes(*d));

  const app::ledger l0 = d->measure();
  int attempted = 0, failed = 0;
  std::string failure;
  std::vector<double> step_s;
  auto do_step = [&](bool timed) {
    ++attempted;
    const std::uint64_t sdc0 = d->sdc_detections();
    const stopwatch sw;
    try {
      d->step();
    } catch (const std::exception& e) {
      ++failed;
      if (failure.empty()) failure = std::string("step threw: ") + e.what();
      return false;
    }
    const double s = sw.seconds();
    if (timed) step_s.push_back(s);
    std::string why;
    if (d->sdc_detections() != sdc0) why = "SDC detector tripped";
    // A transport delivery that exhausts its retries throws above; an ack
    // wait that expired and was repaired by a retransmission is counted in
    // the dist.retries/timeouts layer metrics instead.
    if (d->cluster() && d->cluster()->live_localities() != w.localities)
      why = "locality lost";
    if (!why.empty()) {
      ++failed;
      if (failure.empty())
        failure = why + " at step " + std::to_string(attempted);
    }
    return true;
  };

  bool ok = true;
  for (int s = 0; s < warmup_steps && ok; ++s) ok = do_step(false);

  // --- timed steps (traced run: recording on for exactly this window) ---
  apex::metrics_sink sink;  // closed: emit() is a no-op, but attaching any
                            // sink arms the dataflow DAG recorder
  if (trace) {
    apex::trace::instance().set_buffer_capacity(std::size_t(1) << 21);
    apex::trace::instance().enable("");
    d->set_metrics_sink(&sink);
  }
  const amt::runtime_stats rs0 = rt.stats();
  const dist::exchange_stats xs0 =
      d->cluster() ? d->cluster()->stats() : dist::exchange_stats{};
  const dist::transport_stats ts0 = d->cluster()
                                        ? d->cluster()->transport_statistics()
                                        : dist::transport_stats{};
  const double audit0 = timer_total("sdc.audit");
  double phase_x = 0, phase_g = 0, phase_h = 0, crit = 0, imb = 0;
  const double t0_us = static_cast<double>(apex::trace::now_ns()) * 1e-3;
  const stopwatch window;
  for (int s = 0; s < a.steps && ok; ++s) {
    ok = do_step(true);
    if (!ok) break;
    const apex::step_record& rec = d->last();
    phase_x += rec.exchange_seconds;
    phase_g += rec.gravity_seconds;
    phase_h += rec.hydro_seconds;
    crit += rec.crit_path_frac;
    imb += rec.imbalance;
  }
  const double window_s = window.seconds();
  const double t1_us = static_cast<double>(apex::trace::now_ns()) * 1e-3;
  const amt::runtime_stats rs1 = rt.stats();
  if (trace) {
    apex::trace::instance().disable();
    d->set_metrics_sink(nullptr);
  }
  const double audit1 = timer_total("sdc.audit");
  const int timed = static_cast<int>(step_s.size());
  js.num("warmup", warmup_steps).num("steps", a.steps);
  js.nums("step_s", step_s);

  // --- output check + digest ---
  const app::ledger l1 = d->measure();
  const double drift = std::abs(l1.mass - l0.mass) / std::abs(l0.mass);
  const bool finite = all_finite(*d);
  const std::uint64_t sdc = d->sdc_detections();
  const std::uint32_t digest = state_digest(*d);
  char digest_hex[16];
  std::snprintf(digest_hex, sizeof digest_hex, "%08x", digest);
  bool check = ok && finite && drift <= w.mass_tol && sdc == 0 && setups_agree;
  if (ok && !check) {
    // The run's output check failed: its last step counts as failed.
    ++failed;
    if (failure.empty())
      failure = !finite ? "non-finite conserved field"
              : drift > w.mass_tol ? "mass drift beyond tolerance"
              : sdc != 0           ? "SDC detections"
                                   : "set-up repetitions disagree";
  }
  js.boolean("finite", finite).num("mass_drift", drift);
  js.num("mass_tol", w.mass_tol).num("sdc_detections", static_cast<double>(sdc));
  js.str("digest", digest_hex);
  js.boolean("check", check && failed == 0);
  js.num("attempted", attempted).num("failed", failed);
  js.str("failure", failure);

  // --- per-layer (traced run only) ---
  if (trace && timed > 0) {
    std::map<std::string, double> m;
    const double T = timed;
    const double wall = std::accumulate(step_s.begin(), step_s.end(), 0.0);
    m["amt.tasks_per_step"] =
        static_cast<double>(rs1.tasks_executed - rs0.tasks_executed) / T;
    m["amt.steals_per_step"] = static_cast<double>(rs1.steals - rs0.steals) / T;
    const double idle_s = static_cast<double>(rs1.idle_ns - rs0.idle_ns) * 1e-9;
    m["amt.idle_frac"] = idle_s / (wall * a.workers);
    m["app.exchange_s_per_step"] = phase_x / T;
    m["app.gravity_s_per_step"] = phase_g / T;
    m["app.hydro_s_per_step"] = phase_h / T;
    m["app.sdc_audit_ms_per_step"] = (audit1 - audit0) * 1e3 / T;
    m["app.crit_path_frac"] = crit / T;
    m["app.imbalance"] = imb / T;
    if (auto* c = d->cluster()) {
      const dist::exchange_stats xs1 = c->stats();
      const dist::transport_stats ts1 = c->transport_statistics();
      m["dist.remote_msgs_per_step"] =
          static_cast<double>(xs1.remote_messages - xs0.remote_messages) / T;
      m["dist.local_direct_per_step"] =
          static_cast<double>(xs1.local_direct - xs0.local_direct) / T;
      m["dist.bytes_serialized_per_step"] =
          static_cast<double>(xs1.bytes_serialized - xs0.bytes_serialized) / T;
      m["dist.retries_per_step"] =
          static_cast<double>(ts1.retries - ts0.retries) / T;
      m["dist.timeouts"] = static_cast<double>(ts1.timeouts - ts0.timeouts);
    } else {
      for (const char* k :
           {"dist.remote_msgs_per_step", "dist.local_direct_per_step",
            "dist.bytes_serialized_per_step", "dist.retries_per_step",
            "dist.timeouts"})
        m[k] = 0;
    }

    // Span self times through the analyzer's own loader.
    {
      std::ofstream tf(a.trace_file, std::ios::trunc);
      OCTO_CHECK_MSG(tf.good(), "cannot write " << a.trace_file);
      apex::trace::instance().write(tf);
    }
    js.num("trace_dropped",
           static_cast<double>(apex::trace::instance().dropped()));
    apex::trace::instance().clear();
    const apex::loaded_trace lt = apex::load_chrome_trace(a.trace_file);
    const span_profile sp = profile_spans(lt, t0_us, t1_us);
    auto self_ms = [&](std::initializer_list<const char*> names) {
      double us = 0;
      for (const char* n : names) {
        const auto it = sp.self_us.find(n);
        if (it != sp.self_us.end()) us += it->second;
      }
      return us * 1e-3 / T;
    };
    m["app.restrict_ms_per_step"] = self_ms({"app.exchange.restrict"});
    m["app.copy_ms_per_step"] = self_ms({"app.exchange.copy"});
    m["app.prolong_ms_per_step"] = self_ms({"app.exchange.prolong"});
    m["gravity.m2l_ms_per_step"] = self_ms({"gravity.m2l"});
    m["gravity.m2m_ms_per_step"] = self_ms({"gravity.m2m"});
    m["gravity.fc_ms_per_step"] =
        self_ms({"gravity.fine_coarse", "gravity.fine_coarse_apply"});
    m["gravity.l2l_ms_per_step"] = self_ms({"gravity.l2l"});
    m["gravity.eval_ms_per_step"] = self_ms({"gravity.evaluate_leaf"});
    m["dist.send_ms_per_step"] = self_ms({"dist.exchange.send"});
    m["dist.unpack_ms_per_step"] = self_ms({"dist.exchange.unpack"});
    m["dist.replica_ms_per_step"] = self_ms({"dist.update_replicas"});
    // Attribution: self time of the named spans on the worker timelines
    // plus scheduler idle time, against workers x stepping wall time.  The
    // self time of the generic task wrapper is the unattributed share.
    const double capacity_us = window_s * 1e6 * a.workers;
    m["attrib.closure_frac"] =
        (sp.worker_named_us + idle_s * 1e6) / capacity_us;
    m["attrib.unattributed_frac"] = sp.worker_task_self_us / capacity_us;
    m["attrib.driver_helping_frac"] = sp.driver_helping_us / (window_s * 1e6);
    js.object("span_self_ms_per_step", [&] {
      std::map<std::string, double> per;
      for (const auto& [n, us] : sp.self_us) per[n] = us * 1e-3 / T;
      return per;
    }());

    probe_layers(w, p, *d, rt, m);
    m["scf.solve_s"] = scf_s;
    js.object("layers", m);
  }

  js.num("peak_rss_mb", peak_rss_mib());
  std::ofstream out(a.out, std::ios::trunc);
  out << js.str() << '\n';
  out.close();
  OCTO_CHECK_MSG(out.good(), "cannot write " << a.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const config cfg = config::from_args(argc, argv);
    run_args a;
    a.workload = cfg.get("workload", std::string());
    a.seed = static_cast<std::uint64_t>(cfg.get("seed", 1L));
    a.steps = cfg.get("steps", a.steps);
    a.setups = cfg.get("setups", a.setups);
    a.workers = static_cast<unsigned>(cfg.get("workers", 2));
    a.trace = cfg.get("trace", false);
    a.trace_file = cfg.get("trace_file", std::string("perfbench_trace.json"));
    a.out = cfg.get("out", std::string());
    OCTO_CHECK_MSG(!a.out.empty(), "out=<result.json> is required");
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "octo_perfbench: %s\n", e.what());
    return 1;
  }
}
