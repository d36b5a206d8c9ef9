/// Interactive what-if tool around the calibrated cluster simulator: pick a
/// scenario, refinement level, machine and optimization knobs, sweep node
/// counts, and read predicted throughput / utilization / power — the same
/// engine behind every figure bench.
///
///   ./scaling_explorer [scenario=rotating_star] [level=5]
///                      [machine=fugaku|ookami|perlmutter|summit|piz_daint]
///                      [nodes=1,2,4,...] [simd=true] [boost=false]
///                      [comm_opt=true] [chunks=1] [gpus=true]

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "des/workload.hpp"
#include "scenarios/scenarios.hpp"

int main(int argc, char** argv) try {
  using namespace octo;
  const auto cfg = config::from_args(argc, argv);

  auto sc = scen::by_name(cfg.get("scenario", std::string("rotating_star")));
  const int level = cfg.get("level", 5);
  const auto m = machine::by_name(cfg.get("machine", std::string("fugaku")));

  des::workload_options opt;
  opt.simd = cfg.get("simd", true);
  opt.boost = cfg.get("boost", false);
  opt.comm_opt = cfg.get("comm_opt", true);
  opt.m2l_chunks = cfg.get("chunks", 1);
  opt.use_gpus = cfg.get("gpus", true);

  std::vector<int> nodes;
  {
    std::stringstream ss(cfg.get("nodes", std::string("1,2,4,8,16,32,64")));
    for (std::string tok; std::getline(ss, tok, ',');) {
      char* end = nullptr;
      const long n = std::strtol(tok.c_str(), &end, 10);
      OCTO_CHECK_MSG(!tok.empty() && *end == '\0' && n > 0 && n <= INT_MAX,
                     "config key 'nodes' has a token that is not a positive "
                     "integer: '" << tok << "'");
      nodes.push_back(static_cast<int>(n));
    }
  }

  const auto topo = sc.make_topology(level);
  std::printf("%s level %d on %s: %lld sub-grids (%.3g cells)\n",
              sc.name.c_str(), level, m.name.c_str(),
              static_cast<long long>(topo.num_leaves()),
              static_cast<double>(topo.num_cells()));
  std::printf("knobs: simd=%d boost=%d comm_opt=%d chunks=%d gpus=%d\n\n",
              opt.simd, opt.boost, opt.comm_opt, opt.m2l_chunks,
              opt.use_gpus);

  table t({"nodes", "step [s]", "cells/s", "speedup", "cpu util",
           "gpu util", "W/node", "msgs"});
  double base = 0;
  for (const int n : nodes) {
    const auto r = des::run_experiment(topo, m, n, opt);
    if (base == 0) base = r.cells_per_sec;
    t.add_row({table::fmt(static_cast<long long>(n)),
               table::fmt(r.step_seconds), table::fmt(r.cells_per_sec),
               table::fmt(r.cells_per_sec / base),
               table::fmt(r.cpu_utilization),
               table::fmt(r.gpu_utilization),
               table::fmt(r.avg_node_power_w),
               table::fmt(static_cast<long long>(r.messages))});
  }
  t.print(std::cout);
  return 0;
} catch (const octo::error& e) {
  // A bad argument or environment value: report it, no abort.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
