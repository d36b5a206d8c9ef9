/// \file octo_analyze.cpp
/// Offline analyzer over the observability artifacts the runtime emits:
///
///   octo_analyze trace.json                   # span/utilization report
///   octo_analyze metrics.jsonl                # per-step metrics summary
///   octo_analyze --baseline old.jsonl new.jsonl --threshold 10
///                                             # flag per-step regressions
///   octo_analyze --race-audit graph.json      # happens-before audit of a
///                                             # dumped step graph
///
/// Files are classified by extension (.jsonl = metrics, anything else =
/// Chrome trace) or forced with --trace / --metrics.  All of the real work
/// lives in apex/analyze.hpp (and apex/race_audit.hpp for --race-audit) so
/// the test suite drives the same code paths.
///
/// The metrics summary includes the SDC counters (sdc_audits/detected/
/// retries/rollbacks); a run whose final sdc_detected is nonzero always
/// fails a --baseline gate regardless of the threshold.

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apex/analyze.hpp"
#include "apex/race_audit.hpp"
#include "common/error.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: octo_analyze [options] <file>...\n"
        "  <file>                .jsonl = per-step metrics, else Chrome trace\n"
        "  --trace FILE          force FILE to be read as a Chrome trace\n"
        "  --metrics FILE        force FILE to be read as metrics JSONL\n"
        "  --baseline FILE       metrics JSONL to diff the current metrics "
        "against\n"
        "  --top N               slowest task instances to list (default 10)\n"
        "  --threshold PCT       regression threshold in percent (default "
        "5)\n"
        "  --race-audit FILE     audit a step-graph JSON (OCTO_RACE_AUDIT_DUMP"
        ") for\n"
        "                        unordered conflicting task footprints\n"
        "  --drop-edge FROM:TO   with --race-audit: ignore recorded FROM->TO\n"
        "                        class edges (missing-edge what-if)\n";
}

[[noreturn]] void bad_value(const std::string& flag, const std::string& value,
                            const char* expected) {
  std::cerr << "octo_analyze: " << flag << " wants " << expected << ", got '"
            << value << "'\n";
  std::exit(2);
}

/// The whole of \p value must be a base-10 count (no sign, no suffix).
std::size_t parse_count(const std::string& flag, const std::string& value) {
  errno = 0;
  const unsigned long long n = std::strtoull(value.c_str(), nullptr, 10);
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE)
    bad_value(flag, value, "a non-negative integer");
  return static_cast<std::size_t>(n);
}

/// The whole of \p value must be a finite number >= 0.
double parse_percent(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const double x = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || !(x >= 0) || !std::isfinite(x))
    bad_value(flag, value, "a non-negative number");
  return x;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> trace_files, metrics_files, race_files;
  std::string baseline_file;
  octo::apex::race_audit_options race_opt;
  std::size_t top_k = 10;
  double threshold_pct = 5;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "octo_analyze: " << arg << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-h" || arg == "--help") {
      usage(std::cout);
      return 0;
    } else if (arg == "--trace") {
      trace_files.push_back(next());
    } else if (arg == "--metrics") {
      metrics_files.push_back(next());
    } else if (arg == "--baseline") {
      baseline_file = next();
    } else if (arg == "--top") {
      top_k = parse_count(arg, next());
    } else if (arg == "--threshold") {
      threshold_pct = parse_percent(arg, next());
    } else if (arg == "--race-audit") {
      race_files.push_back(next());
    } else if (arg == "--drop-edge") {
      const std::string spec = next();
      const std::size_t colon = spec.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == spec.size()) {
        std::cerr << "octo_analyze: --drop-edge wants FROM:TO, got '" << spec
                  << "'\n";
        return 2;
      }
      race_opt.drop_edge_from = spec.substr(0, colon);
      race_opt.drop_edge_to = spec.substr(colon + 1);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "octo_analyze: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else if (ends_with(arg, ".jsonl")) {
      metrics_files.push_back(arg);
    } else {
      trace_files.push_back(arg);
    }
  }
  if (trace_files.empty() && metrics_files.empty() && race_files.empty()) {
    usage(std::cerr);
    return 2;
  }

  try {
    bool races_found = false;
    for (const auto& f : race_files) {
      std::cout << "== race-audit: " << f << " ==\n";
      std::ifstream in(f);
      OCTO_CHECK_MSG(in.good(), "cannot open " << f);
      std::ostringstream text;
      text << in.rdbuf();
      const auto graph = octo::apex::load_graph_json(text.str());
      const auto res = octo::apex::audit_races(graph.graph, race_opt);
      std::cout << res.summary() << "\n";
      if (!res.clean()) races_found = true;
    }
    if (races_found) return 1;
    for (const auto& f : trace_files) {
      std::cout << "== trace: " << f << " ==\n";
      const auto t = octo::apex::load_chrome_trace(f);
      octo::apex::print_trace_report(std::cout, t, top_k);
    }
    for (const auto& f : metrics_files) {
      std::cout << "== metrics: " << f << " ==\n";
      const auto steps = octo::apex::load_metrics_jsonl(f);
      octo::apex::print_metrics_report(std::cout, steps);
      if (!baseline_file.empty()) {
        const auto base = octo::apex::load_metrics_jsonl(baseline_file);
        const auto regs =
            octo::apex::baseline_diff(base, steps, threshold_pct);
        octo::apex::print_baseline_diff(std::cout, regs, threshold_pct);
        if (!regs.empty()) return 1;  // regressions found: nonzero exit
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "octo_analyze: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
