#include "common/config.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace octo {

config config::from_args(int argc, const char* const* argv) {
  config c;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      c.positional_.push_back(tok);
    } else {
      c.set(tok.substr(0, eq), tok.substr(eq + 1));
    }
  }
  return c;
}

// The OCTO_* environment-variable registry.  Keep one `{"OCTO_...", "doc"}`
// entry per line: tools/octo_lint and the EXPERIMENTS.md schema-sync test
// (tests/lint_test.cpp) both parse this block textually.
const std::vector<env_var_info>& config::env_registry() {
  static const std::vector<env_var_info> table = {
      {"OCTO_STEP_MODE", "step execution mode: barrier (default) or dataflow"},
      {"OCTO_RACE_AUDIT", "1 = audit each recorded step for unordered conflicting task footprints (apex/race_audit.hpp)"},
      {"OCTO_RACE_AUDIT_DUMP", "path: dump each audited step's task graph + footprints as JSON for octo_analyze --race-audit"},
      {"OCTO_TRACE", "Chrome trace output file, written at exit (a cluster run traces to one file too)"},
      {"OCTO_TRACE_BUFFER", "per-thread trace ring capacity in events (a positive integer)"},
      {"OCTO_METRICS", "per-step metrics JSONL output path (examples read it via merge_env)"},
      {"OCTO_AUDIT", "silent-data-corruption auditing: 0 disables, 1 enables (default on)"},
      {"OCTO_AUDIT_EVERY", "physics-invariant audit cadence in steps, a positive integer (default 4)"},
  };
  return table;
}

bool config::env_registered(const std::string& name) {
  for (const auto& v : env_registry())
    if (name == v.name) return true;
  return false;
}

std::optional<std::string> config::env(const std::string& name) {
  OCTO_CHECK_MSG(name.rfind("OCTO_", 0) != 0 || env_registered(name),
                 "unregistered environment variable '"
                     << name << "' — declare it in config::env_registry() "
                     << "(src/common/config.cpp) with a one-line doc");
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || v[0] == '\0') return std::nullopt;
  return std::string(v);
}

bool config::env_switch(const std::string& name, bool dflt) {
  const auto v = env(name);
  if (!v) return dflt;
  if (*v == "0") return false;
  if (*v == "1") return true;
  throw error(name + "='" + *v + "' is not a switch (expected 0 or 1)");
}

std::uint64_t config::env_positive(const std::string& name,
                                   std::uint64_t dflt, std::uint64_t max) {
  const auto v = env(name);
  if (!v) return dflt;
  // Base-10 digits only: no sign, no spaces, no suffix; the running value
  // is bounded by max, so overflow is rejected along with out-of-range.
  std::uint64_t n = 0;
  bool ok = true;
  for (const char c : *v) {
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (c < '0' || c > '9' || d > max || n > (max - d) / 10) {
      ok = false;
      break;
    }
    n = n * 10 + d;
  }
  if (!ok || n == 0)
    throw error(name + "='" + *v +
                "' is not a positive base-10 integer (at most " +
                std::to_string(max) + ")");
  return n;
}

void config::check_environment() {
  std::string unknown;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string var = *e;
    if (var.rfind("OCTO_", 0) != 0) continue;
    const std::string name = var.substr(0, var.find('='));
    if (env_registered(name)) continue;
    unknown += (unknown.empty() ? "'" : ", '") + name + "'";
  }
  if (!unknown.empty())
    throw error("unregistered OCTO_* environment variable(s) set: " +
                unknown +
                " — no code reads them, so they would be silently ignored "
                "(declared names: config::env_registry() in "
                "src/common/config.cpp)");
}

config& config::merge_env(const std::vector<std::string>& names,
                          const std::string& prefix) {
  for (const auto& key : names) {
    if (has(key)) continue;
    std::string var = prefix;
    for (const char c : key)
      var += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    if (const auto v = env(var)) set(key, *v);
  }
  return *this;
}

void config::set(const std::string& key, const std::string& value) {
  kv_[key] = value;
}

bool config::has(const std::string& key) const { return kv_.count(key) > 0; }

std::optional<std::string> config::find(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string config::get(const std::string& key, const std::string& dflt) const {
  return find(key).value_or(dflt);
}

long config::get(const std::string& key, long dflt) const {
  const auto v = find(key);
  if (!v) return dflt;
  char* end = nullptr;
  const long r = std::strtol(v->c_str(), &end, 10);
  OCTO_CHECK_MSG(end && *end == '\0' && !v->empty(),
                 "config key '" << key << "' is not an integer: " << *v);
  return r;
}

int config::get(const std::string& key, int dflt) const {
  return static_cast<int>(get(key, static_cast<long>(dflt)));
}

double config::get(const std::string& key, double dflt) const {
  const auto v = find(key);
  if (!v) return dflt;
  char* end = nullptr;
  const double r = std::strtod(v->c_str(), &end);
  OCTO_CHECK_MSG(end && *end == '\0' && !v->empty(),
                 "config key '" << key << "' is not a number: " << *v);
  return r;
}

bool config::get(const std::string& key, bool dflt) const {
  const auto v = find(key);
  if (!v) return dflt;
  if (*v == "1" || *v == "true" || *v == "on" || *v == "yes") return true;
  if (*v == "0" || *v == "false" || *v == "off" || *v == "no") return false;
  OCTO_CHECK_MSG(false, "config key '" << key << "' is not a boolean: " << *v);
  return dflt;
}

}  // namespace octo
