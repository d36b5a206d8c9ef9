#include "common/config.hpp"

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
      {"OCTO_TRACE", "trace sink: file path, or existing directory for the per-locality distributed bundle"},
      {"OCTO_TRACE_BUFFER", "per-thread trace ring capacity in events"},
      {"OCTO_TRACE_SKEW_US", "injected per-locality clock skew for trace merging, microseconds"},
      {"OCTO_METRICS", "per-step metrics JSONL output path (examples read it via merge_env)"},
      {"OCTO_AUDIT", "silent-data-corruption auditing: 0 disables (default on)"},
      {"OCTO_AUDIT_EVERY", "physics-invariant audit cadence in steps (default 4)"},
      {"OCTO_FAULT_SEED", "fault injector RNG seed (splitmix64 stream)"},
      {"OCTO_FAULT_GHOST_CORRUPT", "bit-flip the nth serialized ghost slab (1-based; 0 disarms)"},
      {"OCTO_FAULT_GHOST_TRUNCATE", "truncate the nth serialized ghost slab to half its size"},
      {"OCTO_FAULT_CKPT_SHORT_WRITE", "checkpoint streams stop after this many bytes (crash mid-write)"},
      {"OCTO_FAULT_CKPT_BITFLIP", "flip one bit of the checkpoint byte at this stream offset"},
      {"OCTO_FAULT_STEP", "throw octo::error at the nth maybe_fail_step() call (1-based)"},
      {"OCTO_FAULT_MSG_DROP", "drop each transport frame with this probability [0,1]"},
      {"OCTO_FAULT_MSG_DELAY_US", "delay each frame by uniform-random [0,max] microseconds"},
      {"OCTO_FAULT_MSG_DUP", "duplicate each transport frame with this probability [0,1]"},
      {"OCTO_FAULT_MSG_REORDER", "hold a frame past its successor with this probability [0,1]"},
      {"OCTO_FAULT_LOCALITY_KILL", "<loc>:<step> — declare locality loc dead at integration step step"},
      {"OCTO_FAULT_STATE_BITFLIP", "<loc>:<step>:<leaf>:<field>[:<count>] or random:<step>[:<count>] — conserved-field soft error"},
      {"OCTO_FAULT_MOMENT_BITFLIP", "<loc>:<step>:<leaf>:<coeff>[:<count>] or random:<step>[:<count>] — multipole-moment soft error"},
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
