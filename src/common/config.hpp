#pragma once
/// \file config.hpp
/// Minimal key=value configuration store with typed accessors.
///
/// Used by the examples and benchmark harness to accept command-line
/// overrides (`./quickstart level=4 steps=10`).  Keys are case-sensitive.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace octo {

/// One registered OCTO_* environment variable (see config::env_registry()).
struct env_var_info {
  const char* name;  ///< full variable name, e.g. "OCTO_TRACE"
  const char* doc;   ///< one-line description (rendered into EXPERIMENTS.md)
};

class config {
 public:
  config() = default;

  /// Parse `key=value` tokens from a command line; tokens without '=' are
  /// collected as positional arguments.
  static config from_args(int argc, const char* const* argv);

  /// Read one environment variable (nullopt when unset or empty).  A name
  /// starting with "OCTO_" must be declared in env_registry(); an
  /// unregistered read throws octo::error so new knobs cannot bypass the
  /// registry (tools/octo_lint enforces the same rule statically).
  static std::optional<std::string> env(const std::string& name);

  /// Strict 0/1 switch read through env(): unset or empty gives \p dflt;
  /// any value other than "0" or "1" throws octo::error naming \p name and
  /// the value.
  static bool env_switch(const std::string& name, bool dflt);

  /// Strict positive base-10 integer read through env(): unset or empty
  /// gives \p dflt; zero, a value above \p max or anything malformed
  /// throws octo::error naming \p name and the value.
  static std::uint64_t env_positive(const std::string& name,
                                    std::uint64_t dflt, std::uint64_t max);

  /// Throws octo::error naming every OCTO_* variable in the process
  /// environment that env_registry() does not declare.  Nothing reads such
  /// a variable, so a stale or misspelled knob would otherwise be ignored
  /// without a word; amt::runtime calls this before it starts a worker.
  static void check_environment();

  /// Central registry of every OCTO_* environment variable the project
  /// reads, with one-line docs.  This is the single source of truth: env()
  /// rejects unregistered names, the rendered table in EXPERIMENTS.md is
  /// schema-sync-checked against it (tests/lint_test.cpp), and
  /// tools/octo_lint rejects OCTO_* string literals absent from it.
  static const std::vector<env_var_info>& env_registry();

  /// True when \p name is declared in env_registry().
  static bool env_registered(const std::string& name);

  /// Import `<prefix>FOO=bar` environment variables as key `foo` = `bar`
  /// (prefix stripped, key lowercased).  Existing keys win, so command-line
  /// `key=value` tokens override the environment.  Returns *this.
  config& merge_env(const std::vector<std::string>& names,
                    const std::string& prefix = "OCTO_");

  void set(const std::string& key, const std::string& value);

  bool has(const std::string& key) const;

  /// Typed getters with a default for missing keys.  Throws octo::error on a
  /// malformed value so typos fail loudly rather than silently defaulting.
  std::string get(const std::string& key, const std::string& dflt) const;
  long get(const std::string& key, long dflt) const;
  int get(const std::string& key, int dflt) const;
  double get(const std::string& key, double dflt) const;
  bool get(const std::string& key, bool dflt) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::map<std::string, std::string>& entries() const { return kv_; }

 private:
  std::optional<std::string> find(const std::string& key) const;

  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace octo
