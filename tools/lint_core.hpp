#pragma once
/// \file lint_core.hpp
/// Project-rule linter (`octo_lint`, ctest label `lint`).  Token/regex
/// based — no compiler front end — enforcing the handful of conventions
/// the runtime depends on but the type system cannot express:
///
///   getenv          raw std::getenv outside common/config.cpp; everything
///                   must go through config::env so the env registry stays
///                   the single source of truth
///   env-registry    an "OCTO_*" string literal naming a variable absent
///                   from config::env_registry() (src/common/config.cpp)
///   metric-registry a registry::counter("x") / ::timer("x") in src/ whose
///                   name is absent from apex::metric_registry()
///                   (src/apex/apex.cpp; '*' entries are prefixes)
///   blocking-get    .get( / .wait( inside the argument extent of an
///                   amt::dataflow(...) call — a blocking wait inside a
///                   task body can deadlock the worker pool
///   ctest-timeout   an add_test() without a TIMEOUT property, or a
///                   gtest_discover_tests() without PROPERTIES TIMEOUT —
///                   a hung test must fail the suite, not wedge it
///   orphan-header   a header under src/ that no file under src/ (other
///                   than its own .cpp), tools/, bench/, examples/ or
///                   perfbench/ #includes — code only tests reach is dead
///
/// A line containing `octo-lint-allow(<rule>)` is exempt from <rule>
/// (orphan-header has no escape: give the header a consumer or delete it).
/// Paths containing "lint_fixtures" are never scanned by run() — they hold
/// the deliberately-broken inputs tests/lint_test.cpp feeds the per-file
/// entry points below.

#include <string>
#include <vector>

namespace octo::lint {

struct finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Registered-name tables, parsed textually from the tree (one
/// `{"name", "doc"},` entry per line inside the registry function).
struct registries {
  std::vector<std::string> env;      ///< from config::env_registry()
  std::vector<std::string> metrics;  ///< from apex::metric_registry()
};

/// Extract the names from a registry table: the `{"name", ...},` entries
/// between the line containing \p anchor and the closing `};`.
std::vector<std::string> parse_registry_table(const std::string& file_text,
                                              const std::string& anchor);

/// Load both tables from <repo_root>/src.  Throws octo::error if either
/// file or table is missing (the linter must not pass vacuously).
registries load_registries(const std::string& repo_root);

/// Lint one C++ translation unit.  \p in_src enables the metric-registry
/// rule (tests exercise the apex registry with ad-hoc names, so the rule
/// only binds under src/).  Appends to \p out.
void lint_cpp_text(const std::string& path, const std::string& text,
                   const registries& reg, bool in_src,
                   std::vector<finding>& out);

/// Lint one CMake listfile (the ctest-timeout rule).
void lint_cmake_text(const std::string& path, const std::string& text,
                     std::vector<finding>& out);

/// The orphan-header rule over the tree at \p root.  Quoted includes
/// resolve against <root>/src and against the including file's directory;
/// perfbench/ is only read, never linted.
void lint_orphan_headers(const std::string& root, std::vector<finding>& out);

/// Walk the tree (src/ tools/ tests/ bench/ examples/ + every
/// CMakeLists.txt) and apply all rules.  Skips paths containing
/// "lint_fixtures".  Adds the orphan-header findings.
std::vector<finding> run(const std::string& repo_root);

}  // namespace octo::lint
