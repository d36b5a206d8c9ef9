#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apex/apex.hpp"
#include "common/config.hpp"
#include "lint_core.hpp"

namespace octo::lint {
namespace {

std::string fixture(const std::string& name) {
  const std::string path =
      std::string(OCTO_REPO_ROOT) + "/tests/lint_fixtures/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

registries repo_registries() { return load_registries(OCTO_REPO_ROOT); }

bool has_rule(const std::vector<finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const finding& f) { return f.rule == rule; });
}

TEST(Lint, UnregisteredEnvVarFixtureIsDetected) {
  std::vector<finding> fs;
  lint_cpp_text("bad_env.cpp", fixture("bad_env.cpp"), repo_registries(),
                /*in_src=*/false, fs);
  ASSERT_TRUE(has_rule(fs, "env-registry"));
  const auto it = std::find_if(fs.begin(), fs.end(), [](const finding& f) {
    return f.rule == "env-registry";
  });
  EXPECT_NE(it->message.find("OCTO_NOT_REGISTERED"),  // octo-lint-allow(env-registry)
            std::string::npos);
  EXPECT_GT(it->line, 0);
}

TEST(Lint, RawGetenvFixtureIsDetected) {
  std::vector<finding> fs;
  lint_cpp_text("bad_getenv.cpp", fixture("bad_getenv.cpp"),
                repo_registries(), false, fs);
  EXPECT_TRUE(has_rule(fs, "getenv"));
  // The variable name itself is registered: only the getenv rule fires.
  EXPECT_FALSE(has_rule(fs, "env-registry"));
}

TEST(Lint, UnregisteredMetricFixtureIsDetected) {
  std::vector<finding> fs;
  lint_cpp_text("src/bad_metric.cpp", fixture("bad_metric.cpp"),
                repo_registries(), /*in_src=*/true, fs);
  ASSERT_TRUE(has_rule(fs, "metric-registry"));
  // Outside src/ the rule does not bind (tests use ad-hoc names).
  fs.clear();
  lint_cpp_text("tests/bad_metric.cpp", fixture("bad_metric.cpp"),
                repo_registries(), /*in_src=*/false, fs);
  EXPECT_FALSE(has_rule(fs, "metric-registry"));
}

TEST(Lint, BlockingGetInTaskBodyFixtureIsDetected) {
  std::vector<finding> fs;
  lint_cpp_text("bad_blocking_get.cpp", fixture("bad_blocking_get.cpp"),
                repo_registries(), false, fs);
  ASSERT_TRUE(has_rule(fs, "blocking-get"));
  // Exactly one: the f.wait() *after* the dataflow call is fine.
  EXPECT_EQ(std::count_if(
                fs.begin(), fs.end(),
                [](const finding& f) { return f.rule == "blocking-get"; }),
            1);
}

TEST(Lint, MissingCtestTimeoutFixtureIsDetected) {
  std::vector<finding> fs;
  lint_cmake_text("bad_cmake/CMakeLists.txt",
                  fixture("bad_cmake/CMakeLists.txt"), fs);
  // Both the bare add_test and the TIMEOUT-less gtest_discover_tests.
  EXPECT_EQ(std::count_if(
                fs.begin(), fs.end(),
                [](const finding& f) { return f.rule == "ctest-timeout"; }),
            2);
}

TEST(Lint, OrphanHeaderFixtureIsDetected) {
  std::vector<finding> fs;
  lint_orphan_headers(
      std::string(OCTO_REPO_ROOT) + "/tests/lint_fixtures/orphan_tree", fs);
  // Only the header that nothing but its own .cpp and a test includes;
  // the directory-relative and perfbench/ includes keep the others alive.
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "orphan-header");
  EXPECT_EQ(fs[0].file, "src/lib/orphan.hpp");
}

TEST(Lint, CleanFixturePasses) {
  std::vector<finding> fs;
  lint_cpp_text("src/clean.cpp", fixture("clean.cpp"), repo_registries(),
                /*in_src=*/true, fs);
  EXPECT_TRUE(fs.empty()) << fs.front().rule << ": " << fs.front().message;
}

TEST(Lint, WholeTreeIsClean) {
  const auto fs = run(OCTO_REPO_ROOT);
  std::ostringstream os;
  for (const auto& f : fs)
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  EXPECT_TRUE(fs.empty()) << os.str();
}

TEST(Lint, CommentsAndStringsDoNotFoolTheScanner) {
  registries reg = repo_registries();
  std::vector<finding> fs;
  // getenv in a comment and in a string literal must not fire.
  lint_cpp_text("x.cpp",
                "// std::getenv(\"HOME\")\n"
                "const char* s = \"getenv(\";\n",
                reg, false, fs);
  EXPECT_FALSE(has_rule(fs, "getenv"));
  // ...but real code after a comment still does.
  fs.clear();
  lint_cpp_text("x.cpp", "/* hi */ auto p = getenv(\"PATH\");\n", reg,
                false, fs);
  EXPECT_TRUE(has_rule(fs, "getenv"));
}

TEST(Lint, AllowCommentSuppressesARule) {
  registries reg = repo_registries();
  std::vector<finding> fs;
  lint_cpp_text("x.cpp",
                "auto p = getenv(\"PATH\");  // octo-lint-allow(getenv)\n",
                reg, false, fs);
  EXPECT_FALSE(has_rule(fs, "getenv"));
}

// The env-var registry exists in two places: config::env_registry() and
// the EXPERIMENTS.md "Environment variable registry" table.  They drift
// independently, so assert both directions (same discipline as the
// metrics schema-sync test).
TEST(Lint, EnvRegistryTableMatchesDocs) {
  const std::string doc_path =
      std::string(OCTO_REPO_ROOT) + "/EXPERIMENTS.md";
  std::ifstream doc(doc_path);
  ASSERT_TRUE(doc.good()) << doc_path;
  std::vector<std::string> doc_vars;
  std::string line;
  bool in_table = false;
  while (std::getline(doc, line)) {
    if (line.find("| variable | meaning |") != std::string::npos) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (line.rfind("|", 0) != 0) break;  // table ended
    const std::size_t tick = line.find("| `OCTO_");
    if (tick == std::string::npos) continue;
    const std::size_t b = line.find('`');
    const std::size_t e = line.find('`', b + 1);
    ASSERT_NE(e, std::string::npos) << line;
    doc_vars.push_back(line.substr(b + 1, e - b - 1));
  }
  ASSERT_FALSE(doc_vars.empty()) << "env-var table missing from " << doc_path;

  std::vector<std::string> reg_vars;
  for (const auto& v : config::env_registry()) reg_vars.push_back(v.name);
  EXPECT_EQ(doc_vars, reg_vars)
      << "EXPERIMENTS.md env-var table and config::env_registry() must "
         "list the same variables in the same order";
}

TEST(Lint, RegistryTablesParseAndMatchRuntime) {
  const registries reg = repo_registries();
  // The textual parse and the compiled-in tables must agree — if they
  // drift the linter is checking a different registry than the runtime
  // enforces.
  const auto& env_rt = config::env_registry();
  ASSERT_EQ(reg.env.size(), env_rt.size());
  for (std::size_t i = 0; i < env_rt.size(); ++i)
    EXPECT_EQ(reg.env[i], env_rt[i].name);
  const auto& met_rt = apex::metric_registry();
  ASSERT_EQ(reg.metrics.size(), met_rt.size());
  for (std::size_t i = 0; i < met_rt.size(); ++i)
    EXPECT_EQ(reg.metrics[i], met_rt[i].name);
}

}  // namespace
}  // namespace octo::lint
