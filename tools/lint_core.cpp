#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace octo::lint {

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  OCTO_CHECK_MSG(in.good(), "octo_lint: cannot read " << p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

int line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() +
                                             static_cast<std::ptrdiff_t>(pos),
                                         '\n'));
}

/// The raw text of the line containing \p pos (for the allow-comment
/// escape, which must see comments).
std::string line_text(const std::string& text, std::size_t pos) {
  std::size_t b = text.rfind('\n', pos);
  b = (b == std::string::npos) ? 0 : b + 1;
  std::size_t e = text.find('\n', pos);
  if (e == std::string::npos) e = text.size();
  return text.substr(b, e - b);
}

bool allowed(const std::string& text, std::size_t pos, const char* rule) {
  return line_text(text, pos).find(std::string("octo-lint-allow(") + rule +
                                   ")") != std::string::npos;
}

/// One string literal found while blanking.
struct literal {
  std::size_t pos;      ///< offset of the opening quote in the original
  std::string content;  ///< raw (unescaped) characters between the quotes
};

/// C++ comment/string stripper: returns a same-length copy with comment
/// bodies and string/char literal contents replaced by spaces (newlines
/// kept, so offsets and line numbers agree), collecting the literals.
/// Handles //, /* */, '...', "..." with escapes, and R"delim(...)delim".
std::string blank_noncode(const std::string& s, std::vector<literal>* lits) {
  std::string out = s;
  std::size_t i = 0;
  const auto blank = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to && k < out.size(); ++k)
      if (out[k] != '\n') out[k] = ' ';
  };
  while (i < s.size()) {
    const char c = s[i];
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
      std::size_t e = s.find('\n', i);
      if (e == std::string::npos) e = s.size();
      blank(i, e);
      i = e;
    } else if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
      std::size_t e = s.find("*/", i + 2);
      e = (e == std::string::npos) ? s.size() : e + 2;
      blank(i, e);
      i = e;
    } else if (c == 'R' && i + 1 < s.size() && s[i + 1] == '"' &&
               (i == 0 || !is_word(s[i - 1]))) {
      const std::size_t open = s.find('(', i + 2);
      if (open == std::string::npos) {
        ++i;
        continue;
      }
      const std::string close =
          ")" + s.substr(i + 2, open - (i + 2)) + "\"";
      std::size_t e = s.find(close, open + 1);
      e = (e == std::string::npos) ? s.size() : e + close.size();
      if (lits != nullptr)
        lits->push_back(
            literal{i, s.substr(open + 1, e - close.size() - (open + 1))});
      blank(i + 1, e);
      i = e;
    } else if (c == '"' || c == '\'') {
      std::size_t e = i + 1;
      std::string content;
      while (e < s.size() && s[e] != c) {
        if (s[e] == '\\' && e + 1 < s.size()) {
          content += s[e + 1];
          e += 2;
        } else {
          content += s[e];
          ++e;
        }
      }
      e = (e == std::string::npos || e >= s.size()) ? s.size() : e + 1;
      if (c == '"' && lits != nullptr) lits->push_back(literal{i, content});
      blank(i + 1, e - 1);
      i = e;
    } else {
      ++i;
    }
  }
  return out;
}

/// Find token \p tok (must end in '(') in blanked code at a word boundary.
std::size_t find_call(const std::string& code, const std::string& tok,
                      std::size_t from) {
  for (std::size_t p = code.find(tok, from); p != std::string::npos;
       p = code.find(tok, p + 1)) {
    if (p == 0 || !is_word(code[p - 1])) return p;
  }
  return std::string::npos;
}

/// End of the balanced-paren extent opened by code[open] == '('.
std::size_t paren_extent(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t p = open; p < code.size(); ++p) {
    if (code[p] == '(') ++depth;
    if (code[p] == ')' && --depth == 0) return p;
  }
  return code.size();
}

bool env_registered(const registries& reg, const std::string& name) {
  return std::find(reg.env.begin(), reg.env.end(), name) != reg.env.end();
}

bool metric_registered(const registries& reg, const std::string& name) {
  for (const auto& entry : reg.metrics) {
    if (!entry.empty() && entry.back() == '*') {
      if (name.rfind(entry.substr(0, entry.size() - 1), 0) == 0) return true;
    } else if (name == entry) {
      return true;
    }
  }
  return false;
}

/// First "..." literal inside code starting at \p from (blanked code tells
/// us where quotes are; \p lits supplies the content).
const literal* literal_at_or_after(const std::vector<literal>& lits,
                                   std::size_t from, std::size_t before) {
  for (const auto& l : lits)
    if (l.pos >= from && l.pos < before) return &l;
  return nullptr;
}

void check_getenv(const std::string& path, const std::string& text,
                  const std::string& code, std::vector<finding>& out) {
  if (path.find("common/config.cpp") != std::string::npos) return;
  for (std::size_t p = find_call(code, "getenv(", 0); p != std::string::npos;
       p = find_call(code, "getenv(", p + 1)) {
    if (allowed(text, p, "getenv")) continue;
    out.push_back(finding{path, line_of(text, p), "getenv",
                          "raw getenv — read the environment through "
                          "config::env so the variable is declared in "
                          "config::env_registry()"});
  }
}

/// OCTO_*-named identifiers that are not environment variables (assertion
/// macros, build-time defines) and may legitimately appear inside string
/// literals.
bool env_allowlisted(const std::string& name) {
  for (const char* ok :
       {"OCTO_CHECK", "OCTO_CHECK_MSG", "OCTO_ASSERT", "OCTO_REPO_ROOT"})
    if (name == ok) return true;
  return false;
}

void check_env_literals(const std::string& path, const std::string& text,
                        const std::vector<literal>& lits,
                        const registries& reg, std::vector<finding>& out) {
  for (const auto& l : lits) {
    const std::string& s = l.content;
    for (std::size_t p = s.find("OCTO_"); p != std::string::npos;
         p = s.find("OCTO_", p + 1)) {
      if (p > 0 && is_word(s[p - 1])) continue;
      std::size_t e = p + 5;
      while (e < s.size() &&
             (std::isupper(static_cast<unsigned char>(s[e])) != 0 ||
              std::isdigit(static_cast<unsigned char>(s[e])) != 0 ||
              s[e] == '_'))
        ++e;
      if (e == p + 5) continue;  // bare "OCTO_" prefix, not a name
      const std::string name = s.substr(p, e - p);
      if (env_registered(reg, name) || env_allowlisted(name)) continue;
      if (allowed(text, l.pos, "env-registry")) continue;
      out.push_back(finding{path, line_of(text, l.pos), "env-registry",
                            "'" + name +
                                "' is not declared in "
                                "config::env_registry() "
                                "(src/common/config.cpp)"});
    }
  }
}

void check_metric_names(const std::string& path, const std::string& text,
                        const std::string& code,
                        const std::vector<literal>& lits,
                        const registries& reg, std::vector<finding>& out) {
  for (const char* tok : {".counter(", ".timer("}) {
    // '.' is not a word char, so find the token directly.
    for (std::size_t p = code.find(tok, 0); p != std::string::npos;
         p = code.find(tok, p + 1)) {
      const std::size_t open = p + std::strlen(tok) - 1;
      const std::size_t close = paren_extent(code, open);
      const literal* l = literal_at_or_after(lits, open, close);
      if (l == nullptr) continue;  // name built dynamically with no prefix
      if (metric_registered(reg, l->content)) continue;
      if (allowed(text, p, "metric-registry")) continue;
      out.push_back(finding{path, line_of(text, p), "metric-registry",
                            "metric '" + l->content +
                                "' is not declared in "
                                "apex::metric_registry() "
                                "(src/apex/apex.cpp)"});
    }
  }
}

/// Argument extents (open and close paren offsets) of the calls whose
/// lambdas are task bodies: task_graph::add (`.add(` whose first argument
/// is the class name literal; the blanked code keeps the quotes) and
/// amt::run_each.
using extents = std::vector<std::pair<std::size_t, std::size_t>>;
extents task_body_extents(const std::string& code) {
  extents out;
  for (std::size_t p = code.find(".add(", 0); p != std::string::npos;
       p = code.find(".add(", p + 1)) {
    const std::size_t open = p + 4;
    const std::size_t name = code.find_first_not_of(" \t\n", open + 1);
    if (name == std::string::npos || code[name] != '"') continue;
    out.emplace_back(open, paren_extent(code, open));
  }
  for (std::size_t p = find_call(code, "run_each(", 0);
       p != std::string::npos; p = find_call(code, "run_each(", p + 1)) {
    const std::size_t open = p + 8;
    out.emplace_back(open, paren_extent(code, open));
  }
  return out;
}

/// A finding of \p rule for every \p token inside one of \p bodies.
void check_in_bodies(const std::string& path, const std::string& text,
                     const std::string& code, const extents& bodies,
                     const char* token, const char* rule,
                     const std::string& message, std::vector<finding>& out) {
  for (const auto& [open, close] : bodies) {
    for (std::size_t b = code.find(token, open);
         b != std::string::npos && b < close; b = code.find(token, b + 1)) {
      if (allowed(text, b, rule)) continue;
      out.push_back(finding{path, line_of(text, b), rule, message});
    }
  }
}

void check_task_bodies(const std::string& path, const std::string& text,
                       const std::string& code, std::vector<finding>& out) {
  const extents bodies = task_body_extents(code);
  for (const char* blocker : {".get(", ".wait("})
    check_in_bodies(path, text, code, bodies, blocker, "blocking-get",
                    std::string("blocking '") + blocker +
                        ")' inside a task body (task_graph::add or "
                        "amt::run_each) — declare what it reads in its "
                        "footprint instead of blocking a worker",
                    out);
  check_in_bodies(path, text, code, bodies, "scoped_trace_span", "task-span",
                  "trace span inside a task body (task_graph::add or "
                  "amt::run_each) — the graph already opens one under the "
                  "task's class; name the task by its class instead",
                  out);
}

/// Word-boundary search: "TIMEOUT" must not match inside
/// DISCOVERY_TIMEOUT.
bool has_token(const std::string& text, const char* tok) {
  const std::size_t n = std::strlen(tok);
  for (std::size_t p = text.find(tok); p != std::string::npos;
       p = text.find(tok, p + 1)) {
    const bool lb = p == 0 || !is_word(text[p - 1]);
    const bool rb = p + n >= text.size() || !is_word(text[p + n]);
    if (lb && rb) return true;
  }
  return false;
}

/// First CMake argument token after `add_test(` (skipping NAME).
std::string add_test_name(const std::string& text, std::size_t open,
                          std::size_t close) {
  std::istringstream args(text.substr(open + 1, close - open - 1));
  std::string tok;
  while (args >> tok) {
    if (tok == "NAME") continue;
    return tok;
  }
  return {};
}

/// Targets of the `#include "..."` lines in \p text.
std::vector<std::string> quoted_includes(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t p = line.find_first_not_of(" \t");
    if (p == std::string::npos || line[p] != '#') continue;
    p = line.find_first_not_of(" \t", p + 1);
    if (p == std::string::npos || line.compare(p, 7, "include") != 0)
      continue;
    const std::size_t q0 = line.find('"', p + 7);
    if (q0 == std::string::npos) continue;
    const std::size_t q1 = line.find('"', q0 + 1);
    if (q1 != std::string::npos)
      out.push_back(line.substr(q0 + 1, q1 - q0 - 1));
  }
  return out;
}

/// The .cpp/.hpp files under \p dirs of \p root.
std::vector<fs::path> cpp_files_under(const fs::path& root,
                                      std::initializer_list<const char*> dirs) {
  std::vector<fs::path> out;
  for (const char* dir : dirs) {
    const fs::path d = root / dir;
    if (!fs::exists(d)) continue;
    for (const auto& e : fs::recursive_directory_iterator(d)) {
      if (!e.is_regular_file()) continue;
      const std::string ext = e.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp")
        out.push_back(e.path().lexically_normal());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Adds to \p out every name blanked \p code assigns as `.name =` (not
/// `==`); each link of a chain such as `.audit.enabled =` counts.
void collect_assigned(const std::string& code, std::set<std::string>& out) {
  for (std::size_t p = code.find('='); p != std::string::npos;
       p = code.find('=', p + 1)) {
    if (p + 1 < code.size() && code[p + 1] == '=') {
      ++p;
      continue;
    }
    std::size_t e = p;
    while (e > 0 && (code[e - 1] == ' ' || code[e - 1] == '\t')) --e;
    while (true) {
      std::size_t b = e;
      while (b > 0 && is_word(code[b - 1])) --b;
      if (b == e || b == 0 || code[b - 1] != '.') break;
      out.insert(code.substr(b, e - b));
      e = b - 1;
    }
  }
}

/// One data member of a `struct *_options` definition.
struct option_field {
  std::string name;
  std::size_t pos;    ///< offset of the name in the file
  bool kept = false;  ///< carries an `// option kept: <consumer>` comment
};

/// Whether the raw lines of a declaration — the lines from \p first to
/// \p last plus the comment-only lines directly above — carry an
/// `option kept:` comment naming a consumer.
bool carries_kept_comment(const std::string& text, std::size_t first,
                          std::size_t last) {
  std::size_t b = text.rfind('\n', first);
  b = (b == std::string::npos) ? 0 : b + 1;
  while (b > 1) {  // b - 1 is the newline ending the line above
    std::size_t pb = text.rfind('\n', b - 2);
    pb = (pb == std::string::npos) ? 0 : pb + 1;
    const std::string above = text.substr(pb, b - 1 - pb);
    const std::size_t c = above.find_first_not_of(" \t");
    if (c == std::string::npos || above.compare(c, 2, "//") != 0) break;
    b = pb;
  }
  std::size_t e = text.find('\n', last);
  if (e == std::string::npos) e = text.size();
  const std::string decl = text.substr(b, e - b);
  static const std::string tag = "option kept:";
  const std::size_t k = decl.find(tag);
  if (k == std::string::npos) return false;
  const std::size_t eol = decl.find('\n', k);
  const std::string consumer =
      decl.substr(k + tag.size(), eol - k - tag.size());
  return consumer.find_first_not_of(" \t") != std::string::npos;
}

/// The data members of the struct whose body opens at code[open] == '{':
/// depth-1 statements that are not functions, statics or type aliases.
std::vector<option_field> struct_fields(const std::string& text,
                                        const std::string& code,
                                        std::size_t open) {
  std::vector<option_field> out;
  int depth = 0;
  std::size_t start = open + 1;
  for (std::size_t p = open; p < code.size(); ++p) {
    const char c = code[p];
    if (c == '{') ++depth;
    if (c == '}' && --depth == 0) break;
    const bool closes_body = c == '}' && depth == 1;
    if (!(c == ';' && depth == 1) && !closes_body) continue;
    const std::size_t begin = start;
    const std::string stmt = code.substr(begin, p - begin);
    const std::size_t eq = stmt.find_first_of("={");
    const std::size_t paren = stmt.find('(');
    const bool is_function = paren != std::string::npos && paren < eq;
    if (closes_body && (is_function || eq == std::string::npos)) {
      start = p + 1;  // a member function body (no ';' follows)
      continue;
    }
    if (closes_body) continue;  // brace initializer: the ';' ends it
    start = p + 1;
    std::istringstream words(stmt);
    std::string first;
    words >> first;
    if (is_function || first.empty() || first == "static" ||
        first == "using" || first == "friend" || first == "typedef" ||
        first == "enum" || first == "struct" || first == "class")
      continue;
    std::size_t e = std::min(eq, stmt.size());
    while (e > 0 && !is_word(stmt[e - 1])) --e;
    std::size_t b = e;
    while (b > 0 && is_word(stmt[b - 1])) --b;
    if (b == e) continue;
    const std::size_t first_pos = begin + stmt.find_first_not_of(" \t\n");
    out.push_back(option_field{stmt.substr(b, e - b), begin + b,
                               carries_kept_comment(text, first_pos, p)});
  }
  return out;
}

}  // namespace

std::vector<std::string> parse_registry_table(const std::string& file_text,
                                              const std::string& anchor) {
  std::vector<std::string> names;
  const std::size_t start = file_text.find(anchor);
  OCTO_CHECK_MSG(start != std::string::npos,
                 "octo_lint: registry anchor '" << anchor << "' not found");
  const std::size_t end = file_text.find("};", start);
  std::istringstream body(
      file_text.substr(start, end == std::string::npos ? std::string::npos
                                                       : end - start));
  std::string line;
  while (std::getline(body, line)) {
    const std::size_t q0 = line.find("{\"");
    if (q0 == std::string::npos) continue;
    const std::size_t q1 = line.find('"', q0 + 2);
    if (q1 == std::string::npos) continue;
    names.push_back(line.substr(q0 + 2, q1 - (q0 + 2)));
  }
  OCTO_CHECK_MSG(!names.empty(),
                 "octo_lint: registry table after '" << anchor << "' is empty");
  return names;
}

registries load_registries(const std::string& repo_root) {
  registries reg;
  reg.env = parse_registry_table(
      read_file(fs::path(repo_root) / "src/common/config.cpp"),
      "config::env_registry()");
  reg.metrics = parse_registry_table(
      read_file(fs::path(repo_root) / "src/apex/apex.cpp"),
      "metric_registry()");
  return reg;
}

void lint_cpp_text(const std::string& path, const std::string& text,
                   const registries& reg, bool in_src,
                   std::vector<finding>& out) {
  std::vector<literal> lits;
  const std::string code = blank_noncode(text, &lits);
  check_getenv(path, text, code, out);
  check_env_literals(path, text, lits, reg, out);
  if (in_src) check_metric_names(path, text, code, lits, reg, out);
  check_task_bodies(path, text, code, out);
}

void lint_cmake_text(const std::string& path, const std::string& text,
                     std::vector<finding>& out) {
  for (std::size_t p = find_call(text, "add_test(", 0);
       p != std::string::npos; p = find_call(text, "add_test(", p + 1)) {
    const std::size_t open = p + 8;
    const std::size_t close = paren_extent(text, open);
    const std::string name = add_test_name(text, open, close);
    // Satisfied by a TIMEOUT in the same call, or by a later
    // set_tests_properties(<name> ... TIMEOUT ...) in the same file
    // (<name> matched textually, so ${var} forms pair up too).
    bool has_timeout = has_token(text.substr(open, close - open), "TIMEOUT");
    for (std::size_t q = find_call(text, "set_tests_properties(", 0);
         !has_timeout && q != std::string::npos;
         q = find_call(text, "set_tests_properties(", q + 1)) {
      const std::size_t qclose = paren_extent(text, q + 21);
      const std::string props = text.substr(q, qclose - q);
      has_timeout = !name.empty() &&
                    props.find(name) != std::string::npos &&
                    has_token(props, "TIMEOUT");
    }
    if (has_timeout || allowed(text, p, "ctest-timeout")) continue;
    out.push_back(finding{path, line_of(text, p), "ctest-timeout",
                          "add_test(" + name +
                              ") has no TIMEOUT — a hang must fail the "
                              "suite, not wedge it"});
  }
  for (std::size_t p = find_call(text, "gtest_discover_tests(", 0);
       p != std::string::npos;
       p = find_call(text, "gtest_discover_tests(", p + 1)) {
    const std::size_t close = paren_extent(text, p + 21);
    if (has_token(text.substr(p, close - p), "TIMEOUT")) continue;
    if (allowed(text, p, "ctest-timeout")) continue;
    out.push_back(finding{path, line_of(text, p), "ctest-timeout",
                          "gtest_discover_tests() without PROPERTIES "
                          "TIMEOUT"});
  }
}

void lint_orphan_headers(const std::string& root,
                         std::vector<finding>& out) {
  const fs::path r(root);
  const std::vector<fs::path> includers =
      cpp_files_under(r, {"src", "tools", "bench", "examples", "perfbench"});
  std::vector<fs::path> headers;
  for (const fs::path& f : cpp_files_under(r, {"src"}))
    if (f.extension() == ".hpp") headers.push_back(f);
  std::vector<bool> used(headers.size(), false);
  for (const auto& f : includers) {
    for (const std::string& inc : quoted_includes(read_file(f))) {
      for (const fs::path& cand :
           {(r / "src" / inc).lexically_normal(),
            (f.parent_path() / inc).lexically_normal()}) {
        const auto it = std::find(headers.begin(), headers.end(), cand);
        if (it == headers.end()) continue;
        fs::path own_cpp = cand;
        own_cpp.replace_extension(".cpp");
        if (f != own_cpp)
          used[static_cast<std::size_t>(it - headers.begin())] = true;
      }
    }
  }
  for (std::size_t i = 0; i < headers.size(); ++i)
    if (!used[i])
      out.push_back(finding{fs::relative(headers[i], r).generic_string(), 1,
                            "orphan-header",
                            "no file under src/ (other than its own .cpp), "
                            "tools/, bench/, examples/ or perfbench/ "
                            "includes this header — code only tests reach "
                            "is dead"});
}

void lint_unset_options(const std::string& root, std::vector<finding>& out) {
  const fs::path r(root);
  std::set<std::string> assigned;
  for (const fs::path& f : cpp_files_under(
           r, {"src", "bench", "examples", "tools", "perfbench"}))
    collect_assigned(blank_noncode(read_file(f), nullptr), assigned);
  for (const fs::path& f : cpp_files_under(r, {"src"})) {
    const std::string text = read_file(f);
    const std::string code = blank_noncode(text, nullptr);
    for (std::size_t p = find_call(code, "struct ", 0);
         p != std::string::npos; p = find_call(code, "struct ", p + 1)) {
      std::istringstream decl(code.substr(p + 7, 128));
      std::string name, brace;
      decl >> name >> brace;
      const std::string suffix = "_options";
      if (brace != "{" || name.size() <= suffix.size() ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
              0)
        continue;
      for (const option_field& field :
           struct_fields(text, code, code.find('{', p))) {
        if (field.kept || assigned.count(field.name) != 0) continue;
        out.push_back(finding{
            fs::relative(f, r).generic_string(), line_of(text, field.pos),
            "unset-option",
            name + "::" + field.name +
                " is assigned by no file under src/, bench/, examples/, "
                "tools/ or perfbench/ — make it a constant in the .cpp "
                "that reads it, or name its consumer with "
                "`// option kept: <consumer>`"});
      }
    }
  }
}

std::vector<finding> run(const std::string& repo_root) {
  const registries reg = load_registries(repo_root);
  std::vector<finding> out;
  const fs::path root(repo_root);

  std::vector<fs::path> cpp_files, cmake_files;
  for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
    const fs::path d = root / dir;
    if (!fs::exists(d)) continue;
    for (const auto& e : fs::recursive_directory_iterator(d)) {
      if (!e.is_regular_file()) continue;
      const std::string p = e.path().string();
      if (p.find("lint_fixtures") != std::string::npos) continue;
      const std::string ext = e.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp") cpp_files.push_back(e.path());
      if (e.path().filename() == "CMakeLists.txt")
        cmake_files.push_back(e.path());
    }
  }
  cmake_files.push_back(root / "CMakeLists.txt");
  std::sort(cpp_files.begin(), cpp_files.end());
  std::sort(cmake_files.begin(), cmake_files.end());

  for (const auto& f : cpp_files) {
    const std::string rel = fs::relative(f, root).generic_string();
    lint_cpp_text(rel, read_file(f), reg, rel.rfind("src/", 0) == 0, out);
  }
  for (const auto& f : cmake_files) {
    const std::string rel = fs::relative(f, root).generic_string();
    lint_cmake_text(rel, read_file(f), out);
  }
  lint_orphan_headers(repo_root, out);
  lint_unset_options(repo_root, out);
  return out;
}

}  // namespace octo::lint
