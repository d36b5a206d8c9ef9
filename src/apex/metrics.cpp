#include "apex/metrics.hpp"

#include <cstdio>
#include <string>
#include <type_traits>
#include <variant>

namespace octo::apex {

namespace {

/// Append column \p c of \p rec: `%d`, `%llu` or `%.9g` by member type.
void append_value(std::string& out, const step_record& rec,
                  const step_column& c) {
  char value[32];
  std::visit(
      [&](auto member) {
        const auto v = rec.*member;
        using field = std::remove_const_t<decltype(v)>;
        if constexpr (std::is_same_v<field, int>)
          std::snprintf(value, sizeof value, "%d", v);
        else if constexpr (std::is_same_v<field, double>)
          std::snprintf(value, sizeof value, "%.9g", v);
        else
          std::snprintf(value, sizeof value, "%llu",
                        static_cast<unsigned long long>(v));
      },
      c.member);
  out += value;
}

}  // namespace

bool metrics_sink::open(const std::string& path) {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.open(path, std::ios::trunc);
  if (!out_.good()) return false;
  path_ = path;
  format_ = csv ? format::csv : format::jsonl;
  emitted_ = 0;
  return true;
}

void metrics_sink::emit(const step_record& rec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!out_.is_open()) return;
  std::string line;
  if (format_ == format::csv) {
    if (emitted_ == 0) {
      for (const step_column& c : step_columns) {
        if (&c != step_columns) line += ',';
        line += c.name;
      }
      line += '\n';
    }
    for (const step_column& c : step_columns) {
      if (&c != step_columns) line += ',';
      append_value(line, rec, c);
    }
    line += '\n';
  } else {
    line += '{';
    for (const step_column& c : step_columns) {
      if (&c != step_columns) line += ',';
      ((line += '"') += c.name) += "\":";
      append_value(line, rec, c);
    }
    line += "}\n";
  }
  out_ << line;
  out_.flush();  // steps are seconds-scale; make records crash-durable
  ++emitted_;
}

void metrics_sink::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (out_.is_open()) out_.close();
  path_.clear();
}

}  // namespace octo::apex
