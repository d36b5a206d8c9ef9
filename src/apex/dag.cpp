#include "apex/dag.hpp"

#include <utility>

namespace octo::apex {

std::atomic<bool>& dag_recorder::enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

dag_recorder& dag_recorder::instance() {
  static dag_recorder r;
  return r;
}

void dag_recorder::begin_step() {
  const std::lock_guard<std::mutex> lock(mutex_);
  nodes_.clear();
  enabled_flag().store(true, std::memory_order_relaxed);
}

graph_profile dag_recorder::end_step() {
  enabled_flag().store(false, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  graph_profile g;
  g.nodes.assign(nodes_.begin(), nodes_.end());
  nodes_.clear();
  return g;
}

dag_node* dag_recorder::on_create(const char* cls,
                                  const std::vector<std::uint32_t>& deps,
                                  std::vector<mem_access> fp) {
  if (!enabled()) return nullptr;
  const std::lock_guard<std::mutex> lock(mutex_);
  dag_node& node = nodes_.emplace_back();
  node.cls = cls != nullptr ? cls : "task";
  node.id = static_cast<std::uint32_t>(nodes_.size() - 1);
  node.deps = deps;
  node.footprint = std::move(fp);
  return &node;
}

}  // namespace octo::apex
