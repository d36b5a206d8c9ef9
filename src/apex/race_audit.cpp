#include "apex/race_audit.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "apex/apex.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace octo::apex {

const char* rgn_name(rgn r) {
  switch (r) {
    case rgn::field: return "field";
    case rgn::ghost: return "ghost";
    case rgn::stage0: return "stage0";
    case rgn::moment: return "moment";
    case rgn::expansion: return "expansion";
    case rgn::gout: return "gout";
    case rgn::fcbuf: return "fcbuf";
    case rgn::slot: return "slot";
    case rgn::dtred: return "dtred";
  }
  return "?";
}

namespace {

/// Stop collecting after this many conflicts (the graph is usually either
/// clean or systematically broken).
constexpr std::size_t max_conflicts = 32;

rgn rgn_from_name(const std::string& s) {
  for (int i = 0; i <= static_cast<int>(rgn::dtred); ++i)
    if (s == rgn_name(static_cast<rgn>(i))) return static_cast<rgn>(i);
  throw error("unknown region kind '" + s + "' in race-audit graph");
}

std::string access_str(const mem_access& a) {
  std::ostringstream os;
  os << (a.write ? "writes " : "reads ") << rgn_name(a.region) << "(node "
     << a.node;
  if (a.part != any_part) os << ", part " << a.part;
  os << ")";
  return os.str();
}

/// Per-node ancestor sets over the recorded edges: bit d of reach[i] means
/// node d happens-before node i.  Creation order is topological (deps have
/// lower ids), so one forward pass suffices.
class ancestor_sets {
 public:
  explicit ancestor_sets(std::size_t n)
      : words_((n + 63) / 64), bits_(n * words_, 0) {}

  void add_edge(std::uint32_t from, std::uint32_t to) {
    std::uint64_t* dst = row(to);
    const std::uint64_t* src = row(from);
    for (std::size_t w = 0; w < words_; ++w) dst[w] |= src[w];
    dst[from / 64] |= std::uint64_t(1) << (from % 64);
  }

  bool ordered(std::uint32_t lo, std::uint32_t hi) const {
    return (row(hi)[lo / 64] >> (lo % 64)) & 1;
  }

 private:
  std::uint64_t* row(std::uint32_t i) { return bits_.data() + i * words_; }
  const std::uint64_t* row(std::uint32_t i) const {
    return bits_.data() + i * words_;
  }
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

bool parts_overlap(const mem_access& a, const mem_access& b) {
  return a.part == any_part || b.part == any_part || a.part == b.part;
}

}  // namespace

std::string race_conflict::describe() const {
  std::ostringstream os;
  os << first_cls << "#" << first_id << " " << access_str(first_access)
     << " and " << second_cls << "#" << second_id << " "
     << access_str(second_access)
     << " with no happens-before path; missing edge " << first_cls << "#"
     << first_id << " -> " << second_cls << "#" << second_id;
  return os.str();
}

std::string race_audit_result::summary() const {
  std::ostringstream os;
  os << "race-audit: " << conflicts.size() << " unordered conflict"
     << (conflicts.size() == 1 ? "" : "s") << " (" << tasks << " tasks, "
     << tasks_with_footprint << " with footprints, " << accesses
     << " accesses, " << pairs_checked << " conflicting pairs checked";
  if (edges_dropped > 0) os << ", " << edges_dropped << " edges dropped";
  os << ")";
  for (const auto& c : conflicts) os << "\n  conflict: " << c.describe();
  return os.str();
}

race_audit_result audit_races(const graph_profile& g,
                              const race_audit_options& opt) {
  race_audit_result res;
  res.tasks = g.nodes.size();
  const bool dropping =
      !opt.drop_edge_from.empty() && !opt.drop_edge_to.empty();

  ancestor_sets reach(g.nodes.size());
  for (const auto& node : g.nodes) {
    for (const std::uint32_t d : node.deps) {
      OCTO_CHECK_MSG(d < node.id, "race-audit graph is not in creation order"
                                      << " (node " << node.id << " dep " << d
                                      << ")");
      if (dropping && opt.drop_edge_from == g.nodes[d].cls &&
          opt.drop_edge_to == node.cls) {
        ++res.edges_dropped;
        continue;
      }
      reach.add_edge(d, node.id);
    }
  }

  // Bucket declared accesses by (region kind, node): only same-region
  // same-node accesses can conflict, and parts refine within the bucket.
  struct entry {
    std::uint32_t task;
    const mem_access* acc;
  };
  std::map<std::pair<int, std::int32_t>, std::vector<entry>> buckets;
  for (const auto& node : g.nodes) {
    if (node.footprint.empty()) continue;
    ++res.tasks_with_footprint;
    for (const auto& a : node.footprint) {
      ++res.accesses;
      buckets[{static_cast<int>(a.region), a.node}].push_back(
          entry{node.id, &a});
    }
  }

  // Report each unordered task pair once (its first conflicting access).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reported;
  for (const auto& [key, entries] : buckets) {
    (void)key;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      for (std::size_t j = i + 1; j < entries.size(); ++j) {
        const entry& a = entries[i];
        const entry& b = entries[j];
        if (a.task == b.task) continue;
        if (!a.acc->write && !b.acc->write) continue;
        if (!parts_overlap(*a.acc, *b.acc)) continue;
        ++res.pairs_checked;
        const entry& lo = a.task < b.task ? a : b;
        const entry& hi = a.task < b.task ? b : a;
        if (reach.ordered(lo.task, hi.task)) continue;
        const auto pair_key = std::make_pair(lo.task, hi.task);
        if (std::find(reported.begin(), reported.end(), pair_key) !=
            reported.end())
          continue;
        reported.push_back(pair_key);
        race_conflict c;
        c.first_cls = g.nodes[lo.task].cls;
        c.first_id = lo.task;
        c.second_cls = g.nodes[hi.task].cls;
        c.second_id = hi.task;
        c.first_access = *lo.acc;
        c.second_access = *hi.acc;
        res.conflicts.push_back(std::move(c));
        if (res.conflicts.size() >= max_conflicts) return res;
      }
    }
  }
  return res;
}

void audit_step_or_throw(const graph_profile& g) {
  auto& reg = registry::instance();
  static const metric_id audits_ctr = reg.counter("race.audits");
  static const metric_id conflicts_ctr = reg.counter("race.conflicts");
  const race_audit_result res = audit_races(g);
  reg.add(audits_ctr);
  if (const auto dump = config::env("OCTO_RACE_AUDIT_DUMP")) {
    // Keep the latest audited step (bounded output under long runs).
    std::ofstream out(*dump, std::ios::trunc);
    OCTO_CHECK_MSG(out.good(), "cannot open OCTO_RACE_AUDIT_DUMP path "
                                   << *dump);
    dump_graph_json(g, out);
  }
  if (!res.clean()) {
    reg.add(conflicts_ctr, res.conflicts.size());
    throw error(res.summary());
  }
}

void dump_graph_json(const graph_profile& g, std::ostream& out) {
  out << "{\"nodes\":[";
  bool first_node = true;
  for (const auto& n : g.nodes) {
    if (!first_node) out << ",";
    first_node = false;
    out << "{\"cls\":\"" << n.cls << "\",\"id\":" << n.id << ",\"deps\":[";
    for (std::size_t i = 0; i < n.deps.size(); ++i)
      out << (i ? "," : "") << n.deps[i];
    out << "],\"fp\":[";
    for (std::size_t i = 0; i < n.footprint.size(); ++i) {
      const auto& a = n.footprint[i];
      out << (i ? "," : "") << "{\"r\":\"" << rgn_name(a.region)
          << "\",\"w\":" << (a.write ? "true" : "false")
          << ",\"n\":" << a.node << ",\"p\":" << a.part << "}";
    }
    out << "]}";
  }
  out << "]}\n";
}

namespace {
const json::value& member(const json::value& v, const char* key) {
  const json::value* m = v.find(key);
  OCTO_CHECK_MSG(m != nullptr, "race-audit graph: missing member '" << key
                                                                    << "'");
  return *m;
}
}  // namespace

owned_graph load_graph_json(const std::string& text) {
  const json::value root = json::parse(text);
  owned_graph og;
  og.names = std::make_shared<std::vector<std::string>>();
  const json::array& nodes = member(root, "nodes").as_array();
  // Reserve up front: dag_node::cls borrows the stored strings' buffers,
  // and short (SSO) strings would move on reallocation.
  og.names->reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const json::value& jn = nodes[i];
    dag_node n;
    og.names->push_back(member(jn, "cls").as_string());
    n.cls = og.names->back().c_str();
    n.id = static_cast<std::uint32_t>(member(jn, "id").as_number());
    OCTO_CHECK_MSG(n.id == i, "race-audit graph ids must be dense and "
                                  << "in order (node " << i << " has id "
                                  << n.id << ")");
    for (const json::value& d : member(jn, "deps").as_array())
      n.deps.push_back(static_cast<std::uint32_t>(d.as_number()));
    for (const json::value& ja : member(jn, "fp").as_array()) {
      mem_access acc;
      acc.region = rgn_from_name(member(ja, "r").as_string());
      acc.write = member(ja, "w").as_bool();
      acc.node = static_cast<std::int32_t>(member(ja, "n").as_number());
      acc.part = static_cast<std::int32_t>(member(ja, "p").as_number());
      n.footprint.push_back(acc);
    }
    og.graph.nodes.push_back(std::move(n));
  }
  return og;
}

}  // namespace octo::apex
