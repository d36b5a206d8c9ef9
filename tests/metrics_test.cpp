#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "apex/analyze.hpp"
#include "apex/metrics.hpp"
#include "app/simulation.hpp"

namespace octo::apex {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

TEST(Metrics, FinalizeComputesCellsPerSecond) {
  step_record rec;
  rec.cells = 4096;
  rec.step_seconds = 0.5;
  rec.finalize();
  EXPECT_DOUBLE_EQ(rec.cells_per_sec, 8192.0);
  rec.step_seconds = 0;
  rec.finalize();
  EXPECT_DOUBLE_EQ(rec.cells_per_sec, 0.0);  // no division by zero
}

TEST(Metrics, ClosedSinkIsNoOp) {
  metrics_sink sink;
  EXPECT_FALSE(sink.is_open());
  sink.emit(step_record{});
  EXPECT_EQ(sink.records_emitted(), 0u);
}

TEST(Metrics, JsonlRoundTrip) {
  const std::string path = "metrics_test_out.jsonl";
  metrics_sink sink;
  ASSERT_TRUE(sink.open(path));  // non-.csv extension -> JSONL
  step_record rec;
  rec.step = 1;
  rec.time = 0.25;
  rec.dt = 0.25;
  rec.step_seconds = 0.125;
  rec.subgrids = 8;
  rec.cells = 8 * 512;
  rec.finalize();
  sink.emit(rec);
  rec.step = 2;
  sink.emit(rec);
  sink.close();
  EXPECT_EQ(sink.records_emitted(), 2u);

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"step\":"), std::string::npos);
    EXPECT_NE(line.find("\"cells\":4096"), std::string::npos);
    EXPECT_NE(line.find("\"cells_per_sec\":"), std::string::npos);
    EXPECT_NE(line.find("\"exchange_seconds\":"), std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"step\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"step\":2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Metrics, CsvHeaderAndRows) {
  const std::string path = "metrics_test_out.csv";
  metrics_sink sink;
  ASSERT_TRUE(sink.open(path));  // .csv extension -> CSV
  step_record rec;
  rec.step = 1;
  rec.cells = 100;
  rec.step_seconds = 0.1;
  rec.finalize();
  sink.emit(rec);
  sink.close();

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);  // header + one row
  EXPECT_NE(lines[0].find("step"), std::string::npos);
  EXPECT_NE(lines[0].find("cells_per_sec"), std::string::npos);
  EXPECT_EQ(lines[1].front(), '1');
  std::remove(path.c_str());
}

// The metrics schema exists in three places: the CSV header string, the
// JSONL keys, and the column table in EXPERIMENTS.md.  They drift
// independently (a new step_record field lands in one and not the others),
// so assert all three agree — exactly, including order for CSV vs JSONL.
TEST(Metrics, SchemaMatchesCsvJsonlAndDocs) {
  const std::string csv_path = "metrics_schema_test.csv";
  const std::string jsonl_path = "metrics_schema_test.jsonl";
  metrics_sink csv, jsonl;
  ASSERT_TRUE(csv.open(csv_path));
  ASSERT_TRUE(jsonl.open(jsonl_path));
  step_record rec;
  rec.step = 1;
  csv.emit(rec);
  jsonl.emit(rec);
  csv.close();
  jsonl.close();

  // CSV header -> ordered column list.
  const auto csv_lines = read_lines(csv_path);
  ASSERT_GE(csv_lines.size(), 1u);
  std::vector<std::string> csv_cols;
  {
    std::stringstream ss(csv_lines[0]);
    std::string col;
    while (std::getline(ss, col, ',')) csv_cols.push_back(col);
  }
  std::remove(csv_path.c_str());

  // JSONL record -> ordered key list.
  const auto jsonl_lines = read_lines(jsonl_path);
  ASSERT_GE(jsonl_lines.size(), 1u);
  std::vector<std::string> json_keys;
  const std::string& rec_line = jsonl_lines[0];
  for (std::size_t pos = rec_line.find('"'); pos != std::string::npos;) {
    const std::size_t end = rec_line.find('"', pos + 1);
    ASSERT_NE(end, std::string::npos);
    json_keys.push_back(rec_line.substr(pos + 1, end - pos - 1));
    // Skip to the next key (the one following the value's comma).
    pos = rec_line.find(',', end);
    if (pos == std::string::npos) break;
    pos = rec_line.find('"', pos);
  }
  std::remove(jsonl_path.c_str());

  EXPECT_EQ(json_keys, csv_cols)
      << "CSV header and JSONL keys must list the same columns in the "
         "same order";

  // EXPERIMENTS.md column table -> documented column set.  Rows group
  // related columns in one cell; every backticked token in the first cell
  // is one documented column.
  const std::string doc_path = std::string(OCTO_REPO_ROOT) +
                               "/EXPERIMENTS.md";
  std::ifstream doc(doc_path);
  ASSERT_TRUE(doc.good()) << doc_path;
  std::vector<std::string> doc_cols;
  std::string line;
  bool in_table = false;
  while (std::getline(doc, line)) {
    if (line.find("| column | meaning |") != std::string::npos) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (line.empty() || line[0] != '|') break;  // table ended
    if (line.find("|---") == 0) continue;       // separator row
    const std::size_t cell_end = line.find('|', 1);
    ASSERT_NE(cell_end, std::string::npos) << line;
    const std::string cell = line.substr(0, cell_end);
    for (std::size_t pos = cell.find('`'); pos != std::string::npos;) {
      const std::size_t end = cell.find('`', pos + 1);
      ASSERT_NE(end, std::string::npos) << cell;
      doc_cols.push_back(cell.substr(pos + 1, end - pos - 1));
      pos = cell.find('`', end + 1);
    }
  }
  ASSERT_TRUE(in_table) << "EXPERIMENTS.md column table not found";
  EXPECT_EQ(doc_cols, csv_cols)
      << "EXPERIMENTS.md's column table must document exactly the CSV "
         "columns, in header order";

  // The load-rebalancing columns this PR added are part of the contract.
  EXPECT_NE(std::find(csv_cols.begin(), csv_cols.end(), "rebalance_count"),
            csv_cols.end());
  EXPECT_NE(std::find(csv_cols.begin(), csv_cols.end(), "max_over_mean"),
            csv_cols.end());
}

// Every field set to a distinct value: the exact CSV and JSONL lines are
// pinned (format by field type: %d, %llu, %.9g), and load_metrics_jsonl
// reads every field back.  The values need at most 9 significant digits so
// the round trip is exact.
step_record distinct_record() {
  step_record r;
  r.step = 7;
  r.time = 0.5;
  r.dt = 0.25;
  r.step_seconds = 1.5;
  r.exchange_seconds = 0.125;
  r.gravity_seconds = 0.0625;
  r.hydro_seconds = 0.75;
  r.subgrids = 8;
  r.cells = 1099511627776ull;  // 2^40: wider than 32 bits
  r.cells_per_sec = 2730.5;
  r.transport_retries = 11;
  r.transport_timeouts = 12;
  r.transport_dups_dropped = 13;
  r.localities_lost = 14;
  r.leaves_migrated = 15;
  r.idle_fraction = 0.1;
  r.crit_path_us = 1234.5;
  r.crit_path_frac = 0.375;
  r.imbalance = 1e-10;
  r.rebalance_count = 16;
  r.max_over_mean = 1.25;
  r.sdc_audits = 17;
  r.sdc_detected = 18;
  r.sdc_retries = 19;
  r.sdc_rollbacks = 20;
  return r;
}

TEST(Metrics, EveryFieldWritesExactLinesAndRoundTrips) {
  const std::string csv_path = "metrics_fields_test.csv";
  const std::string jsonl_path = "metrics_fields_test.jsonl";
  const step_record rec = distinct_record();
  metrics_sink csv, jsonl;
  ASSERT_TRUE(csv.open(csv_path));
  ASSERT_TRUE(jsonl.open(jsonl_path));
  csv.emit(rec);
  jsonl.emit(rec);
  csv.close();
  jsonl.close();

  const auto csv_lines = read_lines(csv_path);
  ASSERT_EQ(csv_lines.size(), 2u);
  EXPECT_EQ(csv_lines[0],
            "step,time,dt,step_seconds,exchange_seconds,gravity_seconds,"
            "hydro_seconds,subgrids,cells,cells_per_sec,transport_retries,"
            "transport_timeouts,transport_dups_dropped,localities_lost,"
            "leaves_migrated,idle_fraction,crit_path_us,crit_path_frac,"
            "imbalance,rebalance_count,max_over_mean,sdc_audits,"
            "sdc_detected,sdc_retries,sdc_rollbacks");
  EXPECT_EQ(csv_lines[1],
            "7,0.5,0.25,1.5,0.125,0.0625,0.75,8,1099511627776,2730.5,11,12,"
            "13,14,15,0.1,1234.5,0.375,1e-10,16,1.25,17,18,19,20");
  std::remove(csv_path.c_str());

  const auto jsonl_lines = read_lines(jsonl_path);
  ASSERT_EQ(jsonl_lines.size(), 1u);
  EXPECT_EQ(jsonl_lines[0],
            "{\"step\":7,\"time\":0.5,\"dt\":0.25,\"step_seconds\":1.5,"
            "\"exchange_seconds\":0.125,\"gravity_seconds\":0.0625,"
            "\"hydro_seconds\":0.75,\"subgrids\":8,"
            "\"cells\":1099511627776,\"cells_per_sec\":2730.5,"
            "\"transport_retries\":11,\"transport_timeouts\":12,"
            "\"transport_dups_dropped\":13,\"localities_lost\":14,"
            "\"leaves_migrated\":15,\"idle_fraction\":0.1,"
            "\"crit_path_us\":1234.5,\"crit_path_frac\":0.375,"
            "\"imbalance\":1e-10,\"rebalance_count\":16,"
            "\"max_over_mean\":1.25,\"sdc_audits\":17,\"sdc_detected\":18,"
            "\"sdc_retries\":19,\"sdc_rollbacks\":20}");

  const auto back = load_metrics_jsonl(jsonl_path);
  std::remove(jsonl_path.c_str());
  ASSERT_EQ(back.size(), 1u);
  for (const step_column& c : step_columns)
    std::visit(
        [&](auto member) {
          EXPECT_EQ(back[0].*member, rec.*member) << c.name;
        },
        c.member);
}

// A tiny simulation must produce one record per step whose cell counts
// match the tree and whose cells/second is consistent (the paper's
// headline "processed sub-grid cells per second" metric).
TEST(Metrics, SimulationEmitsConsistentRecords) {
  amt::runtime rt(3);
  amt::scoped_global_runtime guard(rt);

  auto sc = scen::rotating_star();
  app::sim_options opt;
  opt.max_level = 1;
  app::simulation sim(sc, opt);

  const std::string path = "metrics_test_sim.jsonl";
  metrics_sink sink;
  ASSERT_TRUE(sink.open(path));
  sim.set_metrics_sink(&sink);

  sim.initialize();
  sim.step();
  sim.step();
  sink.close();

  EXPECT_EQ(sink.records_emitted(), 2u);
  const auto& m = sim.last_step_metrics();
  EXPECT_EQ(m.step, 2);
  EXPECT_EQ(m.subgrids, static_cast<std::uint64_t>(sim.num_leaves()));
  EXPECT_EQ(m.cells, static_cast<std::uint64_t>(sim.num_cells()));
  EXPECT_GT(m.step_seconds, 0);
  EXPECT_GT(m.dt, 0);
  EXPECT_GT(m.cells_per_sec, 0);
  EXPECT_NEAR(m.cells_per_sec,
              static_cast<double>(m.cells) / m.step_seconds,
              1e-6 * m.cells_per_sec);
  // Phase times are measured and bounded by the whole step.
  EXPECT_GT(m.exchange_seconds + m.gravity_seconds + m.hydro_seconds, 0);
  EXPECT_LE(m.exchange_seconds, m.step_seconds);
  EXPECT_LE(m.gravity_seconds, m.step_seconds);
  EXPECT_LE(m.hydro_seconds, m.step_seconds);

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"step\":2"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace octo::apex
