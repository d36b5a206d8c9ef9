#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "apex/analyze.hpp"
#include "apex/trace.hpp"
#include "common/config.hpp"
#include "common/error.hpp"

namespace octo::apex {
namespace {

// Minimal recursive-descent JSON syntax checker — enough to prove the
// trace writer emits well-formed Chrome trace-event JSON without pulling
// in a JSON library.
struct json_checker {
  const std::string& s;
  std::size_t i = 0;

  explicit json_checker(const std::string& text) : s(text) {}

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool string() {
    ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;  // skip escaped char
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  }
  bool number() {
    ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                            s[i] == '-' || s[i] == '+'))
      ++i;
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    if (s[i] == '{') return object();
    if (s[i] == '[') return array();
    if (s[i] == '"') return string();
    if (s.compare(i, 4, "true") == 0) return i += 4, true;
    if (s.compare(i, 5, "false") == 0) return i += 5, true;
    if (s.compare(i, 4, "null") == 0) return i += 4, true;
    return number();
  }
  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool document() {
    if (!value()) return false;
    ws();
    return i == s.size();
  }
};

struct TraceTest : testing::Test {
  void SetUp() override {
    trace::instance().clear();
    trace::instance().enable("");
  }
  void TearDown() override {
    trace::instance().disable();
    trace::instance().clear();
  }
};

TEST_F(TraceTest, RoundTripIsValidChromeJson) {
  auto& tr = trace::instance();
  tr.set_thread_name("main-thread");
  {
    scoped_trace_span s("unit.outer");
    scoped_trace_span t("unit.inner");
  }
  tr.record_instant("unit.marker");

  std::thread worker([&] {
    tr.set_thread_name("worker-thread");
    scoped_trace_span s("unit.worker_span");
  });
  worker.join();

  EXPECT_GE(tr.captured(), 4u);
  std::ostringstream os;
  tr.write(os);
  const std::string json = os.str();

  json_checker chk(json);
  EXPECT_TRUE(chk.document()) << "invalid JSON near offset " << chk.i;

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"unit.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"unit.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"unit.worker_span\""), std::string::npos);
  // Spans are complete "X" events with a duration; markers are "i".
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Thread-name metadata events for both timelines.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("main-thread"), std::string::npos);
  EXPECT_NE(json.find("worker-thread"), std::string::npos);
}

TEST_F(TraceTest, SpansCarryPlausibleTimestamps) {
  auto& tr = trace::instance();
  const auto t0 = trace::now_ns();
  {
    scoped_trace_span s("unit.timed");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto t1 = trace::now_ns();
  EXPECT_GT(t1, t0);

  std::ostringstream os;
  tr.write(os);
  const std::string json = os.str();
  // The 2 ms span must serialize a dur of at least 2000 us; cheap check:
  // the event is present and the document stays parseable.
  EXPECT_NE(json.find("\"unit.timed\""), std::string::npos);
  json_checker chk(json);
  EXPECT_TRUE(chk.document());
}

TEST_F(TraceTest, DisabledRecordsNothing) {
  auto& tr = trace::instance();
  tr.disable();
  const auto before = tr.captured();
  { scoped_trace_span s("unit.invisible"); }
  tr.record_instant("unit.invisible_marker");
  EXPECT_EQ(tr.captured(), before);
}

TEST_F(TraceTest, FullBufferDropsAndCounts) {
  auto& tr = trace::instance();
  tr.set_buffer_capacity(16);  // applies to threads that start after this
  std::thread burst([&] {
    for (int i = 0; i < 100; ++i) tr.record_instant("unit.burst");
  });
  burst.join();
  EXPECT_GT(tr.dropped(), 0u);
  // The kept events are still a valid document.
  std::ostringstream os;
  tr.write(os);
  const std::string json = os.str();
  json_checker chk(json);
  EXPECT_TRUE(chk.document());
  EXPECT_NE(json.find("\"dropped\""), std::string::npos);
  tr.set_buffer_capacity(1 << 16);
}

/// Resident set size in bytes (/proc/self/statm, second field).
long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * ::sysconf(_SC_PAGESIZE);
}

/// A thread's buffer is built when its first span ends, inside the traced
/// window: at 2^21 events (64 MiB) it must not be zero-filled there.
TEST_F(TraceTest, FirstSpanDoesNotTouchTheWholeBuffer) {
  auto& tr = trace::instance();
  tr.set_buffer_capacity(std::size_t(1) << 21);
  long grown = 0;
  std::thread fresh([&] {
    const long before = resident_bytes();
    { scoped_trace_span s("unit.first_span"); }
    grown = resident_bytes() - before;
  });
  fresh.join();
  tr.set_buffer_capacity(trace::default_buffer_capacity());
  EXPECT_LT(grown, 16l << 20) << "resident set grew by " << grown << " B";
}

TEST_F(TraceTest, ConcurrentRecordingKeepsEveryThreadsEvents) {
  auto& tr = trace::instance();
  constexpr int n_threads = 4;
  constexpr int per_thread = 200;
  const auto before = tr.captured();
  std::vector<std::thread> pool;
  for (int t = 0; t < n_threads; ++t)
    pool.emplace_back([&] {
      for (int i = 0; i < per_thread; ++i) {
        scoped_trace_span s("unit.concurrent");
      }
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(tr.captured() - before, n_threads * per_thread);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST_F(TraceTest, EnableRejectsADirectoryNamingIt) {
  auto& tr = trace::instance();
  const std::string dir = testing::TempDir() + "/octo_trace_dir_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  try {
    tr.enable(dir);
    ADD_FAILURE() << "enable(<directory>) was accepted";
  } catch (const error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
  }
  EXPECT_EQ(tr.path(), "");

  // A file path and the empty (record-only) path still work.
  const std::string file = dir + "/trace.json";
  tr.enable(file);
  EXPECT_TRUE(trace::enabled());
  EXPECT_EQ(tr.path(), file);
  { scoped_trace_span s("unit.to_file"); }
  EXPECT_TRUE(tr.write_to_file());
  EXPECT_TRUE(std::filesystem::is_regular_file(file));
  tr.enable("");
  EXPECT_TRUE(trace::enabled());
  EXPECT_EQ(tr.path(), "");
  std::filesystem::remove_all(dir);
}

TEST(TraceEnv, BufferCapacityAcceptsOnlyPositiveIntegers) {
  (void)trace::instance();  // bootstrap before the variable changes
  const std::optional<std::string> saved = config::env("OCTO_TRACE_BUFFER");
  ::unsetenv("OCTO_TRACE_BUFFER");
  EXPECT_EQ(trace::default_buffer_capacity(), std::size_t(1) << 16);
  ::setenv("OCTO_TRACE_BUFFER", "64", 1);
  EXPECT_EQ(trace::default_buffer_capacity(), 64u);
  for (const char* bad : {"64k", "abc", "0", "-5", "1.5"}) {
    ::setenv("OCTO_TRACE_BUFFER", bad, 1);
    try {
      (void)trace::default_buffer_capacity();
      ADD_FAILURE() << "OCTO_TRACE_BUFFER=" << bad << " was accepted";
    } catch (const error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("OCTO_TRACE_BUFFER='") +
                                           bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
  if (saved)
    ::setenv("OCTO_TRACE_BUFFER", saved->c_str(), 1);
  else
    ::unsetenv("OCTO_TRACE_BUFFER");
}

// Spans nest on a timeline (a task span and the phase spans inside it):
// busy time is the union of the intervals, so nested time counts once and
// no timeline reads above 100 %.
TEST(TraceAnalyze, NestedSpansCountOnceInUtilization) {
  loaded_trace t;
  const auto span = [&t](int tid, double ts, double dur) {
    trace_span s;
    s.name = "unit.span";
    s.tid = tid;
    s.ts_us = ts;
    s.dur_us = dur;
    t.spans.push_back(s);
  };
  span(1, 0, 100);    // outer
  span(1, 10, 50);    // nested inside the outer span
  span(1, 200, 100);  // disjoint
  span(2, 0, 300);    // a timeline busy for the whole window...
  span(2, 50, 100);   // ...with a nested span of its own
  t.thread_names[{0, 1}] = "worker 1";

  const auto rows = compute_utilization(t);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].tid, 1);
  EXPECT_EQ(rows[0].name, "worker 1");
  EXPECT_EQ(rows[0].spans, 3u);
  EXPECT_DOUBLE_EQ(rows[0].busy_us, 200.0);
  EXPECT_DOUBLE_EQ(rows[0].utilization, 200.0 / 300.0);
  EXPECT_EQ(rows[1].spans, 2u);
  EXPECT_DOUBLE_EQ(rows[1].busy_us, 300.0);
  for (const utilization_row& row : rows)
    EXPECT_LE(row.utilization, 1.0) << "tid " << row.tid;
}

}  // namespace
}  // namespace octo::apex
