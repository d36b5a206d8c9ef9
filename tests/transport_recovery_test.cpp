/// Reliable transport + live locality-failure recovery (the tentpole):
/// exactly-once delivery under injected drop / delay / duplication /
/// reordering, bounded-retry failure, heartbeat-based death detection, and
/// in-place cluster recovery from buddy replicas or checkpoint rollback
/// with physics matching an uninterrupted run.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

#include "app/simulation.hpp"
#include "common/fault.hpp"
#include "dist/checkpoint.hpp"
#include "dist/cluster.hpp"
#include "dist/recovery.hpp"
#include "dist/transport.hpp"
#include "scenarios/scenarios.hpp"

namespace octo::dist {
namespace {

namespace fs = std::filesystem;

struct TransportEnv : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};

  void SetUp() override { fault::injector::instance().reset(); }
  void TearDown() override { fault::injector::instance().reset(); }
};

TEST_F(TransportEnv, DeliversInOrderWithoutFaults) {
  transport tp(2, {}, rt);
  std::mutex m;
  std::vector<std::uint8_t> got;
  for (std::uint8_t i = 0; i < 20; ++i) {
    tp.send(i % 2, 0, 1, {i}, [&](std::vector<std::uint8_t> p) {
      const std::lock_guard<std::mutex> lock(m);
      got.push_back(p.at(0));
    });
  }
  ASSERT_EQ(got.size(), 20u);
  for (std::uint8_t i = 0; i < 20; ++i) EXPECT_EQ(got[i], i);
  const auto st = tp.stats();
  EXPECT_EQ(st.messages, 20u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.timeouts, 0u);
  EXPECT_EQ(st.dups_dropped, 0u);
  EXPECT_EQ(st.frames_sent, 20u);
  EXPECT_EQ(st.header_bytes,
            20 * (transport::frame_header_bytes + transport::ack_header_bytes));
}

TEST_F(TransportEnv, ExactlyOnceUnderDropDelayDupReorder) {
  auto& inj = fault::injector::instance();
  inj.arm_msg_drop(0.2);
  inj.arm_msg_delay_us(200);
  inj.arm_msg_dup(0.25);
  inj.arm_msg_reorder(0.25);

  transport_options opt;
  opt.ack_timeout_ms = 2;
  opt.max_retries = 30;
  transport tp(4, opt, rt);
  std::mutex m;
  std::vector<std::vector<int>> per_link(4);
  for (int i = 0; i < 80; ++i) {
    const int link = i % 4;
    tp.send(link, 0, 1, {static_cast<std::uint8_t>(i)},
            [&per_link, &m, link](std::vector<std::uint8_t> p) {
              const std::lock_guard<std::mutex> lock(m);
              per_link[static_cast<std::size_t>(link)].push_back(p.at(0));
            });
  }
  // Every message delivered exactly once, in per-link send order (sends on
  // a link are serialized by the ack), no matter how lossy the transit.
  for (int link = 0; link < 4; ++link) {
    const auto& got = per_link[static_cast<std::size_t>(link)];
    ASSERT_EQ(got.size(), 20u) << "link " << link;
    for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], link + 4 * i);
  }
  const auto st = tp.stats();
  EXPECT_EQ(st.messages, 80u);
  EXPECT_GT(st.retries, 0u) << "p=0.2 drop over 80 sends never retried?";
  EXPECT_GT(st.frames_sent, 80u);
}

TEST_F(TransportEnv, ThrowsAfterRetriesExhausted) {
  fault::injector::instance().arm_msg_drop(1.0);  // black hole
  transport_options opt;
  opt.ack_timeout_ms = 1;
  opt.max_retries = 3;
  transport tp(1, opt, rt);
  try {
    tp.send(0, 0, 1, {42}, [](std::vector<std::uint8_t>) {
      FAIL() << "dropped frame was delivered";
    });
    FAIL() << "send over a dead link returned";
  } catch (const transport_error& e) {
    EXPECT_NE(std::string(e.what()).find("undelivered after 4 attempts"),
              std::string::npos)
        << e.what();
  }
  const auto st = tp.stats();
  EXPECT_EQ(st.timeouts, 4u);
  EXPECT_EQ(st.retries, 3u);
  EXPECT_EQ(st.messages, 0u);
}

TEST_F(TransportEnv, DeadLocalityFailsFast) {
  auto& inj = fault::injector::instance();
  inj.arm_locality_kill(1, 1);
  EXPECT_EQ(inj.locality_kill_hook(1), 1);  // the kill fires
  EXPECT_FALSE(inj.locality_alive(1));
  transport tp(1, {}, rt);
  EXPECT_THROW(tp.send(0, 0, 1, {7}, [](std::vector<std::uint8_t>) {}),
               transport_error);
}

TEST_F(TransportEnv, HeartbeatMonitorNamesSilentLocalities) {
  heartbeat_monitor mon;
  mon.reset(3);
  EXPECT_EQ(mon.num_live(), 3);

  mon.arm_step();
  mon.beat(0);
  mon.beat(1);
  mon.beat(2);
  EXPECT_TRUE(mon.overdue(5).empty());

  mon.arm_step();
  mon.beat(0);
  mon.beat(2);
  const auto start = std::chrono::steady_clock::now();
  const auto dead = mon.overdue(5);
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], 1);
  // Detection is bounded by the deadline (generous margin for CI noise).
  EXPECT_LT(waited, std::chrono::milliseconds(500));

  mon.mark_dead(1);
  EXPECT_EQ(mon.num_live(), 2);
  mon.arm_step();
  mon.beat(0);
  mon.beat(2);
  EXPECT_TRUE(mon.overdue(5).empty()) << "the dead must not be waited on";
}

// ---------------------------------------------------------------------------
// Cluster-level: ghost exchange and recovery under faults.

struct RecoveryEnv : TransportEnv {
  std::string dir;

  void SetUp() override {
    TransportEnv::SetUp();
    // Per process: the suite runs this binary whole (under
    // OCTO_STEP_MODE=dataflow) beside the per-case runs.
    dir = testing::TempDir() + "/octo_recovery_" +
          testing::UnitTest::GetInstance()->current_test_info()->name() +
          "_" + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  void TearDown() override {
    fs::remove_all(dir);
    TransportEnv::TearDown();
  }

  static dist_options base_opts(int nloc = 3, int level = 1) {
    dist_options o;
    o.num_localities = nloc;
    o.sim.max_level = level;
    return o;
  }

  static void expect_bitwise_equal(const cluster& a, const cluster& b) {
    ASSERT_EQ(a.topo().num_leaves(), b.topo().num_leaves());
    for (const index_t leaf : a.topo().leaves()) {
      const auto& ga = a.leaf(leaf);
      const auto& gb = b.leaf(leaf);
      for (int f = 0; f < grid::NFIELD; ++f)
        for (int i = 0; i < 8; ++i)
          for (int j = 0; j < 8; ++j)
            for (int k = 0; k < 8; ++k)
              ASSERT_EQ(ga.at(f, i, j, k), gb.at(f, i, j, k))
                  << "leaf " << leaf << " field " << f;
    }
  }

  static void expect_ledgers_close(const app::ledger& a,
                                   const app::ledger& b) {
    const auto rel = [](real x, real y) {
      const real scale = std::max(std::abs(x), std::abs(y));
      return scale == 0 ? real(0) : std::abs(x - y) / scale;
    };
    EXPECT_LE(rel(a.mass, b.mass), 1e-12);
    EXPECT_LE(rel(a.gas_energy, b.gas_energy), 1e-12);
    EXPECT_LE(rel(a.total_energy(), b.total_energy()), 1e-12);
  }
};

/// Acceptance: with every slab serialized (§VII-B off) and the network
/// dropping (p = 0.2), delaying, duplicating and reordering frames, the
/// evolved state is bitwise identical to the fault-free run.
TEST_F(RecoveryEnv, ExchangeBitwiseIdenticalUnderMessageFaults) {
  auto sc = scen::rotating_star();
  auto opts = base_opts(3, 1);
  opts.local_optimization = false;
  opts.transport.ack_timeout_ms = 2;
  opts.transport.max_retries = 30;
  const int target = 3;

  cluster ref(sc, opts);
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  auto& inj = fault::injector::instance();
  inj.arm_msg_drop(0.2);
  inj.arm_msg_delay_us(100);
  inj.arm_msg_dup(0.2);
  inj.arm_msg_reorder(0.2);
  cluster cl(sc, opts);
  cl.initialize();
  for (int s = 0; s < target; ++s) cl.step();
  inj.reset();

  EXPECT_EQ(cl.time(), ref.time());
  expect_bitwise_equal(ref, cl);
  const auto st = cl.transport_statistics();
  EXPECT_GT(st.retries + st.dups_dropped, 0u)
      << "faults armed but the transport never saw one";
}

/// Acceptance: a locality killed mid-run is detected within one step
/// deadline and the run continues on the survivors — leaves restored from
/// buddy replicas — with mass/energy matching the uninterrupted run to
/// 1e-12 relative (here: bitwise).
TEST_F(RecoveryEnv, LocalityKillRecoveredFromBuddyReplicas) {
  auto sc = scen::rotating_star();
  const int target = 5;

  cluster ref(sc, base_opts());
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  apex::metrics_sink sink;
  ASSERT_TRUE(sink.open(dir + "/steps.jsonl"));
  fault::injector::instance().arm_locality_kill(1, 3);
  cluster cl(sc, base_opts());
  cl.initialize();
  cl.set_metrics_sink(&sink);
  const auto res = run_with_recovery(cl, target);
  sink.close();

  EXPECT_EQ(res.steps, target);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(res.localities_lost, 1);
  EXPECT_FALSE(cl.locality_alive(1));
  EXPECT_EQ(cl.live_localities(), 2);
  // The shrunk partition hands every leaf to a survivor.
  for (const index_t leaf : cl.topo().leaves()) EXPECT_NE(
      cl.partition().owner(leaf), 1);

  EXPECT_EQ(cl.time(), ref.time());
  EXPECT_EQ(cl.dt(), ref.dt());
  expect_ledgers_close(ref.measure(), cl.measure());
  expect_bitwise_equal(ref, cl);

  // The recovery surfaced in the per-step metrics stream.
  std::ifstream in(dir + "/steps.jsonl");
  std::string line, all;
  while (std::getline(in, line)) all += line + "\n";
  EXPECT_NE(all.find("\"localities_lost\":1"), std::string::npos) << all;
  EXPECT_NE(all.find("\"leaves_migrated\":"), std::string::npos);
}

/// Buddy replicas off: recovery falls back to rolling the whole cluster
/// back to the newest valid checkpoint and replaying on the survivors.
TEST_F(RecoveryEnv, LocalityKillFallsBackToCheckpointRollback) {
  auto sc = scen::rotating_star();
  auto opts = base_opts();
  opts.buddy_replication = false;
  const int target = 5;

  cluster ref(sc, opts);
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  cluster cl(sc, opts);
  cl.initialize();
  cl.step();
  cl.step();
  write_checkpoint(cl, dir + "/ckpt_000002.bin");

  fault::injector::instance().arm_locality_kill(2, 4);
  recovery_options ropt;
  ropt.ckpt_dir = dir;
  const auto res = run_with_recovery(cl, target, ropt);

  EXPECT_EQ(res.steps, target);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(cl.live_localities(), 2);
  EXPECT_EQ(cl.time(), ref.time());
  expect_ledgers_close(ref.measure(), cl.measure());
  expect_bitwise_equal(ref, cl);
}

/// Neither a replica nor a checkpoint: the failure is unrecoverable and
/// must surface as an error, not a hang or a silently wrong state.
TEST_F(RecoveryEnv, UnrecoverableWithoutReplicaOrCheckpoint) {
  auto sc = scen::rotating_star();
  auto opts = base_opts();
  opts.buddy_replication = false;
  cluster cl(sc, opts);
  cl.initialize();
  fault::injector::instance().arm_locality_kill(0, 1);
  EXPECT_THROW(run_with_recovery(cl, 2), error);
}

/// Message faults and a locality kill in the same run: the transport
/// absorbs the lossy network while recovery absorbs the death.
TEST_F(RecoveryEnv, KillUnderLossyNetworkStillMatches) {
  auto sc = scen::rotating_star();
  auto opts = base_opts(3, 1);
  opts.local_optimization = false;
  opts.transport.ack_timeout_ms = 2;
  opts.transport.max_retries = 30;
  const int target = 4;

  cluster ref(sc, opts);
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  auto& inj = fault::injector::instance();
  inj.arm_msg_drop(0.1);
  inj.arm_msg_dup(0.1);
  inj.arm_locality_kill(0, 2);
  cluster cl(sc, opts);
  cl.initialize();
  const auto res = run_with_recovery(cl, target);
  inj.reset();

  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(cl.time(), ref.time());
  expect_ledgers_close(ref.measure(), cl.measure());
  expect_bitwise_equal(ref, cl);
}

/// Two successive kills: the cluster shrinks twice and still matches.
TEST_F(RecoveryEnv, SurvivesSuccessiveKills) {
  auto sc = scen::rotating_star();
  const int target = 5;

  cluster ref(sc, base_opts(4, 1));
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  auto& inj = fault::injector::instance();
  cluster cl(sc, base_opts(4, 1));
  cl.initialize();
  inj.arm_locality_kill(3, 2);
  recovery_options ropt;
  const auto res1 = run_with_recovery(cl, 3, ropt);
  EXPECT_EQ(res1.recoveries, 1);
  inj.arm_locality_kill(1, 4);
  const auto res2 = run_with_recovery(cl, target, ropt);
  EXPECT_EQ(res2.recoveries, 1);

  EXPECT_EQ(cl.live_localities(), 2);
  EXPECT_FALSE(cl.locality_alive(1));
  EXPECT_FALSE(cl.locality_alive(3));
  EXPECT_EQ(cl.time(), ref.time());
  expect_ledgers_close(ref.measure(), cl.measure());
  expect_bitwise_equal(ref, cl);
}

}  // namespace
}  // namespace octo::dist
