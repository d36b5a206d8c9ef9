/// Reliable transport + live locality-failure recovery (the tentpole):
/// exactly-once delivery under injected drop / delay / duplication /
/// reordering, bounded-retry failure, death detection at step entry, and
/// in-place cluster recovery from buddy replicas or checkpoint rollback
/// with physics matching an uninterrupted run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "amt/task_graph.hpp"
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

/// An undelayed frame is delivered before the sender's ack deadline starts:
/// a slow receiver (here 3x the deadline per delivery) must never cost a
/// timeout or a retransmission on a fault-free network.
TEST_F(TransportEnv, SlowUndelayedDeliveryNeverTimesOut) {
  amt::runtime two(2);
  transport_options opt;
  opt.ack_timeout_ms = 5;
  transport tp(2, opt, two);
  const auto slow = std::chrono::duration<double, std::milli>(
      3 * opt.ack_timeout_ms);
  std::atomic<int> delivered{0};
  for (std::uint8_t i = 0; i < 20; ++i) {
    tp.send(0, 0, 1, {i}, [&](std::vector<std::uint8_t>) {
      std::this_thread::sleep_for(slow);
      ++delivered;
    });
  }
  EXPECT_EQ(delivered.load(), 20);
  const auto st = tp.stats();
  EXPECT_EQ(st.messages, 20u);
  EXPECT_EQ(st.timeouts, 0u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.frames_sent, 20u);
}

/// send() returns only after the one delivery of its message has run to
/// completion: a duplicate copy that reaches the receiver while the first
/// copy's (slow) delivery is still running must not acknowledge the
/// message early.  The cluster relies on this: its unpack task reads the
/// message slot the delivery wrote as soon as the send task returns.
TEST_F(TransportEnv, SendReturnsOnlyAfterDeliveryCompleted) {
  auto& inj = fault::injector::instance();
  inj.arm_msg_dup(1);
  inj.arm_msg_delay_us(2000);
  std::atomic<bool> landed{false};  // outlives the workers' late copies
  amt::runtime four(4);
  transport tp(2, {}, four);
  int early = 0;
  for (std::uint8_t i = 0; i < 20; ++i) {
    landed = false;
    tp.send(0, 0, 1, {i}, [&](std::vector<std::uint8_t>) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      landed = true;
    });
    early += !landed.load();
  }
  EXPECT_EQ(early, 0) << "send() returned before its delivery finished";
  EXPECT_EQ(tp.stats().messages, 20u);
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
  // Every message delivered exactly once, in send order (these sends come
  // from one thread, each waiting for its ack), no matter how lossy the
  // transit.
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
  transport tp(2, opt, rt);
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
  transport tp(2, {}, rt);
  EXPECT_THROW(tp.send(0, 0, 1, {7}, [](std::vector<std::uint8_t>) {}),
               transport_error);
}

/// Sends on one locality pair run concurrently in the cluster (every linked
/// face of a stage between two localities, every migrating leaf), so the
/// pair's duplicate filter must be exact under overlapping sequence
/// numbers: four tasks each send 25 frames on pair (0, 1), each under its
/// own link id, through a dropping, delaying, duplicating and reordering
/// network.  Every payload lands exactly once, and each send returns only
/// after its own delivery stored the payload.
TEST_F(TransportEnv, ConcurrentSendsOnOnePairDeliverExactlyOnce) {
  constexpr int senders = 4;
  constexpr int per_sender = 25;
  constexpr int total = senders * per_sender;
  // Outlive the workers' late copies (declared before the runtime).
  std::vector<std::atomic<int>> delivered(total);
  std::atomic<int> early{0};

  auto& inj = fault::injector::instance();
  inj.arm_msg_drop(0.2);
  inj.arm_msg_delay_us(200);
  inj.arm_msg_dup(0.25);
  inj.arm_msg_reorder(0.25);

  amt::runtime four(4);
  transport_options opt;
  opt.ack_timeout_ms = 2;
  opt.max_retries = 30;
  transport tp(2, opt, four);
  amt::run_each(four, "sender", senders, [&](std::size_t s) {
    const int link = static_cast<int>(s);
    for (int i = 0; i < per_sender; ++i) {
      const int id = link * per_sender + i;
      tp.send(link, 0, 1, {static_cast<std::uint8_t>(id)},
              [&delivered](std::vector<std::uint8_t> p) {
                ++delivered[p.at(0)];
              });
      early += delivered[static_cast<std::size_t>(id)].load() == 0;
    }
  });

  for (int id = 0; id < total; ++id)
    EXPECT_EQ(delivered[static_cast<std::size_t>(id)].load(), 1)
        << "payload " << id;
  EXPECT_EQ(early.load(), 0) << "send() returned before its delivery";
  const auto st = tp.stats();
  EXPECT_EQ(st.messages, static_cast<std::uint64_t>(total));
  EXPECT_GT(st.retries, 0u) << "p=0.2 drop over 100 sends never retried?";
}

/// A failed send leaves a gap in its pair's sequence numbers until the next
/// epoch; the pair's next frame lies above that gap and must still be
/// delivered, not mistaken for a duplicate.
TEST_F(TransportEnv, FailedSendLeavesNoFalseDuplicate) {
  fault::injector::instance().arm_msg_drop(1.0);
  transport_options opt;
  opt.ack_timeout_ms = 1;
  opt.max_retries = 0;
  transport tp(2, opt, rt);
  EXPECT_THROW(tp.send(0, 0, 1, {1},
                       [](std::vector<std::uint8_t>) {
                         FAIL() << "dropped frame was delivered";
                       }),
               transport_error);

  fault::injector::instance().reset();  // no advance_epoch: seq 0 stays a gap
  std::mutex m;
  std::vector<std::uint8_t> got;
  tp.send(0, 0, 1, {2}, [&](std::vector<std::uint8_t> p) {
    const std::lock_guard<std::mutex> lock(m);
    got.push_back(p.at(0));
  });
  ASSERT_EQ(got.size(), 1u) << "seq 1 was taken for a duplicate";
  EXPECT_EQ(got[0], 2);
  const auto st = tp.stats();
  EXPECT_EQ(st.messages, 1u);
  EXPECT_EQ(st.dups_dropped, 0u);
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

/// Acceptance: a locality killed mid-run is detected at the entry of the
/// step it dies in and the run continues on the survivors — leaves restored from
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

/// The kill is reported at the entry of the step it is armed for, without
/// waiting on the dead: the failing step() takes less time than the last
/// clean step did, throws before advancing the clock, and names exactly
/// the victim.
TEST_F(RecoveryEnv, KillReportedAtNextStepWithoutWaiting) {
  auto sc = scen::rotating_star();
  cluster cl(sc, base_opts(4, 2));
  cl.initialize();
  cl.step();
  cl.step();
  const double clean_step_s = cl.last_step_metrics().step_seconds;
  ASSERT_GT(clean_step_s, 0.0);

  fault::injector::instance().arm_locality_kill(1, 3);
  std::vector<int> victims;
  std::string what;
  const auto start = std::chrono::steady_clock::now();
  try {
    cl.step();
  } catch (const locality_failure& f) {
    victims = f.localities();
    what = f.what();
  }
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();

  EXPECT_EQ(victims, std::vector<int>{1});
  EXPECT_EQ(what, "locality failure: locality 1 is dead");
  EXPECT_LT(elapsed_s, clean_step_s)
      << "detection waited instead of reading the injector's liveness";
  EXPECT_EQ(cl.steps_taken(), 2);
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
