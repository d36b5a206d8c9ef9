/// Fault-tolerant checkpoint/restart of the multi-locality cluster:
/// CFL-dt regression vs app::simulation, v2 round trips, rollback-and-
/// replay bitwise equivalence under injected faults, and corruption
/// detection for both checkpoint files and serialized ghost slabs.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "app/checkpoint.hpp"
#include "app/simulation.hpp"
#include "common/fault.hpp"
#include "dist/checkpoint.hpp"
#include "dist/cluster.hpp"

namespace octo::dist {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t payload_bytes =
    std::size_t(grid::NFIELD) * 8 * 8 * 8 * sizeof(real);

struct FaultEnv : testing::Test {
  amt::runtime rt{3};
  amt::scoped_global_runtime guard{rt};
  std::string dir;

  void SetUp() override {
    fault::injector::instance().reset();
    // Per process: the suite runs this binary whole (under
    // OCTO_STEP_MODE=dataflow) beside the per-case runs.
    dir = testing::TempDir() + "/octo_fault_" +
          testing::UnitTest::GetInstance()->current_test_info()->name() +
          "_" + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  void TearDown() override {
    fault::injector::instance().reset();
    fs::remove_all(dir);
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

  /// Flip one bit of the byte at \p offset in \p path.
  static void flip_bit(const std::string& path, std::size_t offset) {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char b;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
    ASSERT_TRUE(f.good());
  }

  /// read_checkpoint must throw and the message must name \p record.
  static void expect_read_fails_naming(const std::string& path,
                                       const std::string& record) {
    try {
      (void)app::read_checkpoint(path);
      FAIL() << "read_checkpoint accepted a corrupted file (" << record
             << ")";
    } catch (const error& e) {
      EXPECT_NE(std::string(e.what()).find(record), std::string::npos)
          << "error does not name '" << record << "': " << e.what();
    }
  }
};

/// Regression for the frozen-dt bug: the cluster's per-step dt sequence
/// must track the CFL condition exactly as app::simulation's does, not
/// stay pinned at its initialize() value.
TEST_F(FaultEnv, DtSequenceMatchesSingleProcessSimulation) {
  auto sc = scen::rotating_star();
  app::sim_options so;
  so.max_level = 1;

  app::simulation sim(sc, so);
  sim.initialize();
  cluster cl(sc, base_opts(3, 1));
  cl.initialize();
  EXPECT_EQ(cl.dt(), sim.dt());

  std::vector<real> sim_dts, cl_dts;
  for (int s = 0; s < 4; ++s) {
    sim_dts.push_back(sim.step());
    cl_dts.push_back(cl.step());
  }
  EXPECT_EQ(sim_dts, cl_dts);
  // ... and the sequence genuinely adapts (the old behavior repeated the
  // initial dt forever).
  EXPECT_NE(std::adjacent_find(cl_dts.begin(), cl_dts.end(),
                               std::not_equal_to<real>()),
            cl_dts.end())
      << "dt never changed over 4 steps — CFL recompute is not running";
}

TEST_F(FaultEnv, ClusterCheckpointRoundTripBitwise) {
  auto sc = scen::rotating_star();
  cluster cl(sc, base_opts());
  cl.initialize();
  cl.step();
  cl.step();

  const std::string path = dir + "/ckpt.bin";
  const auto bytes = write_checkpoint(cl, path);
  EXPECT_GT(bytes, 0u);
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "temp file left behind";

  const auto data = app::read_checkpoint(path);
  EXPECT_EQ(data.time, cl.time());
  EXPECT_EQ(data.step, cl.steps_taken());
  EXPECT_EQ(data.dt, cl.dt());
  ASSERT_EQ(data.stats.size(), 4u);
  EXPECT_EQ(data.stats[0], cl.stats().local_direct);
  EXPECT_EQ(data.stats[3], cl.stats().bytes_serialized);

  cluster cl2(sc, base_opts());
  cl2.initialize();
  restore_checkpoint(cl2, data);
  EXPECT_EQ(cl2.time(), cl.time());
  EXPECT_EQ(cl2.steps_taken(), cl.steps_taken());
  EXPECT_EQ(cl2.dt(), cl.dt());
  EXPECT_EQ(cl2.stats().total_slabs(), cl.stats().total_slabs());
  expect_bitwise_equal(cl, cl2);

  // Restart transparency: the next step after restore is bitwise the step
  // the uninterrupted run takes.
  cl.step();
  cl2.step();
  EXPECT_EQ(cl2.time(), cl.time());
  expect_bitwise_equal(cl, cl2);
}

/// Acceptance: a run interrupted by an injected fault, restarted from its
/// newest valid checkpoint by run_with_checkpoints, reaches the same end
/// time with bitwise-identical leaf fields to an uninterrupted run.
TEST_F(FaultEnv, RollbackReplayMatchesUninterruptedRunBitwise) {
  auto sc = scen::rotating_star();
  const int target = 6;

  cluster ref(sc, base_opts());
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  cluster cl(sc, base_opts());
  cl.initialize();
  // Node death at the 4th step — after the checkpoint at step 2, before
  // the one at step 4.
  fault::injector::instance().arm_step_failure(4);
  run_options opt;
  opt.dir = dir;
  opt.every = 2;
  opt.keep = 2;
  const auto res = run_with_checkpoints(cl, target, opt);

  EXPECT_EQ(res.steps, target);
  EXPECT_EQ(res.restarts, 1);
  EXPECT_GE(res.checkpoints_written, 3);
  EXPECT_NE(res.last_checkpoint.find("ckpt_000006.bin"), std::string::npos);
  EXPECT_EQ(fault::injector::instance().injected(), 1u);

  EXPECT_EQ(cl.time(), ref.time());
  EXPECT_EQ(cl.steps_taken(), ref.steps_taken());
  EXPECT_EQ(cl.dt(), ref.dt());
  expect_bitwise_equal(ref, cl);

  // Retention: only the newest `keep` checkpoints survive.
  int nfiles = 0;
  for (const auto& e : fs::directory_iterator(dir))
    nfiles += e.path().extension() == ".bin";
  EXPECT_EQ(nfiles, opt.keep);
}

/// A fault before the first checkpoint exists: the driver restarts the
/// cluster from scratch and still completes with the reference trajectory.
TEST_F(FaultEnv, DriverRestartsFromScratchWithoutCheckpoint) {
  auto sc = scen::rotating_star();
  const int target = 3;

  cluster ref(sc, base_opts());
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  cluster cl(sc, base_opts());
  cl.initialize();
  fault::injector::instance().arm_step_failure(1);
  run_options opt;
  opt.dir = dir;
  opt.every = 2;
  const auto res = run_with_checkpoints(cl, target, opt);
  EXPECT_EQ(res.restarts, 1);
  EXPECT_EQ(res.steps, target);
  EXPECT_EQ(cl.time(), ref.time());
  expect_bitwise_equal(ref, cl);
}

TEST_F(FaultEnv, DriverGivesUpAfterMaxRestarts) {
  auto sc = scen::rotating_star();
  cluster cl(sc, base_opts());
  cl.initialize();
  // A persistent fault: every checkpoint write is cut short, so each step
  // "succeeds" but can never be made durable, and the retry cap must trip.
  fault::injector::instance().arm_ckpt_short_write(1000);
  run_options opt;
  opt.dir = dir;
  opt.max_restarts = 2;
  EXPECT_THROW(run_with_checkpoints(cl, 1, opt), error);
}

/// Satellite: a checkpoint write killed mid-stream (short write via the
/// fault hook) must never shadow the previously valid file.
TEST_F(FaultEnv, ShortWriteKeepsPreviousCheckpointValid) {
  auto sc = scen::rotating_star();
  cluster cl(sc, base_opts());
  cl.initialize();
  cl.step();

  const std::string path = dir + "/ckpt.bin";
  write_checkpoint(cl, path);
  const auto good = app::read_checkpoint(path);
  EXPECT_EQ(good.step, 1);

  cl.step();
  fault::injector::instance().arm_ckpt_short_write(1000);
  EXPECT_THROW(write_checkpoint(cl, path), error);
  EXPECT_GT(fault::injector::instance().injected(), 0u);
  fault::injector::instance().reset();

  // The partial stream went to the temp file; `path` still holds the old
  // checkpoint, bit for bit.
  EXPECT_TRUE(fs::exists(path + ".tmp"));
  EXPECT_LE(fs::file_size(path + ".tmp"), 1000u);
  const auto still = app::read_checkpoint(path);
  EXPECT_EQ(still.step, good.step);
  EXPECT_EQ(still.time, good.time);

  // And a later clean write replaces it atomically.
  write_checkpoint(cl, path);
  EXPECT_EQ(app::read_checkpoint(path).step, 2);
}

/// Satellite: bit-flips in every region of a v2 file — header fields,
/// header CRC, leaf code, leaf payload, leaf CRC, end marker, file CRC —
/// are detected with a message naming the failing record; same for
/// truncation.
TEST_F(FaultEnv, BitFlipInEveryRegionIsDetectedAndNamed) {
  auto sc = scen::rotating_star();
  cluster cl(sc, base_opts());
  cl.initialize();
  cl.step();
  const std::string path = dir + "/ckpt.bin";
  write_checkpoint(cl, path);
  (void)app::read_checkpoint(path);  // sanity: pristine file verifies

  // v2 layout offsets (see app/checkpoint.hpp).
  const std::size_t header_start = 16;  // after magic + version
  const std::size_t header_len =
      7 * sizeof(std::int64_t) + 4 * sizeof(std::uint64_t);
  const std::size_t leaf0_start = header_start + header_len + 4;
  const std::size_t file_size = fs::file_size(path);

  const struct {
    std::size_t offset;
    const char* record;
  } probes[] = {
      {2, "not an octo checkpoint"},               // magic
      {8, "unsupported checkpoint version"},       // version word
      {header_start + 3, "header"},                // header field (time)
      {header_start + header_len - 5, "header"},   // stats word
      {header_start + header_len + 1, "header"},   // header CRC itself
      {leaf0_start + 2, "leaf record 0"},          // leaf 0 location code
      {leaf0_start + 8 + 17, "leaf record 0"},     // leaf 0 payload
      {leaf0_start + 8 + payload_bytes + 1, "leaf record 0"},  // leaf 0 CRC
      {leaf0_start + 2 * (8 + payload_bytes + 4) + 100,
       "leaf record 2"},                           // a later payload
      {file_size - 10, "trailer"},                 // end marker
      {file_size - 2, "trailer"},                  // whole-file CRC
  };
  for (const auto& p : probes) {
    const std::string copy = dir + "/flip.bin";
    fs::copy_file(path, copy, fs::copy_options::overwrite_existing);
    flip_bit(copy, p.offset);
    expect_read_fails_naming(copy, p.record);
  }

  // Truncations: mid-payload and trailer-only.
  for (const auto& [cut, record] :
       {std::pair<std::size_t, const char*>{leaf0_start + 100,
                                            "leaf record 0"},
        std::pair<std::size_t, const char*>{file_size - 3, "trailer"}}) {
    const std::string copy = dir + "/trunc.bin";
    fs::copy_file(path, copy, fs::copy_options::overwrite_existing);
    fs::resize_file(copy, cut);
    expect_read_fails_naming(copy, record);
  }
}

/// Satellite: a corrupted serialized ghost slab through the cluster's
/// non-direct path fails the exchange loudly via the archive checksum.
TEST_F(FaultEnv, CorruptedGhostSlabDetected) {
  auto sc = scen::rotating_star();
  auto opts = base_opts(3, 1);
  opts.local_optimization = false;  // force every slab through serialization
  cluster cl(sc, opts);
  cl.initialize();

  fault::injector::instance().arm_ghost_corrupt(10);
  try {
    cl.step();
    FAIL() << "corrupted slab was silently integrated";
  } catch (const error& e) {
    EXPECT_NE(std::string(e.what()).find("serialized ghost slab"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fault::injector::instance().injected(), 1u);
}

TEST_F(FaultEnv, TruncatedGhostSlabDetected) {
  auto sc = scen::rotating_star();
  auto opts = base_opts(3, 1);
  opts.local_optimization = false;
  cluster cl(sc, opts);
  cl.initialize();

  fault::injector::instance().arm_ghost_truncate(7);
  try {
    cl.step();
    FAIL() << "truncated slab was silently integrated";
  } catch (const error& e) {
    EXPECT_NE(std::string(e.what()).find("serialized ghost slab"),
              std::string::npos)
        << e.what();
  }
}

/// A fault mid-run plus rollback: the slab corruption path and the driver
/// compose — this is the end-to-end resilience loop of the tentpole.
TEST_F(FaultEnv, DriverRecoversFromGhostCorruption) {
  auto sc = scen::rotating_star();
  auto opts = base_opts(3, 1);
  opts.local_optimization = false;
  const int target = 4;

  cluster ref(sc, opts);
  ref.initialize();
  for (int s = 0; s < target; ++s) ref.step();

  cluster cl(sc, opts);
  cl.initialize();
  // Corrupt one slab somewhere inside the 2nd step's exchanges (each
  // exchange serializes well over 26 slabs).
  fault::injector::instance().arm_ghost_corrupt(200);
  run_options opt;
  opt.dir = dir;
  opt.every = 1;
  const auto res = run_with_checkpoints(cl, target, opt);
  EXPECT_EQ(res.restarts, 1);
  EXPECT_EQ(fault::injector::instance().injected(), 1u);
  EXPECT_EQ(cl.time(), ref.time());
  expect_bitwise_equal(ref, cl);
}

TEST_F(FaultEnv, NewestValidCheckpointSkipsCorruptFiles) {
  auto sc = scen::rotating_star();
  cluster cl(sc, base_opts());
  cl.initialize();
  run_options opt;
  opt.dir = dir;
  opt.every = 1;
  opt.keep = 10;
  run_with_checkpoints(cl, 3, opt);

  const std::string newest = dir + "/ckpt_000003.bin";
  ASSERT_TRUE(fs::exists(newest));
  EXPECT_EQ(newest_valid_checkpoint(dir), newest);

  // Corrupt the newest: selection must fall back to step 2.
  flip_bit(newest, 400);
  EXPECT_EQ(newest_valid_checkpoint(dir), dir + "/ckpt_000002.bin");

  // Corrupt everything: no candidate survives.
  flip_bit(dir + "/ckpt_000002.bin", 400);
  flip_bit(dir + "/ckpt_000001.bin", 400);
  EXPECT_EQ(newest_valid_checkpoint(dir), "");
}

}  // namespace
}  // namespace octo::dist
