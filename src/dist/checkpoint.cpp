#include "dist/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "apex/apex.hpp"
#include "common/error.hpp"
#include "common/log.hpp"

namespace octo::dist {

namespace fs = std::filesystem;

namespace {

struct driver_counters {
  apex::metric_id rollbacks =
      apex::registry::instance().counter("ckpt.rollbacks");
};
driver_counters& counters() {
  static driver_counters c;
  return c;
}

std::string checkpoint_path(const std::string& dir, int step) {
  char name[32];
  std::snprintf(name, sizeof name, "ckpt_%06d.bin", step);
  return dir + "/" + name;
}

/// ckpt_*.bin files in \p dir, ascending by name (zero-padded step, so
/// lexicographic order is step order).
std::vector<std::string> list_checkpoints(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt_", 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".bin") == 0)
      out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::size_t write_checkpoint(const cluster& cl, const std::string& path) {
  const auto& st = cl.stats();
  return app::write_checkpoint(cl, path,
                               {st.local_direct, st.local_serialized,
                                st.remote_messages, st.bytes_serialized});
}

void restore_checkpoint(cluster& cl, const app::checkpoint_data& data) {
  OCTO_CHECK_MSG(data.stats.size() == 4,
                 "not a cluster checkpoint (missing exchange_stats words)");
  app::restore_checkpoint(cl, data);
  exchange_stats st;
  st.local_direct = data.stats[0];
  st.local_serialized = data.stats[1];
  st.remote_messages = data.stats[2];
  st.bytes_serialized = data.stats[3];
  // Last, so the checkpointed counters win over the restore exchange.
  cl.restore_stats(st);
}

std::string newest_valid_checkpoint(const std::string& dir) {
  auto files = list_checkpoints(dir);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    try {
      (void)app::read_checkpoint(*it);
      return *it;
    } catch (const error&) {
      // Corrupted or truncated — keep scanning toward older files.
    }
  }
  return {};
}

run_result run_with_checkpoints(cluster& cl, int target_steps,
                                const run_options& opt) {
  OCTO_CHECK_MSG(!opt.dir.empty(), "run_options.dir is required");
  OCTO_CHECK(opt.every >= 1 && opt.keep >= 1 && opt.max_restarts >= 0);
  fs::create_directories(opt.dir);

  run_result res;
  while (cl.steps_taken() < target_steps) {
    try {
      cl.step();
      if (cl.steps_taken() % opt.every == 0 ||
          cl.steps_taken() == target_steps) {
        const std::string path = checkpoint_path(opt.dir, cl.steps_taken());
        write_checkpoint(cl, path);
        ++res.checkpoints_written;
        res.last_checkpoint = path;
        // Retention: keep the newest opt.keep files.
        auto files = list_checkpoints(opt.dir);
        for (std::size_t i = 0;
             i + static_cast<std::size_t>(opt.keep) < files.size(); ++i)
          fs::remove(files[i]);
      }
    } catch (const error& e) {
      apex::registry::instance().add(counters().rollbacks);
      if (++res.restarts > opt.max_restarts) {
        OCTO_LOG_WARN("run_with_checkpoints: giving up after "
                      << res.restarts - 1 << " rollbacks: " << e.what());
        throw;
      }
      const std::string newest = newest_valid_checkpoint(opt.dir);
      OCTO_LOG_INFO("run_with_checkpoints: fault at step "
                    << cl.steps_taken() + 1 << " (" << e.what()
                    << "), rolling back to "
                    << (newest.empty() ? "initial state" : newest));
      if (newest.empty()) {
        // Nothing valid on disk yet: restart from scratch.
        cl.initialize();
      } else {
        restore_checkpoint(cl, app::read_checkpoint(newest));
      }
    }
  }
  res.steps = cl.steps_taken();
  return res;
}

}  // namespace octo::dist
