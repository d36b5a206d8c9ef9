#include "app/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "amt/task_graph.hpp"
#include "apex/apex.hpp"
#include "apex/trace.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"

namespace octo::app {

namespace {

constexpr char magic[8] = {'O', 'C', 'T', 'O', 'C', 'K', 'P', 'T'};
constexpr char end_magic[8] = {'O', 'C', 'T', 'O', 'E', 'N', 'D', '.'};
constexpr auto cells = static_cast<std::size_t>(grid::subgrid::owned_size);

struct ckpt_metrics {
  apex::metric_id write = apex::registry::instance().timer("ckpt.write");
  apex::metric_id restore = apex::registry::instance().timer("ckpt.restore");
  apex::metric_id written =
      apex::registry::instance().counter("ckpt.written");
  apex::metric_id faults =
      apex::registry::instance().counter("fault.injected");
};
ckpt_metrics& metrics() {
  static ckpt_metrics m;
  return m;
}

/// Grows a record in memory so its CRC can be computed before any byte
/// reaches the stream.
class record_buf {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto old = bytes_.size();
    bytes_.resize(old + sizeof v);
    std::memcpy(bytes_.data() + old, &v, sizeof v);
  }

  void put_reals(const real* p, std::size_t n) {
    const auto old = bytes_.size();
    bytes_.resize(old + n * sizeof(real));
    std::memcpy(bytes_.data() + old, p, n * sizeof(real));
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Checkpoint output stream: tracks position and the running whole-file
/// CRC (over the *intended* bytes), and routes every write through the
/// fault injector, which may bit-flip outgoing bytes (media corruption
/// after checksumming) or cut the stream short (crash mid-write).
class ckpt_sink {
 public:
  explicit ckpt_sink(std::ofstream& os, const std::string& path)
      : os_(os), path_(path) {}

  void write(const void* p, std::size_t n) {
    crc_ = crc32(p, n, crc_);
    auto& inj = fault::injector::instance();
    const std::uint64_t allowed = inj.ckpt_write_budget(pos_, n);
    std::vector<std::uint8_t> out(static_cast<const std::uint8_t*>(p),
                                  static_cast<const std::uint8_t*>(p) + n);
    if (inj.ckpt_corrupt_hook(out.data(), out.size(), pos_))
      apex::registry::instance().add(metrics().faults);
    os_.write(reinterpret_cast<const char*>(out.data()),
              static_cast<std::streamsize>(allowed));
    os_.flush();
    pos_ += allowed;
    if (allowed < n) {
      apex::registry::instance().add(metrics().faults);
      OCTO_CHECK_MSG(false, "injected fault: checkpoint write cut short at "
                                << pos_ << " bytes — " << path_);
    }
    OCTO_CHECK_MSG(os_.good(), "checkpoint write failed: " << path_);
  }

  /// Write a record followed by its CRC-32.
  void write_record(const record_buf& rec) {
    write(rec.bytes().data(), rec.bytes().size());
    const std::uint32_t crc = crc32(rec.bytes().data(), rec.bytes().size());
    write(&crc, sizeof crc);
  }

  std::uint32_t running_crc() const { return crc_; }
  std::uint64_t position() const { return pos_; }

 private:
  std::ofstream& os_;
  const std::string& path_;
  std::uint64_t pos_ = 0;
  std::uint32_t crc_ = 0;
};

/// Cursor over a fully-loaded checkpoint file.
class ckpt_cursor {
 public:
  ckpt_cursor(const std::vector<std::uint8_t>& buf, const std::string& path)
      : buf_(buf), path_(path) {}

  template <typename T>
  T get(const char* record) {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T), record);
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  void get_raw(void* out, std::size_t n, const char* record) {
    need(n, record);
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
  }

  /// Verify the CRC-32 of the record spanning [start, here) against the
  /// stored trailer that follows it.
  void check_record(std::size_t start, const char* record) {
    const std::uint32_t actual =
        crc32(buf_.data() + start, pos_ - start);
    const auto stored = get<std::uint32_t>(record);
    OCTO_CHECK_MSG(stored == actual, "checkpoint CRC mismatch in "
                                         << record << " — " << path_);
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t n, const char* record) {
    OCTO_CHECK_MSG(pos_ + n <= buf_.size(), "checkpoint truncated in "
                                                << record << " — " << path_);
  }

  const std::vector<std::uint8_t>& buf_;
  const std::string& path_;
  std::size_t pos_ = 0;
};

/// Write \p data to \p path atomically (temp file + rename).  Returns
/// bytes written.  Throws octo::error on IO failure or injected fault, in
/// which case \p path still holds its previous contents.
std::size_t write_checkpoint_file(const checkpoint_data& data,
                                  const std::string& path) {
  const apex::scoped_timer apex_t(metrics().write);
  const apex::scoped_trace_span trace_span("ckpt.write");
  OCTO_CHECK(data.leaf_codes.size() == data.fields.size());

  const std::string tmp = path + ".tmp";
  std::size_t total = 0;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    OCTO_CHECK_MSG(os.good(), "cannot open checkpoint file " << tmp);
    ckpt_sink sink(os, tmp);

    sink.write(magic, sizeof magic);
    sink.write(&checkpoint_version, sizeof checkpoint_version);

    record_buf header;
    header.put(data.time);
    header.put(data.step);
    header.put(data.dt);
    header.put(data.domain_half);
    header.put(data.max_level);
    header.put(static_cast<std::int64_t>(data.leaf_codes.size()));
    header.put(static_cast<std::int64_t>(data.stats.size()));
    for (const std::uint64_t s : data.stats) header.put(s);
    sink.write_record(header);

    for (std::size_t l = 0; l < data.leaf_codes.size(); ++l) {
      OCTO_CHECK(data.fields[l].size() == cells);
      record_buf rec;
      rec.put(data.leaf_codes[l]);
      rec.put_reals(data.fields[l].data(), cells);
      sink.write_record(rec);
    }

    sink.write(end_magic, sizeof end_magic);
    const std::uint32_t file_crc = sink.running_crc();
    sink.write(&file_crc, sizeof file_crc);
    total = static_cast<std::size_t>(sink.position());
    os.close();
    OCTO_CHECK_MSG(os.good(), "checkpoint close failed: " << tmp);
  }

  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  OCTO_CHECK_MSG(!ec, "checkpoint rename failed: " << tmp << " -> " << path
                                                   << " (" << ec.message()
                                                   << ")");
  return total;
}

}  // namespace

checkpoint_data read_checkpoint(const std::string& path) {
  const apex::scoped_trace_span trace_span("ckpt.restore");
  std::ifstream is(path, std::ios::binary);
  OCTO_CHECK_MSG(is.good(), "cannot open checkpoint file " << path);
  std::vector<std::uint8_t> buf(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  OCTO_CHECK_MSG(is.good() || is.eof(), "cannot read checkpoint " << path);

  ckpt_cursor cur(buf, path);
  char m[8];
  cur.get_raw(m, sizeof m, "magic");
  OCTO_CHECK_MSG(std::memcmp(m, magic, sizeof m) == 0,
                 "not an octo checkpoint: " << path);
  const auto ver = cur.get<std::int64_t>("version");
  OCTO_CHECK_MSG(ver == checkpoint_version,
                 "unsupported checkpoint version " << ver);

  checkpoint_data data;
  const std::size_t header_start = cur.position();
  data.time = cur.get<real>("header");
  data.step = cur.get<std::int64_t>("header");
  data.dt = cur.get<real>("header");
  data.domain_half = cur.get<real>("header");
  data.max_level = cur.get<std::int64_t>("header");
  const auto nleaves = cur.get<std::int64_t>("header");
  const auto nstats = cur.get<std::int64_t>("header");
  OCTO_CHECK_MSG(nleaves >= 0 && nstats >= 0 && nstats < 1024,
                 "checkpoint CRC mismatch in header — implausible counts: "
                     << path);
  data.stats.resize(static_cast<std::size_t>(nstats));
  for (auto& s : data.stats) s = cur.get<std::uint64_t>("header");
  cur.check_record(header_start, "header");

  data.leaf_codes.reserve(static_cast<std::size_t>(nleaves));
  data.fields.reserve(static_cast<std::size_t>(nleaves));
  for (std::int64_t l = 0; l < nleaves; ++l) {
    char record[48];
    std::snprintf(record, sizeof record, "leaf record %lld",
                  static_cast<long long>(l));
    const std::size_t rec_start = cur.position();
    data.leaf_codes.push_back(cur.get<code_t>(record));
    std::vector<real> f(cells);
    cur.get_raw(f.data(), cells * sizeof(real), record);
    cur.check_record(rec_start, record);
    data.fields.push_back(std::move(f));
  }

  const std::uint32_t body_crc = crc32(buf.data(), cur.position());
  char em[8];
  cur.get_raw(em, sizeof em, "trailer");
  const std::uint32_t body_and_end_crc = crc32(em, sizeof em, body_crc);
  OCTO_CHECK_MSG(std::memcmp(em, end_magic, sizeof em) == 0,
                 "checkpoint CRC mismatch in trailer (end marker) — "
                     << path);
  const auto stored = cur.get<std::uint32_t>("trailer");
  OCTO_CHECK_MSG(stored == body_and_end_crc,
                 "checkpoint CRC mismatch in trailer — " << path);
  OCTO_CHECK_MSG(cur.remaining() == 0,
                 "checkpoint has trailing garbage — " << path);
  return data;
}

std::size_t write_checkpoint(const step_core& core, const std::string& path,
                             std::vector<std::uint64_t> stats) {
  checkpoint_data data;
  data.time = core.time();
  data.step = core.steps_taken();
  data.dt = core.dt();
  data.domain_half = core.topo().domain_half_width();
  data.max_level = core.topo().max_depth();
  data.stats = std::move(stats);

  // Leaf records in SFC order — dist::cluster's distribution key, so a
  // restored cluster shards identically.  One amt task packs each leaf.
  const auto& leaves = core.topo().leaves();
  data.leaf_codes.resize(leaves.size());
  data.fields.resize(leaves.size());
  amt::run_each(core.space().runtime(), "ckpt.pack.leaf", leaves.size(),
                [&](std::size_t s) {
                  const index_t l = leaves[s];
                  data.leaf_codes[s] = core.topo().node(l).code;
                  data.fields[s].resize(cells);
                  core.leaf(l).save_owned(data.fields[s].data());
                });
  const std::size_t bytes = write_checkpoint_file(data, path);
  apex::registry::instance().add(metrics().written);
  return bytes;
}

void restore_checkpoint(step_core& core, const checkpoint_data& data) {
  const apex::scoped_timer apex_t(metrics().restore);
  const apex::scoped_trace_span trace_span("ckpt.restore");
  OCTO_CHECK_MSG(static_cast<index_t>(data.leaf_codes.size()) ==
                     core.topo().num_leaves(),
                 "checkpoint leaf count mismatch");
  for (std::size_t s = 0; s < data.leaf_codes.size(); ++s) {
    const index_t node = core.topo().find(data.leaf_codes[s]);
    OCTO_CHECK_MSG(node != tree::invalid_node && core.topo().node(node).leaf,
                   "checkpoint topology mismatch at leaf " << s);
    OCTO_CHECK_MSG(data.fields[s].size() == cells,
                   "checkpoint leaf record " << s << " holds "
                                             << data.fields[s].size()
                                             << " reals, expected " << cells);
    core.leaf(node).load_owned(data.fields[s].data());
  }
  core.restore_state(data.time, data.step);
}

}  // namespace octo::app
