#pragma once
/// \file trace.hpp
/// Task-level tracing: per-thread event buffers exported as Chrome
/// trace-event JSON (loadable in Perfetto / chrome://tracing).
///
/// This is the APEX task-trace facility the paper's §VIII calls for: every
/// AMT task execution, steal, helping-wait run, and application phase
/// becomes a span on its worker's timeline, so core starvation during the
/// FMM tree traversals (Fig. 9) is directly visible as gaps.
///
/// Design constraints, in order:
///   1. near-zero cost when disabled — one relaxed atomic load per span;
///   2. race-free under ThreadSanitizer — each thread appends to its own
///      fixed-capacity buffer and publishes events with a release store of
///      the head index; the (stop-the-recording) dumper reads with acquire.
///      Buffers never overwrite: when full, new events are dropped and
///      counted (raise OCTO_TRACE_BUFFER for long runs);
///   3. no allocation on the hot path — event names must be pointers to
///      storage that outlives the dump (string literals in practice).
///
/// Bootstrap: `trace::instance()` reads `OCTO_TRACE=<file.json>` from the
/// environment on first use; when set, tracing starts enabled and the
/// trace is written at process exit (and on explicit `write()`).  A
/// multi-locality `dist::cluster` run traces the same way: one file, every
/// worker's spans under pid 0 (the in-process localities share one pool).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace octo::apex {

/// One completed span or instant event on a thread's timeline.
struct trace_event {
  const char* name;      ///< static-duration string
  std::uint64_t ts_ns;   ///< start, ns since trace epoch
  std::uint64_t dur_ns;  ///< 0 for instant events
  enum class kind : std::uint8_t { span, instant } type;
};

class trace {
 public:
  static trace& instance();

  /// Fast path: is any recording active?
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Start recording; the trace will be written to \p path by write() or,
  /// if \p path is non-empty, automatically at process exit.  Throws
  /// octo::error naming \p path when it is an existing directory.
  void enable(std::string path);
  /// Stop recording (already-captured events are kept until write()).
  void disable();

  /// Name the calling thread's timeline (e.g. "worker-3"); shows up as the
  /// Chrome trace thread name.  Cheap; callable before enable().
  void set_thread_name(const std::string& name);

  /// Record a completed span on the calling thread's timeline.
  void record_span(const char* name, std::uint64_t ts_ns,
                   std::uint64_t dur_ns);
  /// Record an instant event (zero duration marker).
  void record_instant(const char* name);

  /// Nanoseconds since the trace epoch (process-wide steady clock base).
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch())
            .count());
  }

  /// Serialize everything recorded so far as Chrome trace-event JSON.
  void write(std::ostream& os) const;
  /// Write to the path given to enable(); returns false if none/IO error.
  bool write_to_file() const;
  const std::string& path() const { return path_; }

  /// Total events captured / dropped (buffer-full) across all threads.
  std::uint64_t captured() const;
  std::uint64_t dropped() const;

  /// Drop all recorded events and thread buffers (for tests).
  void clear();

  /// Per-thread buffer capacity for threads that start recording after the
  /// call (default: default_buffer_capacity()).
  void set_buffer_capacity(std::size_t events);
  /// OCTO_TRACE_BUFFER, a positive integer, or 1<<16 events when unset;
  /// any other value throws octo::error naming the variable.
  static std::size_t default_buffer_capacity();

 private:
  trace();
  static std::atomic<bool>& enabled_flag();
  static std::chrono::steady_clock::time_point epoch();

  struct impl;
  impl* impl_;  ///< leaked on purpose: threads may record until exit
  std::string path_;
};

/// RAII span: captures the enclosing scope on the calling thread's
/// timeline.  `name` must point to static-duration storage.
class scoped_trace_span {
 public:
  explicit scoped_trace_span(const char* name) {
    if (trace::enabled()) {
      name_ = name;
      start_ = trace::now_ns();
    }
  }
  ~scoped_trace_span() {
    if (name_ != nullptr)
      trace::instance().record_span(name_, start_, trace::now_ns() - start_);
  }
  scoped_trace_span(const scoped_trace_span&) = delete;
  scoped_trace_span& operator=(const scoped_trace_span&) = delete;

 private:
  const char* name_ = nullptr;  ///< null when tracing was off at entry
  std::uint64_t start_ = 0;
};

}  // namespace octo::apex
