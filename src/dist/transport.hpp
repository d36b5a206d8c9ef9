#pragma once
/// \file transport.hpp
/// Reliable delivery over an unreliable in-process "network".
///
/// An unreliable network loses, delays, duplicates and reorders frames; a
/// single lost message would leave its receiver unfilled.  At Fugaku scale
/// the HPX parcelport absorbs message loss, delay, duplication and
/// reordering; this layer reproduces that contract for every *serialized*
/// message from one locality to another (or to itself):
///
///   * monotonic sequence numbers per directed (source, destination)
///     locality pair; the caller's link id only labels the frame;
///   * receiver acknowledgements, with a configurable ack deadline
///     (amt::future::wait_until under the hood, helping the scheduler);
///   * bounded retransmission with exponential backoff and deterministic
///     jitter; `transport_error` (an octo::error, so the checkpoint
///     rollback and recovery drivers catch it) once retries are exhausted
///     or the destination locality is dead;
///   * exact duplicate suppression per pair on the receive side: a late or
///     duplicated frame is acknowledged (once the first copy's delivery has
///     returned) but never delivered twice, so the exchange stays
///     idempotent and bitwise identical to a fault-free run;
///   * a *generation epoch* in the frame header: route rebuilds (after a
///     migration, a recovery, or a failed exchange) advance it and reset
///     every pair's sequence numbers and duplicate filter; frames of an
///     older epoch are dropped at the receiver (`transport.epoch_dropped`),
///     never delivered — else a delayed pre-rebuild (pair, seq 0) would
///     pass for, or suppress, the fresh generation's first frame.
///
/// The "network" consults common/fault.hpp on every transit — armed by
/// arm_msg_drop / arm_msg_delay_us / arm_msg_dup / arm_msg_reorder.  An
/// undelayed frame is delivered inside transmit, before the sender's ack
/// deadline starts; delayed, duplicated and reorder-released copies are
/// delivered as tasks on the transport's runtime, so they genuinely race
/// with the sender's other work.  Acks travel the same lossy path (a
/// delivered-but-unacked frame forces a retransmission that the duplicate
/// filter then absorbs).
///
/// Observability: apex counters `transport.messages`, `transport.retries`,
/// `transport.timeouts`, `transport.dups_dropped`, `transport.acks` and
/// spans `transport.send` / `transport.retry` around the retry loop.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "amt/runtime.hpp"
#include "common/error.hpp"

namespace octo::dist {

/// Delivery failure after retries exhausted (or peer locality dead).
class transport_error : public error {
 public:
  explicit transport_error(const std::string& what) : error(what) {}
};

struct transport_options {
  /// First attempt's ack deadline; it doubles per retransmission, with
  /// +-25 % jitter.
  // option kept: TransportEnv.ThrowsAfterRetriesExhausted
  double ack_timeout_ms = 10;
  /// Retransmissions after the first attempt.
  // option kept: TransportEnv.ThrowsAfterRetriesExhausted
  int max_retries = 10;
};

/// Monotonic counters, snapshotted by stats().
struct transport_stats {
  std::uint64_t messages = 0;      ///< reliable sends completed
  std::uint64_t retries = 0;       ///< retransmission attempts
  std::uint64_t timeouts = 0;      ///< expired ack waits
  std::uint64_t dups_dropped = 0;  ///< receiver-side duplicate suppressions
  std::uint64_t acks = 0;          ///< acknowledgements received
  std::uint64_t frames_sent = 0;   ///< transmit attempts (incl. dup copies)
  std::uint64_t header_bytes = 0;  ///< seq/ack wire overhead, all attempts
  std::uint64_t epoch_dropped = 0; ///< stale-generation frames discarded
};

class transport {
 public:
  /// Receiver-side payload sink for one message.
  using deliver_fn = std::function<void(std::vector<std::uint8_t>)>;

  /// Per-frame wire overhead the reliability adds: seq (8) + link id (4) +
  /// flags (4) + generation epoch (4) on a data frame, seq (8) + link id
  /// (4) on an ack.
  static constexpr std::size_t frame_header_bytes = 20;
  static constexpr std::size_t ack_header_bytes = 12;

  /// One state per directed pair of \p num_localities localities,
  /// self-pairs included; delayed frames are delivered as tasks on \p rt.
  transport(int num_localities, transport_options opt, amt::runtime& rt);
  ~transport();

  transport(const transport&) = delete;
  transport& operator=(const transport&) = delete;

  /// Reliable delivery of \p payload from locality \p src_loc to
  /// \p dst_loc, labelled \p link: assign the pair's next sequence number,
  /// transmit, and block (helping the scheduler) until the receiver
  /// acknowledges.  Sends on one pair may run concurrently.  Retransmits on
  /// ack timeout with exponential backoff + jitter; throws transport_error
  /// after max_retries, or immediately when either locality is dead.
  /// \p deliver runs exactly once per sequence number — on the sending
  /// thread for an undelayed frame, else on a delivery task — no matter
  /// how many copies of the frame arrive.  A copy is acknowledged only
  /// after that one delivery has returned, so send() returns only once
  /// \p deliver has run to completion, and what it wrote happens-before
  /// the return: a caller may read the delivered data right after it.
  void send(int link, int src_loc, int dst_loc,
            std::vector<std::uint8_t> payload, deliver_fn deliver);

  /// Open the next generation (a route rebuild): every pair's sequence
  /// numbering restarts at 0 with a cleared duplicate filter, and any
  /// frame of an older generation still in flight is dropped at the
  /// receiver instead of delivered or matched against the fresh filter.
  void advance_epoch();

  /// Current generation (starts at 0; tests).
  std::uint32_t epoch() const;

  transport_stats stats() const;

  /// Shared implementation state (defined in transport.cpp); public so the
  /// free transmit/deliver helpers there can take it without friendship.
  struct state;

 private:
  std::shared_ptr<state> state_;
};

}  // namespace octo::dist
