#include "dist/transport.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "amt/future.hpp"
#include "apex/apex.hpp"
#include "apex/trace.hpp"
#include "common/fault.hpp"

namespace octo::dist {

namespace {

/// Ack deadline growth per retransmission.
constexpr double backoff_factor = 2;
/// Ack deadline noise, as a fraction of the window.
constexpr double jitter = 0.25;

struct transport_counters {
  apex::metric_id messages =
      apex::registry::instance().counter("transport.messages");
  apex::metric_id retries =
      apex::registry::instance().counter("transport.retries");
  apex::metric_id timeouts =
      apex::registry::instance().counter("transport.timeouts");
  apex::metric_id dups =
      apex::registry::instance().counter("transport.dups_dropped");
  apex::metric_id acks = apex::registry::instance().counter("transport.acks");
  apex::metric_id epoch_dropped =
      apex::registry::instance().counter("transport.epoch_dropped");
};
transport_counters& counters() {
  static transport_counters c;
  return c;
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

/// One reliable message in flight.  Shared by the sender's retry loop and
/// every (possibly delayed) network delivery task, so a frame arriving
/// after the sender gave up still finds valid state.
struct message {
  std::uint64_t seq = 0;
  std::uint32_t epoch = 0;  ///< generation the frame belongs to
  int src_loc = 0;
  int dst_loc = 0;
  std::vector<std::uint8_t> payload;
  transport::deliver_fn deliver;
  amt::promise<void> ack_promise;
  std::atomic<bool> acked{false};
  /// Set once `deliver` has returned: only then may any copy be acked.
  std::atomic<bool> delivered{false};

  void complete_ack() {
    if (!acked.exchange(true, std::memory_order_acq_rel))
      ack_promise.set_value();
  }
};

using message_ptr = std::shared_ptr<message>;

struct transport::state {
  /// One directed (source, destination) locality pair.  Its sends run
  /// concurrently, so the duplicate filter is exact: every seq below
  /// `below` was delivered, `above` holds the delivered ones past it.  A
  /// failed send's seq stays a gap until advance_epoch.
  struct pair_state {
    std::mutex m;
    std::uint64_t next_seq = 0;
    std::uint64_t below = 0;
    std::set<std::uint64_t> above;
  };

  transport_options opt;
  amt::runtime* rt = nullptr;
  int num_localities = 0;
  std::vector<pair_state> pairs;  ///< src * num_localities + dst

  pair_state& pair(const message& msg) {
    return pairs[static_cast<std::size_t>(msg.src_loc * num_localities +
                                          msg.dst_loc)];
  }

  /// Reorder stash: a held-back frame that is released behind the next
  /// frame that transits (any pair — reordering across routes is what an
  /// adaptive-routed torus does).
  std::mutex reorder_m;
  message_ptr stashed;

  /// Current generation; bumped by advance_epoch() on every route rebuild.
  /// Frames stamped with an older value are dropped on receive.
  std::atomic<std::uint32_t> epoch{0};

  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> dups_dropped{0};
  std::atomic<std::uint64_t> acks{0};
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> header_bytes{0};
  std::atomic<std::uint64_t> epoch_dropped{0};
  std::atomic<std::uint64_t> rng{0x72640C70ull};

  double jitter_factor() {
    std::uint64_t s = rng.fetch_add(0x9E3779B97F4A7C15ull,
                                    std::memory_order_relaxed);
    const double u =
        static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;  // [0, 1)
    return 1.0 + jitter * (2 * u - 1);
  }
};

namespace {

/// Receiver side: dedup, deliver, acknowledge.
void on_frame(const std::shared_ptr<transport::state>& st,
              const message_ptr& msg);

/// Push one ack through the lossy network back to the sender.
void transmit_ack(const std::shared_ptr<transport::state>& st,
                  const message_ptr& msg) {
  auto& inj = fault::injector::instance();
  st->header_bytes.fetch_add(transport::ack_header_bytes,
                             std::memory_order_relaxed);
  if (inj.msg_drop_hook()) return;  // lost ack -> sender retransmits
  const std::uint64_t delay_us = inj.msg_delay_hook();
  if (delay_us == 0) {
    msg->complete_ack();
    return;
  }
  st->rt->post([msg, delay_us] {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    msg->complete_ack();
  });
}

/// Deliver one delayed, duplicated or reorder-released frame copy to the
/// receiver as a task (the network hop), so it races with the exchange.
void deliver_frame(const std::shared_ptr<transport::state>& st,
                   const message_ptr& msg, std::uint64_t delay_us) {
  st->rt->post([st, msg, delay_us] {
    if (delay_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    on_frame(st, msg);
  });
}

/// Sender side of the network: apply drop / delay / dup / reorder faults,
/// then deliver the frame — inline when undelayed, as transmit_ack does,
/// so the sender's ack deadline (started after transmit returns) never
/// covers a delivery task queued behind other work — and hand every other
/// surviving copy to a delivery task.
void transmit(const std::shared_ptr<transport::state>& st,
              const message_ptr& msg) {
  auto& inj = fault::injector::instance();
  st->frames_sent.fetch_add(1, std::memory_order_relaxed);
  st->header_bytes.fetch_add(transport::frame_header_bytes,
                             std::memory_order_relaxed);

  // A frame addressed to (or from) a dead locality vanishes: the NIC on
  // the other end no longer exists.  The sender's retry loop times out.
  if (!inj.locality_alive(msg->src_loc) || !inj.locality_alive(msg->dst_loc))
    return;

  if (inj.msg_drop_hook()) return;

  // Reorder: stash this frame; release any previously stashed frame now
  // (it arrives *after* whatever transits next) — or, if one is already
  // waiting, send the current frame ahead of it.
  message_ptr release;
  {
    const std::lock_guard<std::mutex> lock(st->reorder_m);
    if (st->stashed) {
      release = std::move(st->stashed);
    } else if (inj.msg_reorder_hook()) {
      st->stashed = msg;
      return;
    }
  }

  const std::uint64_t delay_us = inj.msg_delay_hook();
  if (delay_us == 0)
    on_frame(st, msg);
  else
    deliver_frame(st, msg, delay_us);
  if (inj.msg_dup_hook()) deliver_frame(st, msg, inj.msg_delay_hook());
  if (release) deliver_frame(st, release, inj.msg_delay_hook());
}

void on_frame(const std::shared_ptr<transport::state>& st,
              const message_ptr& msg) {
  // Stale generation: the routes were rebuilt while this frame (or a
  // delayed copy of it) was in transit, so its seq means nothing against
  // the fresh filter.  Drop it unacknowledged: a sender still waiting on it
  // belongs to the old generation and must fail.
  if (msg->epoch != st->epoch.load(std::memory_order_acquire)) {
    st->epoch_dropped.fetch_add(1, std::memory_order_relaxed);
    apex::registry::instance().add(counters().epoch_dropped);
    return;
  }
  bool fresh = false;
  {
    auto& pair = st->pair(*msg);
    const std::lock_guard<std::mutex> lock(pair.m);
    fresh = msg->seq >= pair.below && pair.above.insert(msg->seq).second;
    for (auto it = pair.above.begin();
         it != pair.above.end() && *it == pair.below;
         it = pair.above.erase(it))
      ++pair.below;
  }
  if (fresh) {
    msg->deliver(std::move(msg->payload));
    msg->delivered = true;
  } else {
    st->dups_dropped.fetch_add(1, std::memory_order_relaxed);
    apex::registry::instance().add(counters().dups);
    // A copy that overtakes a delivery still running must not ack: the
    // sender would return before the payload has landed.  The delivering
    // copy acks itself once deliver returns.
    if (!msg->delivered) return;
  }
  // Acknowledge the delivering copy and every later one — the sender may
  // have missed the first ack.
  st->acks.fetch_add(1, std::memory_order_relaxed);
  apex::registry::instance().add(counters().acks);
  transmit_ack(st, msg);
}

}  // namespace

transport::transport(int num_localities, transport_options opt,
                     amt::runtime& rt)
    : state_(std::make_shared<state>()) {
  OCTO_CHECK(num_localities >= 1);
  OCTO_CHECK(opt.ack_timeout_ms > 0 && opt.max_retries >= 0);
  state_->opt = opt;
  state_->rt = &rt;
  state_->num_localities = num_localities;
  state_->pairs = std::vector<state::pair_state>(
      static_cast<std::size_t>(num_localities * num_localities));
}

transport::~transport() = default;

void transport::send(int link, int src_loc, int dst_loc,
                     std::vector<std::uint8_t> payload, deliver_fn deliver) {
  const apex::scoped_trace_span span("transport.send");
  auto st = state_;
  OCTO_ASSERT(src_loc >= 0 && src_loc < st->num_localities);
  OCTO_ASSERT(dst_loc >= 0 && dst_loc < st->num_localities);

  auto msg = std::make_shared<message>();
  msg->src_loc = src_loc;
  msg->dst_loc = dst_loc;
  msg->payload = std::move(payload);
  msg->deliver = std::move(deliver);
  msg->epoch = st->epoch.load(std::memory_order_acquire);
  {
    auto& pair = st->pair(*msg);
    const std::lock_guard<std::mutex> lock(pair.m);
    msg->seq = pair.next_seq++;
  }

  auto ack = msg->ack_promise.get_future();
  auto& inj = fault::injector::instance();
  double window_ms = st->opt.ack_timeout_ms;
  for (int attempt = 0;; ++attempt) {
    if (!inj.locality_alive(dst_loc) || !inj.locality_alive(src_loc)) {
      std::ostringstream os;
      os << "transport: locality "
         << (inj.locality_alive(src_loc) ? dst_loc : src_loc)
         << " is dead (link " << link << ", seq " << msg->seq << ")";
      throw transport_error(os.str());
    }
    transmit(st, msg);
    const auto wait_ms = window_ms * st->jitter_factor();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(wait_ms));
    if (ack.wait_until(deadline, *st->rt)) {
      st->messages.fetch_add(1, std::memory_order_relaxed);
      apex::registry::instance().add(counters().messages);
      return;
    }
    st->timeouts.fetch_add(1, std::memory_order_relaxed);
    apex::registry::instance().add(counters().timeouts);
    if (attempt >= st->opt.max_retries) {
      std::ostringstream os;
      os << "transport: link " << link << " seq " << msg->seq
         << " to locality " << dst_loc << " undelivered after "
         << attempt + 1 << " attempts";
      throw transport_error(os.str());
    }
    const apex::scoped_trace_span retry_span("transport.retry");
    st->retries.fetch_add(1, std::memory_order_relaxed);
    apex::registry::instance().add(counters().retries);
    window_ms *= backoff_factor;
  }
}

void transport::advance_epoch() {
  state_->epoch.fetch_add(1, std::memory_order_acq_rel);
  // The epoch check already quarantines every in-flight frame of the old
  // generation, so the pairs can restart clean: seq from 0, no delivered
  // history to collide with.
  for (auto& pair : state_->pairs) {
    const std::lock_guard<std::mutex> lock(pair.m);
    pair.next_seq = pair.below = 0;
    pair.above.clear();
  }
  // Drop a reorder-stashed frame too: releasing it into the new
  // generation would be exactly the cross-epoch delivery this prevents.
  {
    const std::lock_guard<std::mutex> lock(state_->reorder_m);
    if (state_->stashed) {
      state_->stashed.reset();
      state_->epoch_dropped.fetch_add(1, std::memory_order_relaxed);
      apex::registry::instance().add(counters().epoch_dropped);
    }
  }
}

std::uint32_t transport::epoch() const {
  return state_->epoch.load(std::memory_order_acquire);
}

transport_stats transport::stats() const {
  transport_stats s;
  s.messages = state_->messages.load(std::memory_order_relaxed);
  s.retries = state_->retries.load(std::memory_order_relaxed);
  s.timeouts = state_->timeouts.load(std::memory_order_relaxed);
  s.dups_dropped = state_->dups_dropped.load(std::memory_order_relaxed);
  s.acks = state_->acks.load(std::memory_order_relaxed);
  s.frames_sent = state_->frames_sent.load(std::memory_order_relaxed);
  s.header_bytes = state_->header_bytes.load(std::memory_order_relaxed);
  s.epoch_dropped = state_->epoch_dropped.load(std::memory_order_relaxed);
  return s;
}

}  // namespace octo::dist
