#include "runtime/reliable_transport.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

#include "core/check.h"
#include "obs/telemetry.h"

namespace sgm {

namespace {

/// Bitset position of an endpoint slot.
std::size_t WordOf(int slot) { return static_cast<std::size_t>(slot) / 64; }
std::uint64_t BitOf(int slot) { return std::uint64_t{1} << (slot % 64); }

/// Erases, in place and keeping order, every element of `list` for which
/// `drop(element)` returns true; `drop` may modify the element. Returns the
/// number erased.
template <typename T, typename Drop>
long EraseWhere(std::vector<T>* list, Drop drop) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < list->size(); ++i) {
    if (drop((*list)[i])) continue;
    if (kept != i) (*list)[kept] = std::move((*list)[i]);
    ++kept;
  }
  const long erased = static_cast<long>(list->size() - kept);
  list->erase(list->begin() + static_cast<std::ptrdiff_t>(kept), list->end());
  return erased;
}

/// Calls `visit(endpoint)` for every destination set in an awaiting bitset,
/// in ascending endpoint order (coordinator first, then sites).
template <typename Visit>
void ForEachAwaited(const std::vector<std::uint64_t>& awaiting, Visit visit) {
  for (std::size_t word = 0; word < awaiting.size(); ++word) {
    for (std::uint64_t bits = awaiting[word]; bits != 0; bits &= bits - 1) {
      const int slot = static_cast<int>(word * 64) + std::countr_zero(bits);
      visit(slot - 1);
    }
  }
}

/// The first retransmission fires this many transport rounds after the
/// original send; each further one doubles the wait up to the ceiling
/// (rounds, before jitter).
constexpr long kBaseBackoffRounds = 1;
constexpr long kMaxBackoffRounds = 8;

using Stats = ReliableTransport::Stats;

/// The `transport.*` rows PublishMetrics mirrors from Stats.
constexpr MetricRows<Stats>::CounterRow kStatsRows[] = {
    {"transport.tracked_sends", [](const Stats& s) { return s.tracked_sends; }},
    {"transport.retransmissions",
     [](const Stats& s) { return s.retransmissions; }},
    {"transport.acks_sent", [](const Stats& s) { return s.acks_sent; }},
    {"transport.duplicates_suppressed",
     [](const Stats& s) { return s.duplicates_suppressed; }},
    {"transport.give_ups", [](const Stats& s) { return s.give_ups; }},
    {"transport.dedup_evictions",
     [](const Stats& s) { return s.dedup_evictions; }},
};

}  // namespace

ReliableTransport::ReliableTransport(Transport* lower, int num_sites,
                                     const ReliableTransportConfig& config,
                                     Telemetry* telemetry)
    : lower_(lower),
      num_sites_(num_sites),
      config_(config),
      telemetry_(telemetry),
      rng_(config.seed),
      link_up_(num_sites, true),
      next_seq_(num_sites + 1, 0),
      in_flight_(num_sites + 1),
      seen_at_site_(num_sites),
      seen_at_coordinator_(num_sites),
      metric_rows_(kStatsRows) {
  SGM_CHECK(lower != nullptr);
  SGM_CHECK(num_sites > 0);
  SGM_CHECK(config.max_retransmits >= 0);
  SGM_CHECK(config.dedup_window >= 8);
}

bool ReliableTransport::Tracked(const RuntimeMessage& message) {
  switch (message.type) {
    case RuntimeMessage::Type::kAck:
    case RuntimeMessage::Type::kHeartbeat:
    case RuntimeMessage::Type::kRejoinRequest:
      return false;
    default:
      return true;
  }
}

long ReliableTransport::NextBackoff(int attempts) {
  long backoff = kBaseBackoffRounds;
  for (int i = 0; i < attempts && backoff < kMaxBackoffRounds; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, kMaxBackoffRounds);
  // Deterministic jitter: desynchronizes retransmission bursts without
  // breaking seed replay.
  return backoff + static_cast<long>(rng_.NextBounded(2));
}

bool ReliableTransport::Awaits(const InFlight& entry, int dest) {
  const std::size_t word = WordOf(Slot(dest));
  return word < entry.awaiting.size() &&
         (entry.awaiting[word] & BitOf(Slot(dest))) != 0;
}

bool ReliableTransport::ReleaseAwait(InFlight* entry, int dest) {
  if (Awaits(*entry, dest)) {
    entry->awaiting[WordOf(Slot(dest))] &= ~BitOf(Slot(dest));
    --entry->awaiting_count;
  }
  return entry->awaiting_count == 0;
}

void ReliableTransport::MarkLinkDown(int site) {
  if (site < 0 || site >= num_sites_) return;
  link_up_[site] = false;
  // Release every pending expectation on the dead link; entries whose last
  // awaited destination this was complete immediately. Only the
  // coordinator's messages await sites.
  in_flight_count_ -=
      EraseWhere(&in_flight_[Slot(kCoordinatorId)],
                 [&](InFlight& entry) { return ReleaseAwait(&entry, site); });
}

void ReliableTransport::AbandonSender(int sender) {
  if (!IsEndpoint(sender)) return;
  std::vector<InFlight>& list = in_flight_[Slot(sender)];
  in_flight_count_ -= static_cast<long>(list.size());
  list.clear();
}

void ReliableTransport::MarkLinkUp(int site) {
  if (site >= 0 && site < num_sites_) link_up_[site] = true;
}

bool ReliableTransport::IsLinkUp(int site) const {
  return site >= 0 && site < num_sites_ && link_up_[site];
}

void ReliableTransport::Send(const RuntimeMessage& message) {
  if (!Tracked(message)) {
    lower_->Send(message);
    return;
  }
  // Sequenced traffic has the coordinator at exactly one end: a site talks
  // to the coordinator, the coordinator to one site or to all of them.
  if (message.from == kCoordinatorId) {
    SGM_CHECK(message.to == kBroadcastId ||
              (message.to >= 0 && message.to < num_sites_));
  } else {
    SGM_CHECK(message.from >= 0 && message.from < num_sites_ &&
              message.to == kCoordinatorId);
  }
  RuntimeMessage stamped = message;
  stamped.seq = ++next_seq_[Slot(message.from)];
  stamped.retransmit = false;

  // The destinations an ack can confirm, as a bitset just wide enough for
  // them. A whole-delivered broadcast is lost only together with its
  // receiver, which an ack cannot repair: it stays sequenced, for dedup,
  // but awaits no one. Per-destination links track each site's copy. An
  // administratively-down destination is best-effort (the rejoin machinery
  // owns resynchronization).
  InFlight entry;
  const auto await = [&entry](int dest) {
    entry.awaiting[WordOf(Slot(dest))] |= BitOf(Slot(dest));
    ++entry.awaiting_count;
  };
  if (stamped.to == kBroadcastId) {
    if (!lower_->DeliversWhole(stamped)) {
      entry.awaiting.assign(WordOf(Slot(num_sites_ - 1)) + 1, 0);
      for (int site = 0; site < num_sites_; ++site) {
        if (link_up_[site]) await(site);
      }
    }
  } else if (stamped.to < 0 || link_up_[stamped.to]) {
    entry.awaiting.assign(WordOf(Slot(stamped.to)) + 1, 0);
    await(stamped.to);
  }
  if (entry.awaiting_count == 0) {
    lower_->Send(stamped);
    return;
  }
  ++stats_.tracked_sends;
  entry.due_round = round_ + NextBackoff(0);
  const std::size_t slot = Slot(stamped.from);
  entry.message = std::move(stamped);
  in_flight_[slot].push_back(std::move(entry));
  ++in_flight_count_;
  lower_->Send(in_flight_[slot].back().message);
}

void ReliableTransport::Ack(int receiver, const RuntimeMessage& message) {
  // Still addressed to kBroadcastId, the message came over a link that
  // delivers broadcasts whole, and its sender expects no ack.
  if (message.to == kBroadcastId) return;
  RuntimeMessage ack;
  ack.type = RuntimeMessage::Type::kAck;
  ack.from = receiver;
  ack.to = message.from;
  ack.epoch = message.epoch;
  ack.seq = message.seq;
  ++stats_.acks_sent;
  lower_->Send(ack);
}

void ReliableTransport::Resolve(int sender, std::int64_t seq, int receiver) {
  // Acks arrive off the wire: one naming an endpoint outside this
  // deployment matches nothing.
  if (!IsEndpoint(sender) || !IsEndpoint(receiver)) return;
  std::vector<InFlight>& list = in_flight_[Slot(sender)];
  const auto it = std::lower_bound(list.begin(), list.end(), seq,
                                   [](const InFlight& entry, std::int64_t s) {
                                     return entry.message.seq < s;
                                   });
  if (it == list.end() || it->message.seq != seq) return;
  if (ReleaseAwait(&*it, receiver)) {
    list.erase(it);
    --in_flight_count_;
  }
}

ReliableTransport::SeenWindow& ReliableTransport::WindowFor(int receiver,
                                                            int sender) {
  if (receiver == kCoordinatorId) {
    SGM_CHECK(sender >= 0 && sender < num_sites_);
    return seen_at_coordinator_[sender];
  }
  SGM_CHECK(sender == kCoordinatorId && receiver >= 0 &&
            receiver < num_sites_);
  return seen_at_site_[receiver];
}

void ReliableTransport::OnDeliver(int receiver, const RuntimeMessage& message,
                                  std::vector<RuntimeMessage>* deliver) {
  SGM_CHECK(deliver != nullptr);
  if (Receive(receiver, message)) deliver->push_back(message);
}

bool ReliableTransport::ReceiveGeneral(int receiver,
                                       const RuntimeMessage& message) {
  if (message.type == RuntimeMessage::Type::kAck) {
    // message.to is the original sender whose seq is being acknowledged.
    Resolve(message.to, message.seq, message.from);
    return false;
  }
  // Unsequenced control (heartbeat, rejoin request) skips dedup.
  if (message.seq == 0) return true;

  SeenWindow& window = WindowFor(receiver, message.from);
  if (!window.Admit(message.seq)) {
    ++stats_.duplicates_suppressed;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kDuplicateSuppressed, receiver,
                             {{"sender", message.from}, {"seq", message.seq}});
    }
    Ack(receiver, message);  // the previous ack may have been lost
    return false;
  }
  stats_.dedup_evictions += window.Trim(config_.dedup_window);
  Ack(receiver, message);
  return true;
}

ReliableTransport::SiteWindowView ReliableTransport::SiteWindow(
    int site) const {
  SGM_CHECK(site >= 0 && site < num_sites_);
  const SeenWindow& window = seen_at_site_[site];
  return {window.top, window.top - window.floor - window.seen};
}

bool ReliableTransport::SeenWindow::Admit(std::int64_t seq) {
  if (seq > top) {
    // In order, the common case, or past a gap that becomes one hole.
    if (seq > top + 1) holes.push_back({top + 1, seq - 1});
    top = seq;
    ++seen;
    return true;
  }
  if (seq <= floor) return false;
  // A seq at or below the top is fresh only inside a hole.
  const auto hole = std::lower_bound(
      holes.begin() + static_cast<std::ptrdiff_t>(head), holes.end(), seq,
      [](const Hole& h, std::int64_t s) { return h.last < s; });
  if (hole == holes.end() || hole->first > seq) return false;
  if (hole->first == hole->last) {
    holes.erase(hole);
  } else if (seq == hole->first) {
    ++hole->first;
  } else if (seq == hole->last) {
    --hole->last;
  } else {
    const Hole upper{seq + 1, hole->last};
    hole->last = seq - 1;
    holes.insert(hole + 1, upper);
  }
  ++seen;
  return true;
}

long ReliableTransport::SeenWindow::Trim(long limit) {
  long promoted = 0;
  for (; seen > limit; --seen, ++promoted) {
    // The lowest seen seq above the floor is floor + 1, or the seq just
    // past a hole that starts there. Anything older than the window is
    // long past its retransmission horizon.
    if (head < holes.size() && holes[head].first == floor + 1) {
      floor = holes[head++].last + 1;
    } else {
      ++floor;
    }
  }
  if (2 * head > holes.size()) {
    holes.erase(holes.begin(),
                holes.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return promoted;
}

void ReliableTransport::AdvanceRound() {
  ++round_;
  // Handlers can re-enter (MarkLinkDown mutates in_flight_), so collect the
  // exhausted links during the sweep and report them after it. The sweep
  // runs in (sender, seq) order, coordinator first, so retransmissions and
  // jitter draws replay in a fixed order.
  std::vector<std::pair<int, RuntimeMessage>> exhausted_links;
  for (std::vector<InFlight>& list : in_flight_) {
    in_flight_count_ -= EraseWhere(&list, [&](InFlight& entry) {
      if (entry.due_round > round_) return false;
      if (entry.attempts >= config_.max_retransmits) {
        // Exhausted: report still-awaited site links as dead and abandon.
        ++stats_.give_ups;
        if (telemetry_ != nullptr) {
          telemetry_->trace.Emit(
              TraceEventId::kGiveUp, entry.message.from,
              {{"sender", entry.message.from}, {"seq", entry.message.seq}});
        }
        ForEachAwaited(entry.awaiting, [&](int dest) {
          if (dest >= 0) exhausted_links.emplace_back(dest, entry.message);
        });
        return true;
      }
      ++entry.attempts;
      entry.due_round = round_ + NextBackoff(entry.attempts);
      ForEachAwaited(entry.awaiting, [&](int dest) {
        RuntimeMessage copy = entry.message;
        copy.retransmit = true;
        // A broadcast retransmits as unicast copies to the missing sites
        // only; dedup on the receiver keys by (sender, seq), so overlap
        // with the original broadcast is suppressed.
        copy.to = dest;
        ++stats_.retransmissions;
        if (telemetry_ != nullptr && !SpanUnsampled(copy.span)) {
          telemetry_->trace.Emit(
              TraceEventId::kRetransmit, copy.from,
              {{"sender", copy.from},
               {"seq", copy.seq},
               {"attempt", entry.attempts},
               {"span", copy.span},
               {"bytes", static_cast<std::int64_t>(WireBytes(copy))}});
        }
        lower_->Send(copy);
      });
      return false;
    });
  }
  if (dead_link_handler_) {
    for (const auto& [site, message] : exhausted_links) {
      dead_link_handler_(site, message);
    }
  }
}

void ReliableTransport::PublishMetrics(MetricRegistry* registry) const {
  if (registry == nullptr) return;
  metric_rows_.Publish(registry, stats_);
}

}  // namespace sgm
