#ifndef SGM_RUNTIME_TRANSPORT_H_
#define SGM_RUNTIME_TRANSPORT_H_

#include <deque>
#include <functional>

#include "runtime/message.h"

namespace sgm {

struct Telemetry;

/// Message-delivery abstraction of the runtime: implementations route
/// RuntimeMessages between the coordinator and sites. The library ships an
/// in-memory bus; deployments substitute sockets/RPC.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueues a message for delivery. `to == kBroadcastId` fans out to all
  /// sites but is accounted as a single transmission (the broadcast cost
  /// model of the paper).
  virtual void Send(const RuntimeMessage& message) = 0;

  /// True when this link delivers `message`, a broadcast, whole: every
  /// receiver gets it, addressed to kBroadcastId, unless the receiver itself
  /// is gone (a crashed node, a dead session). An ack cannot repair that
  /// loss, so the reliability layer expects none. A link that decides each
  /// destination's fate on its own copy (readdressed to the site) answers
  /// false, and each copy is then acked and retransmitted.
  virtual bool DeliversWhole(const RuntimeMessage& /*message*/) const {
    return true;
  }
};

/// Wire cost of one message: 16-byte header + 8 bytes per payload double
/// (the accounting convention shared with sim::Metrics).
inline double WireBytes(const RuntimeMessage& message) {
  return 16.0 + 8.0 * static_cast<double>(message.PayloadDoubles());
}

/// The nodes' send path: traces `message`'s `msg_send` event (telemetry is
/// nullable), then hands the message to `transport`. One msg_send per
/// span-carrying send, so trace_inspect --spans can charge message and byte
/// cost to the cycle phase that caused it, on either tier. Span-less
/// traffic (heartbeats, rejoin requests) stays out of the span trees, and
/// an unsampled cascade skips the formatting call, not just the recording.
void SendTraced(Transport* transport, Telemetry* telemetry,
                const RuntimeMessage& message);

/// Deterministic in-memory bus: FIFO queue drained by the runtime driver.
///
/// Two accounting families, both cumulative and sender-side:
///  * paper-comparable (`messages_sent` / `site_messages_sent` /
///    `bytes_sent`) — original protocol data messages only, matching the
///    cost model of sim::Metrics. Retransmissions and reliability-layer
///    control traffic (acks, heartbeats, rejoin handshake) are excluded so
///    the reproduced figures stay comparable to the paper's.
///  * transport totals (`transport_messages_sent` / `transport_bytes_sent`)
///    — every transmission that hit the wire, retransmissions and control
///    messages included. This is what a deployment's NIC would see.
class InMemoryBus final : public Transport {
 public:
  void Send(const RuntimeMessage& message) override;

  bool empty() const { return queue_.empty(); }
  /// Pops the oldest undelivered message.
  RuntimeMessage Pop();

  long messages_sent() const { return messages_sent_; }
  long site_messages_sent() const { return site_messages_sent_; }
  double bytes_sent() const { return bytes_sent_; }

  long transport_messages_sent() const { return transport_messages_sent_; }
  double transport_bytes_sent() const { return transport_bytes_sent_; }

 private:
  std::deque<RuntimeMessage> queue_;
  long messages_sent_ = 0;
  long site_messages_sent_ = 0;
  double bytes_sent_ = 0.0;
  long transport_messages_sent_ = 0;
  double transport_bytes_sent_ = 0.0;
};

}  // namespace sgm

#endif  // SGM_RUNTIME_TRANSPORT_H_
