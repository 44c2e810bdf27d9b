#include "runtime/transport.h"

#include <utility>

#include "core/check.h"
#include "obs/telemetry.h"

namespace sgm {

const char* RuntimeMessage::TypeName(Type type) {
  switch (type) {
    case Type::kLocalViolation:
      return "LocalViolation";
    case Type::kProbeRequest:
      return "ProbeRequest";
    case Type::kDriftReport:
      return "DriftReport";
    case Type::kResolved:
      return "Resolved";
    case Type::kFullStateRequest:
      return "FullStateRequest";
    case Type::kStateReport:
      return "StateReport";
    case Type::kNewEstimate:
      return "NewEstimate";
    case Type::kAck:
      return "Ack";
    case Type::kHeartbeat:
      return "Heartbeat";
    case Type::kRejoinRequest:
      return "RejoinRequest";
    case Type::kRejoinGrant:
      return "RejoinGrant";
    case Type::kSiteHello:
      return "SiteHello";
    case Type::kCycleBegin:
      return "CycleBegin";
    case Type::kBarrier:
      return "Barrier";
    case Type::kBarrierAck:
      return "BarrierAck";
    case Type::kShutdown:
      return "Shutdown";
  }
  return "Unknown";
}

void SendTraced(Transport* transport, Telemetry* telemetry,
                const RuntimeMessage& message) {
  if (telemetry != nullptr && message.span != 0 &&
      !SpanUnsampled(message.span)) {
    telemetry->trace.Emit(
        TraceEventId::kMsgSend, message.from,
        {{"type", RuntimeMessage::TypeName(message.type)},
         {"span", message.span},
         {"parent", message.parent_span},
         {"bytes", static_cast<std::int64_t>(WireBytes(message))}});
  }
  transport->Send(message);
}

void InMemoryBus::Send(const RuntimeMessage& message) {
  queue_.push_back(message);
  const double bytes = WireBytes(message);
  ++transport_messages_sent_;
  transport_bytes_sent_ += bytes;
  if (message.counts_as_protocol_traffic()) {
    ++messages_sent_;
    if (message.from != kCoordinatorId) ++site_messages_sent_;
    bytes_sent_ += bytes;
  }
}

RuntimeMessage InMemoryBus::Pop() {
  SGM_CHECK(!queue_.empty());
  RuntimeMessage message = std::move(queue_.front());
  queue_.pop_front();
  return message;
}

}  // namespace sgm
