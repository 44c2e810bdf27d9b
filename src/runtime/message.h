#ifndef SGM_RUNTIME_MESSAGE_H_
#define SGM_RUNTIME_MESSAGE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "core/vector.h"

namespace sgm {

/// Sender/receiver id of the coordinator (sites are numbered 0..N-1).
inline constexpr int kCoordinatorId = -1;
/// Receiver id meaning "broadcast to every site".
inline constexpr int kBroadcastId = -2;

/// Wire-level message kinds of the SGM runtime protocol.
///
/// The protocol per update cycle (Section 2.2's algorithmic sketch, made
/// explicit):
///   site → coordinator   kLocalViolation    (a sampled ball crossed)
///   coord → broadcast    kProbeRequest      (partial sync: first-trial
///                                            members, report your drift;
///                                            `scalar` names the last
///                                            estimate's epoch)
///   site → coordinator   kDriftReport       (Δv_i and its g_i)
///   coord → broadcast    kResolved          (FP dismissed; optional
///                                            certified-mute length rides in
///                                            `scalar`)
///   coord → broadcast    kFullStateRequest  (full sync: everyone reports)
///   site → coordinator   kStateReport       (v_i)
///   coord → broadcast    kNewEstimate       (the fresh e(t); re-anchor)
///
/// Reliability-layer kinds (epoch fencing, failure detection, rejoin):
///   either direction     kAck               (transport-level cumulative ack
///                                            of `seq`; never itself acked)
///   site → coordinator   kHeartbeat         (liveness beacon from an
///                                            otherwise-quiet site, every
///                                            ⌈√N⌉ cycles; carries the
///                                            site's current epoch, and in
///                                            `scalar` the epoch of the
///                                            anchor it holds)
///   site → coordinator   kRejoinRequest     (site detected an epoch gap —
///                                            it missed at least one whole
///                                            sync round — and asks to be
///                                            resynchronized)
///   coord → site         kRejoinGrant       (estimate + ε_T + epoch in one
///                                            unicast; the site re-anchors
///                                            and re-enters the sample pool)
///
/// Session control plane (socket runtime only; handled by the coordinator
/// server / site client *around* the protocol nodes, never delivered to
/// them — see src/runtime/coordinator_server.h):
///   site → coordinator   kSiteHello         (session registration: `from`
///                                            carries the site id claiming
///                                            this connection)
///   coord → broadcast    kCycleBegin        (lockstep: observe the next
///                                            local vector; `scalar` is the
///                                            cycle number)
///   coord → broadcast    kBarrier           (flush barrier: `scalar` is
///                                            the barrier token)
///   site → coordinator   kBarrierAck        (barrier echo; FIFO streams
///                                            order it after every message
///                                            the site sent before it)
///   coord → broadcast    kShutdown          (session end; sites close)
struct RuntimeMessage {
  enum class Type {
    kLocalViolation,
    kProbeRequest,
    kDriftReport,
    kResolved,
    kFullStateRequest,
    kStateReport,
    kNewEstimate,
    kAck,
    kHeartbeat,
    kRejoinRequest,
    kRejoinGrant,
    kSiteHello,
    kCycleBegin,
    kBarrier,
    kBarrierAck,
    kShutdown,
  };

  Type type;
  int from = kCoordinatorId;
  int to = kCoordinatorId;
  /// Sync-round epoch (monotone, stamped by the coordinator; sites echo the
  /// epoch of the request they answer). 0 = pre-initialization.
  std::int64_t epoch = 0;
  /// Per-sender transport sequence number, assigned by ReliableTransport
  /// (0 = unsequenced, as every socket frame is). On kAck, the acknowledged
  /// sender seq.
  std::int64_t seq = 0;
  /// True when this transmission is a reliability-layer retransmission of an
  /// already-counted message: excluded from the paper-comparable
  /// communication figures, included in transport totals.
  bool retransmit = false;
  /// Causal span this message belongs to (0 = none). Spans are minted by
  /// the coordinator from a logical counter — one root span per sync
  /// cascade plus one child span per phase (probe, collection, resolution,
  /// estimate broadcast) — and sites echo the span of the request they
  /// answer, so a trace reconstructs the local-violation → probe →
  /// partial/full-sync causality of each cycle (wire format v3).
  std::int64_t span = 0;
  /// Parent of `span` in the cycle's span tree (0 = root or none).
  std::int64_t parent_span = 0;
  /// Vector payload (drift, state, estimate); empty when not applicable.
  Vector payload;
  /// Scalar payload: inclusion probability g_i on kDriftReport, mute length
  /// on kResolved, ε_T on kNewEstimate/kRejoinGrant, the held anchor's
  /// epoch on kHeartbeat, the epoch of the coordinator's last estimate
  /// broadcast on kProbeRequest.
  double scalar = 0.0;

  /// Payload size in doubles for communication accounting.
  std::size_t PayloadDoubles() const {
    switch (type) {
      case Type::kDriftReport:
        return payload.dim() + 1;  // drift + g_i
      case Type::kStateReport:
      case Type::kNewEstimate:
      case Type::kRejoinGrant:
        return payload.dim();
      case Type::kResolved:
        return 1;
      case Type::kLocalViolation:
      case Type::kProbeRequest:
      case Type::kFullStateRequest:
      case Type::kAck:
      case Type::kHeartbeat:
      case Type::kRejoinRequest:
      case Type::kSiteHello:
      case Type::kCycleBegin:
      case Type::kBarrier:
      case Type::kBarrierAck:
      case Type::kShutdown:
        return 0;
    }
    return 0;
  }

  /// Reliability-layer control traffic: acks, heartbeats and the rejoin
  /// handshake. Counted in transport totals but excluded from the
  /// paper-comparable communication-cost figures (the paper's protocol has
  /// no such messages; adding them must not skew the reproduced numbers).
  static bool IsReliabilityControl(Type type) {
    switch (type) {
      case Type::kAck:
      case Type::kHeartbeat:
      case Type::kRejoinRequest:
      case Type::kRejoinGrant:
        return true;
      default:
        return false;
    }
  }
  bool is_reliability_control() const { return IsReliabilityControl(type); }

  /// Socket-runtime session control plane: registration, lockstep cycle
  /// announcements, flush barriers and shutdown. Handled by the coordinator
  /// server / site client around the protocol nodes (never dispatched into
  /// them), carried fire-and-forget over the stream transport (TCP already
  /// guarantees delivery and order), and excluded from the paper-comparable
  /// figures like all other non-protocol traffic.
  static bool IsSessionControl(Type type) {
    switch (type) {
      case Type::kSiteHello:
      case Type::kCycleBegin:
      case Type::kBarrier:
      case Type::kBarrierAck:
      case Type::kShutdown:
        return true;
      default:
        return false;
    }
  }
  bool is_session_control() const { return IsSessionControl(type); }

  /// Frames that owe the socket tier's quiescence barrier no round
  /// (DESIGN.md §11.3): session control (a kCycleBegin always leaves with a
  /// barrier, and a barrier's ack is what its round waits for), transport
  /// acks, and the two broadcasts that end a sync cascade, kResolved and
  /// kNewEstimate, which a site on a gap-free session applies without a
  /// word. Any other frame can draw a reply.
  static bool DrawsNoReply(Type type) {
    return type == Type::kResolved || type == Type::kNewEstimate ||
           type == Type::kAck || IsSessionControl(type);
  }

  /// True when this transmission counts toward the paper-comparable
  /// communication figures (original protocol data, first transmission).
  bool counts_as_protocol_traffic() const {
    return !retransmit && !is_reliability_control() && !is_session_control();
  }

  static const char* TypeName(Type type);
};

/// Reads a wire scalar that carries a count — the kResolved mute length,
/// the kBarrier/kBarrierAck token, the kCycleBegin cycle number, the
/// kHeartbeat and kProbeRequest anchor epochs — as a
/// nonnegative integer, truncated toward zero. A frame can pass its CRC and
/// still carry NaN, a negative value or one beyond `long`, whose direct
/// conversion is undefined behaviour; such a scalar reads as no valid count.
inline std::optional<long> WireCount(double scalar) {
  // A 64-bit LONG_MAX rounds up to 2^63 as a double, so every value below
  // the bound fits.
  constexpr double kBound =
      static_cast<double>(std::numeric_limits<long>::max());
  if (!(scalar >= 0.0 && scalar < kBound)) return std::nullopt;
  return static_cast<long>(scalar);
}

}  // namespace sgm

#endif  // SGM_RUNTIME_MESSAGE_H_
