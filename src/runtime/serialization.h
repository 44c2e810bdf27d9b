#ifndef SGM_RUNTIME_SERIALIZATION_H_
#define SGM_RUNTIME_SERIALIZATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "runtime/message.h"

namespace sgm {

/// Binary wire format for RuntimeMessages, for transports that cross
/// process/machine boundaries. Little-endian, fixed layout (version 4; the
/// socket runtime's session-control types — kSiteHello through kShutdown —
/// extend the valid type range within v4 without changing the layout):
///
///   u8   version (= kWireFormatVersion)
///   u8   type
///   u8   flags (bit 0: retransmit)
///   i32  from
///   i32  to
///   i64  epoch
///   i64  seq
///   i64  span
///   i64  parent_span
///   f64  scalar
///   u32  payload dimension d
///   f64  payload[0..d)
///   u32  crc32c over all preceding bytes
///
/// Decode accepts only this version: every frame it parses carries a
/// checksum. It validates the checksum first (any bit flip anywhere in a
/// frame — including the version byte, whose flips land on unknown
/// versions — is rejected before field parsing), then length, type range
/// and dimension bounds, and returns precise errors (a transport must never
/// crash the coordinator with a truncated or corrupted datagram).
/// Rejected-checksum frames increment the `serialization.corrupt_frames`
/// audit counter in the default metric registry.
///
/// Frames of any other version are rejected deterministically with an
/// "unsupported wire version" error: version-1 frames (no version byte —
/// they led with a protocol type in [0, 6], which can never equal a
/// 0xA0-tagged version byte) and the retired checksum-less layouts (0xA2,
/// 0xA3) alike, so no stale or unchecked frame is ever misread.
std::vector<std::uint8_t> EncodeMessage(const RuntimeMessage& message);

/// Parses a buffer produced by EncodeMessage (or a hostile imitation).
Result<RuntimeMessage> DecodeMessage(const std::vector<std::uint8_t>& buffer);

/// Current wire-format version byte: 0xA0 | 4 (format v4, with the frame
/// checksum). The 0xA0 tag keeps the byte outside every v1 leading type
/// value (0..6) so old-format frames fail the version check, never a
/// silent misparse.
inline constexpr std::uint8_t kWireFormatVersion = 0xA4;

/// Upper bound on accepted payload dimensionality (sanity guard against
/// corrupted length fields allocating gigabytes).
inline constexpr std::uint32_t kMaxWireDimension = 1u << 20;

}  // namespace sgm

#endif  // SGM_RUNTIME_SERIALIZATION_H_
