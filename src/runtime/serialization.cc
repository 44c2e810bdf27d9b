#include "runtime/serialization.h"

#include <cstring>

#include "core/crc32c.h"
#include "obs/telemetry.h"

namespace sgm {

namespace {

template <typename T>
void Append(std::vector<std::uint8_t>* out, T value) {
  const std::size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

template <typename T>
bool Read(const std::vector<std::uint8_t>& in, std::size_t* offset, T* out) {
  if (*offset + sizeof(T) > in.size()) return false;
  std::memcpy(out, in.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

constexpr std::uint8_t kMaxTypeValue =
    static_cast<std::uint8_t>(RuntimeMessage::Type::kShutdown);

constexpr std::uint8_t kFlagRetransmit = 0x01;
constexpr std::uint8_t kKnownFlagsMask = kFlagRetransmit;

}  // namespace

std::vector<std::uint8_t> EncodeMessage(const RuntimeMessage& message) {
  // Codec latency lands in the process-wide default registry: the free
  // functions have no deployment context, and wire codec cost is a
  // per-process property anyway.
  static Histogram* encode_ns = MetricRegistry::Default().GetHistogram(
      "serialization.encode_ns", LatencyBucketsNs());
  ScopedTimer timer(encode_ns);
  std::vector<std::uint8_t> out;
  out.reserve(3 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 8 * message.payload.dim());
  Append<std::uint8_t>(&out, kWireFormatVersion);
  Append<std::uint8_t>(&out, static_cast<std::uint8_t>(message.type));
  Append<std::uint8_t>(&out, message.retransmit ? kFlagRetransmit : 0);
  Append<std::int32_t>(&out, message.from);
  Append<std::int32_t>(&out, message.to);
  Append<std::int64_t>(&out, message.epoch);
  Append<std::int64_t>(&out, message.seq);
  Append<std::int64_t>(&out, message.span);
  Append<std::int64_t>(&out, message.parent_span);
  Append<double>(&out, message.scalar);
  Append<std::uint32_t>(&out,
                        static_cast<std::uint32_t>(message.payload.dim()));
  for (std::size_t j = 0; j < message.payload.dim(); ++j) {
    Append<double>(&out, message.payload[j]);
  }
  Append<std::uint32_t>(&out, Crc32c(out.data(), out.size()));
  return out;
}

Result<RuntimeMessage> DecodeMessage(
    const std::vector<std::uint8_t>& buffer) {
  static Histogram* decode_ns = MetricRegistry::Default().GetHistogram(
      "serialization.decode_ns", LatencyBucketsNs());
  ScopedTimer timer(decode_ns);
  std::size_t offset = 0;
  std::uint8_t version = 0, type = 0, flags = 0;
  std::int32_t from = 0, to = 0;
  std::int64_t epoch = 0, seq = 0, span = 0, parent_span = 0;
  double scalar = 0.0;
  std::uint32_t dim = 0;

  if (!Read(buffer, &offset, &version)) {
    return Status::InvalidArgument("truncated message: missing version");
  }
  if (version != kWireFormatVersion) {
    // Version-1 frames led with the type byte (0..6), which lands here, as
    // do the retired checksum-less 0xA2/0xA3 layouts.
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version) + " (want " +
                                   std::to_string(kWireFormatVersion) + ")");
  }
  // The trailing CRC32C covers every preceding byte and is verified before
  // any field parsing, so a corrupted frame is rejected whole rather than
  // half-interpreted. (A flipped version byte escapes this check only by
  // landing on an unknown version, which the check above already rejected.)
  static Counter* corrupt_frames =
      MetricRegistry::Default().GetCounter("serialization.corrupt_frames");
  std::uint32_t stored_crc = 0;
  if (buffer.size() < offset + sizeof(stored_crc)) {
    corrupt_frames->Increment();
    return Status::InvalidArgument("truncated message: missing checksum");
  }
  const std::size_t frame_end = buffer.size() - sizeof(stored_crc);
  std::memcpy(&stored_crc, buffer.data() + frame_end, sizeof(stored_crc));
  if (Crc32c(buffer.data(), frame_end) != stored_crc) {
    corrupt_frames->Increment();
    return Status::InvalidArgument("frame checksum mismatch");
  }
  if (!Read(buffer, &offset, &type)) {
    return Status::InvalidArgument("truncated message: missing type");
  }
  if (type > kMaxTypeValue) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(type));
  }
  if (!Read(buffer, &offset, &flags)) {
    return Status::InvalidArgument("truncated message: missing flags");
  }
  if ((flags & ~kKnownFlagsMask) != 0) {
    return Status::InvalidArgument("unknown message flags " +
                                   std::to_string(flags));
  }
  if (!Read(buffer, &offset, &from) || !Read(buffer, &offset, &to) ||
      !Read(buffer, &offset, &epoch) || !Read(buffer, &offset, &seq) ||
      !Read(buffer, &offset, &span) || !Read(buffer, &offset, &parent_span) ||
      !Read(buffer, &offset, &scalar) || !Read(buffer, &offset, &dim)) {
    return Status::InvalidArgument("truncated message header");
  }
  if (dim > kMaxWireDimension) {
    return Status::OutOfRange("payload dimension " + std::to_string(dim) +
                              " exceeds the wire limit");
  }
  if (offset + static_cast<std::size_t>(dim) * sizeof(double) != frame_end) {
    return Status::InvalidArgument(
        "payload length mismatch: header says " + std::to_string(dim) +
        " doubles");
  }

  RuntimeMessage message;
  message.type = static_cast<RuntimeMessage::Type>(type);
  message.retransmit = (flags & kFlagRetransmit) != 0;
  message.from = from;
  message.to = to;
  message.epoch = epoch;
  message.seq = seq;
  message.span = span;
  message.parent_span = parent_span;
  message.scalar = scalar;
  Vector payload(dim);
  for (std::uint32_t j = 0; j < dim; ++j) {
    double value = 0.0;
    Read(buffer, &offset, &value);
    payload[j] = value;
  }
  message.payload = std::move(payload);
  return message;
}

}  // namespace sgm
