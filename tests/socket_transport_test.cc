// Tests of the socket runtime's byte layer (src/runtime/socket_transport):
// length-prefixed framing over arbitrary TCP re-segmentation, CRC rejection
// of garbage frames before any parse reaches the protocol, oversized-prefix
// poisoning, the one write path (Send() queues, one sendmsg per peer per
// flush, per-peer backlog, short writes, overflow, bounded flush), real
// loopback delivery, and peer loss / reconnect accounting.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <thread>
#include <vector>

#include "runtime/serialization.h"
#include "runtime/socket_transport.h"

namespace sgm {
namespace {

RuntimeMessage MakeReport(int from, double scalar, std::size_t dim) {
  RuntimeMessage message;
  message.type = RuntimeMessage::Type::kDriftReport;
  message.from = from;
  message.to = kCoordinatorId;
  message.epoch = 3;
  message.scalar = scalar;
  message.payload = Vector(dim, 0.25);
  return message;
}

RuntimeMessage MakeEstimate(int to, double scalar) {
  RuntimeMessage message;
  message.type = RuntimeMessage::Type::kNewEstimate;
  message.from = kCoordinatorId;
  message.to = to;
  message.epoch = 1;
  message.scalar = scalar;
  message.payload = Vector{1.0, 2.0};
  return message;
}

// Encodes `message` the way SocketTransport frames it: u32 LE length prefix
// followed by the wire-v4 frame.
std::vector<std::uint8_t> Framed(const RuntimeMessage& message) {
  const std::vector<std::uint8_t> frame = EncodeMessage(message);
  std::vector<std::uint8_t> out;
  const std::uint32_t n = static_cast<std::uint32_t>(frame.size());
  out.push_back(static_cast<std::uint8_t>(n & 0xFF));
  out.push_back(static_cast<std::uint8_t>((n >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((n >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((n >> 24) & 0xFF));
  out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

TEST(FrameReaderTest, ReassemblesByteAtATimeDelivery) {
  const RuntimeMessage sent = MakeReport(2, 1.5, 6);
  const std::vector<std::uint8_t> stream = Framed(sent);

  FrameReader reader;
  std::vector<std::uint8_t> frame;
  // Worst-case re-segmentation: one byte per recv(). The reader must report
  // kNeedMore at every prefix of the stream and yield exactly at the end.
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    reader.Append(&stream[i], 1);
    EXPECT_EQ(reader.NextFrame(&frame), FrameReader::Result::kNeedMore)
        << "frame closed early after byte " << i;
  }
  reader.Append(&stream[stream.size() - 1], 1);
  ASSERT_EQ(reader.NextFrame(&frame), FrameReader::Result::kFrame);

  const Result<RuntimeMessage> decoded = DecodeMessage(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().from, sent.from);
  EXPECT_EQ(decoded.ValueOrDie().scalar, sent.scalar);
  EXPECT_EQ(decoded.ValueOrDie().payload, sent.payload);
  EXPECT_EQ(reader.NextFrame(&frame), FrameReader::Result::kNeedMore);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(FrameReaderTest, SplitsCoalescedFrames) {
  // The opposite re-segmentation: three frames land in one recv().
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    const std::vector<std::uint8_t> framed = Framed(MakeReport(i, i + 0.5, 4));
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  FrameReader reader;
  reader.Append(stream.data(), stream.size());

  std::vector<RuntimeMessage> out;
  FrameStats stats;
  ASSERT_TRUE(DrainDecodedFrames(&reader, &out, &stats));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(stats.frames, 3);
  EXPECT_EQ(stats.corrupt, 0);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i].from, i);
}

TEST(FrameReaderTest, OversizedPrefixPoisonsPermanently) {
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::uint8_t prefix[4];
  std::memcpy(prefix, &huge, sizeof(huge));

  FrameReader reader;
  reader.Append(prefix, sizeof(prefix));
  std::vector<std::uint8_t> frame;
  EXPECT_EQ(reader.NextFrame(&frame), FrameReader::Result::kOversized);
  EXPECT_TRUE(reader.poisoned());

  // Even a subsequent well-formed frame must not resurrect the stream: a
  // hostile or corrupted length prefix means framing sync is gone for good.
  const std::vector<std::uint8_t> good = Framed(MakeReport(1, 1.0, 4));
  reader.Append(good.data(), good.size());
  EXPECT_EQ(reader.NextFrame(&frame), FrameReader::Result::kOversized);
  std::vector<RuntimeMessage> out;
  FrameStats stats;
  EXPECT_FALSE(DrainDecodedFrames(&reader, &out, &stats));
  EXPECT_EQ(stats.oversized, 1);
  EXPECT_TRUE(out.empty());
}

TEST(FrameReaderTest, CrcRejectsGarbageFrameAndStreamStaysInSync) {
  // The middle frame of three is mangled: one payload byte flipped, or
  // relabelled as a checksum-less v3 (0xA3) frame with its CRC trailer
  // stripped. Either way the decoder must reject it before any field
  // reaches the protocol, and the length prefix must carry the reader
  // straight to the third (clean) frame.
  const RuntimeMessage a = MakeReport(0, 1.0, 8);
  const RuntimeMessage b = MakeReport(1, 2.0, 8);
  const RuntimeMessage c = MakeReport(2, 3.0, 8);
  std::vector<std::uint8_t> flipped = Framed(b);
  flipped[flipped.size() / 2] ^= 0x40;
  std::vector<std::uint8_t> unchecked = Framed(b);
  unchecked.erase(unchecked.end() - 4, unchecked.end());
  const std::uint32_t length = static_cast<std::uint32_t>(unchecked.size() - 4);
  std::memcpy(unchecked.data(), &length, sizeof(length));
  unchecked[4] = 0xA3;

  for (const std::vector<std::uint8_t>& framed_b : {flipped, unchecked}) {
    SCOPED_TRACE(framed_b[4] == 0xA3 ? "v3 relabel" : "bit flip");
    std::vector<std::uint8_t> stream = Framed(a);
    stream.insert(stream.end(), framed_b.begin(), framed_b.end());
    const std::vector<std::uint8_t> framed_c = Framed(c);
    stream.insert(stream.end(), framed_c.begin(), framed_c.end());

    FrameReader reader;
    reader.Append(stream.data(), stream.size());
    std::vector<RuntimeMessage> out;
    FrameStats stats;
    ASSERT_TRUE(DrainDecodedFrames(&reader, &out, &stats));
    EXPECT_EQ(stats.corrupt, 1);
    EXPECT_EQ(stats.frames, 2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].from, 0);
    EXPECT_EQ(out[1].from, 2);
    EXPECT_FALSE(reader.poisoned());
  }
}

// Reads frames from `fd` until `want` messages decoded (or EOF/error).
std::vector<RuntimeMessage> ReadMessages(int fd, std::size_t want) {
  FrameReader reader;
  std::vector<RuntimeMessage> out;
  std::uint8_t buffer[65536];
  while (out.size() < want) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    reader.Append(buffer, static_cast<std::size_t>(n));
    FrameStats stats;
    if (!DrainDecodedFrames(&reader, &out, &stats)) break;
  }
  return out;
}

// One accepted loopback connection pair: `client` is the connecting side,
// `server` the accepted side.
struct LoopbackPair {
  int listen_fd = -1;
  int client = -1;
  int server = -1;

  // A positive `server_rcvbuf` sizes the accepted side's receive buffer.
  // It is set on the listening socket before connect(), so the accepted
  // socket inherits it and advertises a window that fits it; shrinking the
  // buffer of a live connection below its advertised window makes the
  // kernel drop segments, and the transfer crawl on retransmission timers.
  bool Open(int server_rcvbuf = 0) {
    int port = 0;
    listen_fd = ListenTcpLoopback(0, &port);
    if (listen_fd < 0) return false;
    if (server_rcvbuf > 0 &&
        ::setsockopt(listen_fd, SOL_SOCKET, SO_RCVBUF, &server_rcvbuf,
                     sizeof(server_rcvbuf)) != 0) {
      return false;
    }
    std::uint64_t jitter = 1;
    client = ConnectTcpLoopbackWithRetry(port, SocketRetryConfig{}, &jitter);
    if (client < 0) return false;
    server = ::accept(listen_fd, nullptr, nullptr);
    return server >= 0;
  }

  ~LoopbackPair() {
    if (client >= 0) ::close(client);
    if (server >= 0) ::close(server);
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

TEST(SocketTransportTest, DeliversOverRealLoopbackWithPaperAccounting) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open());

  SocketTransport transport;
  transport.RegisterPeer(kCoordinatorId, pair.client);
  const RuntimeMessage sent = MakeReport(1, 4.5, 16);
  transport.Send(sent);
  transport.Flush();

  const std::vector<RuntimeMessage> got = ReadMessages(pair.server, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, sent.type);
  EXPECT_EQ(got[0].scalar, sent.scalar);
  EXPECT_EQ(got[0].payload, sent.payload);

  EXPECT_EQ(transport.messages_sent(), 1);
  EXPECT_EQ(transport.site_messages_sent(), 1);
  EXPECT_EQ(transport.bytes_sent(), WireBytes(sent));
  EXPECT_EQ(transport.transport_messages_sent(), 1);
  // Actual bytes: encoded frame plus the 4-byte length prefix.
  EXPECT_EQ(transport.transport_bytes_sent(),
            static_cast<double>(EncodeMessage(sent).size() + 4));
  EXPECT_EQ(transport.reply_drawing_frames_sent(), 1);
  EXPECT_EQ(transport.send_failures(), 0);
}

TEST(SocketTransportTest, BroadcastWritesEveryPeerButCountsOnce) {
  LoopbackPair a;
  LoopbackPair b;
  ASSERT_TRUE(a.Open());
  ASSERT_TRUE(b.Open());

  SocketTransport transport;
  transport.RegisterPeer(0, a.client);
  transport.RegisterPeer(1, b.client);

  RuntimeMessage estimate;
  estimate.type = RuntimeMessage::Type::kNewEstimate;
  estimate.from = kCoordinatorId;
  estimate.to = kBroadcastId;
  estimate.payload = Vector{1.0, 2.0};
  transport.Send(estimate);
  transport.Flush();

  EXPECT_EQ(ReadMessages(a.server, 1).size(), 1u);
  EXPECT_EQ(ReadMessages(b.server, 1).size(), 1u);
  // Paper cost model: a broadcast is one message; the transport totals see
  // the two physical frames.
  EXPECT_EQ(transport.messages_sent(), 1);
  EXPECT_EQ(transport.site_messages_sent(), 0);
  EXPECT_EQ(transport.bytes_sent(), WireBytes(estimate));
  EXPECT_EQ(transport.transport_messages_sent(), 2);
}

TEST(SocketTransportTest, SessionControlAndAcksStayOutOfPaperCounters) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open());
  SocketTransport transport;
  transport.RegisterPeer(kCoordinatorId, pair.client);

  RuntimeMessage hello;
  hello.type = RuntimeMessage::Type::kSiteHello;
  hello.from = 3;
  hello.to = kCoordinatorId;
  transport.Send(hello);

  RuntimeMessage ack;
  ack.type = RuntimeMessage::Type::kAck;
  ack.from = 3;
  ack.to = kCoordinatorId;
  ack.seq = 7;
  transport.Send(ack);
  transport.Flush();

  EXPECT_EQ(ReadMessages(pair.server, 2).size(), 2u);
  EXPECT_EQ(transport.messages_sent(), 0);
  EXPECT_EQ(transport.transport_messages_sent(), 2);
  // Neither can induce protocol traffic from the receiver: the barrier
  // loop's quiescence check must not see them as data.
  EXPECT_EQ(transport.reply_drawing_frames_sent(), 0);
}

TEST(SocketTransportTest, CountsExactlyTheFramesThatCanDrawAReply) {
  // Every message type once, in enum order, with whether the barrier loop
  // owes it a round. Session control, acks and the two cascade-ending
  // broadcasts draw no reply.
  using Type = RuntimeMessage::Type;
  struct Row {
    Type type;
    bool draws_reply;
  };
  constexpr Row kTable[] = {
      {Type::kLocalViolation, true},   {Type::kProbeRequest, true},
      {Type::kDriftReport, true},      {Type::kResolved, false},
      {Type::kFullStateRequest, true}, {Type::kStateReport, true},
      {Type::kNewEstimate, false},     {Type::kAck, false},
      {Type::kHeartbeat, true},        {Type::kRejoinRequest, true},
      {Type::kRejoinGrant, true},      {Type::kSiteHello, false},
      {Type::kCycleBegin, false},      {Type::kBarrier, false},
      {Type::kBarrierAck, false},      {Type::kShutdown, false},
  };
  constexpr std::size_t kTypes = std::size(kTable);
  static_assert(kTypes == 16);
  static_assert(static_cast<std::size_t>(Type::kShutdown) + 1 == kTypes);

  LoopbackPair pair;
  ASSERT_TRUE(pair.Open());
  SocketTransport transport;
  transport.RegisterPeer(0, pair.client);
  long session = 0;
  for (std::size_t i = 0; i < kTypes; ++i) {
    const Row& row = kTable[i];
    ASSERT_EQ(static_cast<std::size_t>(row.type), i);
    EXPECT_EQ(RuntimeMessage::DrawsNoReply(row.type), !row.draws_reply)
        << RuntimeMessage::TypeName(row.type);
    RuntimeMessage message;
    message.type = row.type;
    message.to = 0;
    const long before = transport.reply_drawing_frames_sent();
    transport.Send(message);
    EXPECT_EQ(transport.reply_drawing_frames_sent() - before,
              row.draws_reply ? 1 : 0)
        << RuntimeMessage::TypeName(row.type);
    if (RuntimeMessage::IsSessionControl(row.type)) ++session;
  }
  // Session frames are counted as written, one per frame on the wire.
  EXPECT_EQ(transport.session_frames_sent(), 0);
  transport.Flush();
  EXPECT_EQ(ReadMessages(pair.server, kTypes).size(), kTypes);
  EXPECT_EQ(transport.transport_messages_sent(), static_cast<long>(kTypes));
  EXPECT_EQ(session, 5);
  EXPECT_EQ(transport.session_frames_sent(), session);
}

// The receive buffer a frozen peer is opened with (LoopbackPair::Open).
constexpr int kSmallBuffer = 4096;

// Shrinks the client's send buffer of `pair` (opened with a kSmallBuffer
// receive buffer) and fills it until a write would block, with nobody
// reading the server end: a frozen peer. Returns the junk bytes written,
// which the server end must consume before any frame.
std::size_t FillUntilFull(const LoopbackPair& pair) {
  int small = kSmallBuffer;
  EXPECT_EQ(::setsockopt(pair.client, SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  std::vector<std::uint8_t> junk(65536, 0xAB);
  std::size_t written = 0;
  // Full means a write still finds no room after in-flight acks settle.
  for (bool took = true; took;) {
    took = false;
    for (;;) {
      const ssize_t n = ::send(pair.client, junk.data(), junk.size(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n <= 0) break;
      written += static_cast<std::size_t>(n);
      took = true;
    }
    if (took) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return written;
}

// Reads and discards exactly `bytes` bytes from `fd`.
void Discard(int fd, std::size_t bytes) {
  std::vector<std::uint8_t> buffer(65536);
  while (bytes > 0) {
    const ssize_t n =
        ::recv(fd, buffer.data(), std::min(bytes, buffer.size()), 0);
    if (n <= 0) return;
    bytes -= static_cast<std::size_t>(n);
  }
}

// Reads and discards what `fd` delivers until EOF. True when EOF arrives
// within `timeout_ms`; false when the stream stays open that long.
bool DrainsToEof(int fd, long timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::vector<std::uint8_t> buffer(65536);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (n == 0) return true;
    if (n < 0) return false;
  }
}

TEST(SocketTransportTest, WriteAllSurvivesShortWrites) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open());
  // Two big frames back to back through a small send buffer: the second
  // queues behind the unwritten tail of the first, so the flush must
  // finish one frame at its offset and go on into the next. Every byte of
  // both must arrive, whole and in order.
  int small = 65536;
  ASSERT_EQ(::setsockopt(pair.client, SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);

  SocketTransport transport;
  transport.RegisterPeer(kCoordinatorId, pair.client);
  const RuntimeMessage first = MakeReport(0, 1.0, /*dim=*/100000);  // ~800 KiB
  const RuntimeMessage second = MakeReport(0, 2.0, /*dim=*/100000);

  std::vector<RuntimeMessage> got;
  std::thread reader([&] { got = ReadMessages(pair.server, 2); });
  transport.Send(first);
  transport.Send(second);
  EXPECT_TRUE(transport.FlushBacklogs(/*timeout_ms=*/10000));
  reader.join();

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].scalar, 1.0);
  EXPECT_EQ(got[0].payload, first.payload);
  EXPECT_EQ(got[1].scalar, 2.0);
  EXPECT_EQ(got[1].payload, second.payload);
  EXPECT_EQ(transport.transport_messages_sent(), 2);
  EXPECT_EQ(transport.send_failures(), 0);
}

TEST(SocketTransportTest, AsyncWriterCountsShortWritesOnBigFrames) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open());
  // The one write path is asynchronous without a thread of its own. A
  // small send buffer cannot take an ~800 KiB frame in one write: the
  // flush stops mid-frame, the rest waits in the backlog, and the flush
  // resumes at the offset each time the fd turns writable while a reader
  // drains the far end. Each pause is a counted short write.
  int small = 4096;
  ASSERT_EQ(::setsockopt(pair.client, SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);

  SocketTransport transport;
  transport.RegisterPeer(0, pair.client);
  RuntimeMessage big = MakeEstimate(0, 1.0);
  big.payload = Vector(100000, 0.5);  // ~800 KiB frame

  std::vector<RuntimeMessage> got;
  std::thread reader([&] { got = ReadMessages(pair.server, 1); });
  transport.Send(big);
  EXPECT_TRUE(transport.FlushBacklogs(/*timeout_ms=*/10000));
  reader.join();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, big.payload);
  EXPECT_GE(transport.short_writes(), 1);
  EXPECT_EQ(transport.transport_messages_sent(), 1);
  EXPECT_EQ(transport.send_failures(), 0);
  EXPECT_EQ(transport.send_queue_drops(), 0);
  EXPECT_EQ(transport.send_queue_depth(), 0);
}

TEST(SocketTransportTest, SendToFullPeerReturnsAtOnceAndDeliversInOrder) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open(kSmallBuffer));
  const std::size_t junk = FillUntilFull(pair);
  ASSERT_GT(junk, 0u);

  SocketTransport transport;
  transport.RegisterPeer(0, pair.client);
  // The kernel takes nothing more, and nobody reads the far end: a
  // blocking write would never return. Send() parks both frames in the
  // peer's backlog and returns.
  const auto start = std::chrono::steady_clock::now();
  transport.Send(MakeEstimate(0, 1.0));
  transport.Send(MakeEstimate(0, 2.0));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_TRUE(transport.HasBacklog(0));
  EXPECT_EQ(transport.send_queue_depth(), 2);
  EXPECT_EQ(transport.messages_sent(), 2);  // the logical sends happened
  EXPECT_EQ(transport.transport_messages_sent(), 0);  // the wire has none

  // Once the far end reads, the flush puts both frames on the wire, in
  // send order, behind the bytes that were already queued in the kernel.
  std::vector<RuntimeMessage> got;
  std::thread reader([&] {
    Discard(pair.server, junk);
    got = ReadMessages(pair.server, 2);
  });
  EXPECT_TRUE(transport.FlushBacklogs(/*timeout_ms=*/10000));
  reader.join();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].scalar, 1.0);
  EXPECT_EQ(got[1].scalar, 2.0);
  EXPECT_FALSE(transport.HasBacklog(0));
  EXPECT_EQ(transport.transport_messages_sent(), 2);
  EXPECT_EQ(transport.send_failures(), 0);
}

TEST(SocketTransportTest, PeerLossCountsFailureAndReconnectRecovers) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open());
  SocketTransport transport;
  transport.RegisterPeer(kCoordinatorId, pair.client);
  ASSERT_TRUE(transport.HasPeer(kCoordinatorId));

  // Kill the receiving end. The first write after the close may still
  // land in the kernel buffer (and draws the RST); a follow-up write must
  // fail with EPIPE, count a send failure, and drop the peer.
  ::close(pair.server);
  pair.server = -1;
  const RuntimeMessage report = MakeReport(0, 1.0, 4);
  for (int i = 0; i < 50 && transport.send_failures() == 0; ++i) {
    transport.Send(report);
    transport.Flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(transport.send_failures(), 1);
  EXPECT_FALSE(transport.HasPeer(kCoordinatorId));

  // With the peer gone every further unicast counts as a failure (the
  // frame never reached the wire) but stays a paper-family send: the
  // reliability layer above owns retries and the dead-link verdict.
  const long failures = transport.send_failures();
  const long paper = transport.messages_sent();
  transport.Send(report);
  EXPECT_EQ(transport.send_failures(), failures + 1);
  EXPECT_EQ(transport.messages_sent(), paper + 1);

  // Reconnect: a fresh connection re-registered under the same peer id
  // carries traffic again.
  ::close(pair.client);
  pair.client = -1;
  LoopbackPair fresh;
  ASSERT_TRUE(fresh.Open());
  transport.RegisterPeer(kCoordinatorId, fresh.client);
  transport.Send(report);
  transport.Flush();
  const std::vector<RuntimeMessage> got = ReadMessages(fresh.server, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].scalar, report.scalar);
}

TEST(FrameReaderTest, ResetDiscardsBufferedPartialFrame) {
  const RuntimeMessage first = MakeReport(1, 2.5, 8);
  const RuntimeMessage second = MakeReport(2, 7.5, 8);
  const std::vector<std::uint8_t> stream = Framed(first);

  FrameReader reader;
  // Half a frame arrives, then the connection dies. The surviving bytes
  // must not splice with anything a fresh session delivers.
  reader.Append(stream.data(), stream.size() / 2);
  std::vector<std::uint8_t> frame;
  ASSERT_EQ(reader.NextFrame(&frame), FrameReader::Result::kNeedMore);
  reader.Reset();

  const std::vector<std::uint8_t> fresh = Framed(second);
  reader.Append(fresh.data(), fresh.size());
  std::vector<RuntimeMessage> out;
  FrameStats stats;
  ASSERT_TRUE(DrainDecodedFrames(&reader, &out, &stats));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from, second.from);
  EXPECT_EQ(out[0].scalar, second.scalar);
  // A splice would have produced CRC garbage; a clean reset produces none.
  EXPECT_EQ(stats.corrupt, 0L);
  EXPECT_EQ(stats.frames, 1L);
}

TEST(FrameReaderTest, ResetClearsOversizedPrefixPoison) {
  FrameReader reader;
  const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  reader.Append(huge, sizeof(huge));
  std::vector<std::uint8_t> frame;
  ASSERT_EQ(reader.NextFrame(&frame), FrameReader::Result::kOversized);
  // Poison is permanent within a session — but Reset starts a new session
  // on a new connection, where the old garbage means nothing.
  reader.Reset();
  const RuntimeMessage sent = MakeReport(0, 1.0, 4);
  const std::vector<std::uint8_t> stream = Framed(sent);
  reader.Append(stream.data(), stream.size());
  ASSERT_EQ(reader.NextFrame(&frame), FrameReader::Result::kFrame);
}

TEST(SocketTransportTest, MidFrameDisconnectDoesNotSpliceAcrossReconnect) {
  // The peer dies halfway through a length-prefixed frame: the receiver
  // holds a dangling prefix plus partial body. After reconnect-with-Reset,
  // the next session's frames decode cleanly with zero CRC casualties.
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open());
  const RuntimeMessage doomed = MakeReport(1, 9.0, 64);
  const std::vector<std::uint8_t> stream = Framed(doomed);
  ASSERT_EQ(::send(pair.client, stream.data(), stream.size() / 2, 0),
            static_cast<ssize_t>(stream.size() / 2));
  ::close(pair.client);
  pair.client = -1;

  FrameReader reader;
  std::array<std::uint8_t, 4096> buffer;
  for (;;) {
    const ssize_t n =
        ::recv(pair.server, buffer.data(), buffer.size(), 0);
    if (n <= 0) break;  // EOF mid-frame
    reader.Append(buffer.data(), static_cast<std::size_t>(n));
  }
  std::vector<RuntimeMessage> out;
  FrameStats stats;
  ASSERT_TRUE(DrainDecodedFrames(&reader, &out, &stats));
  EXPECT_TRUE(out.empty()) << "half a frame must not decode";
  EXPECT_EQ(stats.corrupt, 0L);

  // Reconnect: fresh connection, same reader object, state discarded.
  reader.Reset();
  LoopbackPair fresh;
  ASSERT_TRUE(fresh.Open());
  SocketTransport transport;
  transport.RegisterPeer(kCoordinatorId, fresh.client);
  const RuntimeMessage survivor = MakeReport(2, 3.0, 16);
  transport.Send(survivor);
  transport.Flush();
  ::shutdown(fresh.client, SHUT_WR);
  for (;;) {
    const ssize_t n =
        ::recv(fresh.server, buffer.data(), buffer.size(), 0);
    if (n <= 0) break;
    reader.Append(buffer.data(), static_cast<std::size_t>(n));
  }
  out.clear();
  ASSERT_TRUE(DrainDecodedFrames(&reader, &out, &stats));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from, survivor.from);
  EXPECT_EQ(out[0].payload, survivor.payload);
  EXPECT_EQ(stats.corrupt, 0L);
}

TEST(SocketTransportTest, SenderDiesAfterPartialWriteReceiverStaysClean) {
  // The sending process is killed mid-write of a large frame (simulated by
  // closing after a truncated raw write). The receiver must treat the
  // truncated tail as silence — never as a decodable or corrupt frame.
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open());
  const RuntimeMessage big = MakeReport(3, 5.0, 4096);
  const std::vector<std::uint8_t> stream = Framed(big);
  // Write everything except the last byte, then die.
  ASSERT_EQ(::send(pair.client, stream.data(), stream.size() - 1, 0),
            static_cast<ssize_t>(stream.size() - 1));
  ::close(pair.client);
  pair.client = -1;

  FrameReader reader;
  std::array<std::uint8_t, 65536> buffer;
  for (;;) {
    const ssize_t n =
        ::recv(pair.server, buffer.data(), buffer.size(), 0);
    if (n <= 0) break;
    reader.Append(buffer.data(), static_cast<std::size_t>(n));
  }
  std::vector<RuntimeMessage> out;
  FrameStats stats;
  ASSERT_TRUE(DrainDecodedFrames(&reader, &out, &stats));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.frames, 0L);
  EXPECT_EQ(stats.corrupt, 0L);
}

TEST(SocketRetryTest, BackoffDoublesCapsAndJittersDeterministically) {
  SocketRetryConfig retry;
  retry.base_backoff_ms = 4;
  retry.max_backoff_ms = 64;
  retry.jitter_seed = 99;
  std::uint64_t state_a = retry.jitter_seed;
  std::uint64_t state_b = retry.jitter_seed;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const long a = SocketRetryDelayMs(retry, attempt, &state_a);
    const long b = SocketRetryDelayMs(retry, attempt, &state_b);
    EXPECT_EQ(a, b) << "same seed, same schedule";
    EXPECT_LE(a, 64L);
    EXPECT_GE(a, 1L);
  }
  // The exponential phase grows until the cap: attempt 6 spans (16, 32].
  std::uint64_t state = retry.jitter_seed;
  for (int attempt = 1; attempt < 4; ++attempt) {
    SocketRetryDelayMs(retry, attempt, &state);
  }
  const long mid = SocketRetryDelayMs(retry, 4, &state);
  EXPECT_GE(mid, 16L);
  EXPECT_LE(mid, 32L);
}

TEST(SocketRetryTest, ConnectRetriesUntilListenerAppearsAndGivesUp) {
  // Reserve a port, but only start listening after a delay: the first
  // dial attempts must fail and the retry loop must pick the listener up
  // once it exists.
  int port = 0;
  {
    const int probe = ListenTcpLoopback(0, &port);
    ASSERT_GE(probe, 0);
    ::close(probe);  // port now free (SO_REUSEADDR rebinds it below)
  }
  SocketRetryConfig retry;
  retry.max_attempts = 100;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 10;
  std::uint64_t state = 7;

  std::atomic<int> listen_fd{-1};
  std::thread late_listener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    int bound = 0;
    listen_fd.store(ListenTcpLoopback(port, &bound));
  });
  const int fd = ConnectTcpLoopbackWithRetry(port, retry, &state);
  late_listener.join();
  EXPECT_GE(fd, 0) << "retry loop never found the late listener";
  if (fd >= 0) ::close(fd);
  if (listen_fd.load() >= 0) ::close(listen_fd.load());

  // Give-up: nobody listens on the (re-freed) port, tiny budget.
  SocketRetryConfig hopeless;
  hopeless.max_attempts = 3;
  hopeless.base_backoff_ms = 1;
  hopeless.max_backoff_ms = 2;
  std::uint64_t hopeless_state = 3;
  EXPECT_LT(ConnectTcpLoopbackWithRetry(port, hopeless, &hopeless_state), 0);
}

TEST(SocketTransportTest, BacklogPreservesPerPeerFifoOrder) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open(kSmallBuffer));
  int small = kSmallBuffer;
  ASSERT_EQ(::setsockopt(pair.client, SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);

  SocketTransport transport;
  transport.RegisterPeer(0, pair.client);
  // ~8 KiB frames with nobody reading: they queue until the flush, whose
  // writes fill the kernel and leave the rest behind in order.
  constexpr int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    RuntimeMessage message = MakeEstimate(0, static_cast<double>(i));
    message.payload = Vector(1000, 0.5);
    transport.Send(message);
  }
  // Paper accounting is at Send() time: all 20 logical sends are visible
  // immediately, however much of them has reached the wire. An estimate
  // draws no reply, so none of them owes the barrier loop a round.
  EXPECT_EQ(transport.messages_sent(), kFrames);
  EXPECT_EQ(transport.reply_drawing_frames_sent(), 0);
  EXPECT_GT(transport.send_queue_depth(), 0);

  std::vector<RuntimeMessage> got;
  std::thread reader([&] { got = ReadMessages(pair.server, kFrames); });
  EXPECT_TRUE(transport.FlushBacklogs(/*timeout_ms=*/10000));
  reader.join();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i].scalar, static_cast<double>(i)) << "frame " << i;
  }
  EXPECT_EQ(transport.transport_messages_sent(), kFrames);
  EXPECT_EQ(transport.send_queue_drops(), 0);
  EXPECT_EQ(transport.send_failures(), 0);
}

TEST(SocketTransportTest, ShutdownFlushGivesUpAtItsCapThenDrains) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open(kSmallBuffer));
  const std::size_t junk = FillUntilFull(pair);

  SocketTransport transport;
  transport.RegisterPeer(0, pair.client);
  constexpr int kFrames = 10;
  for (int i = 0; i < kFrames; ++i) {
    transport.Send(MakeEstimate(0, static_cast<double>(i)));
  }
  ASSERT_EQ(transport.send_queue_depth(), kFrames);

  // A frozen peer cannot hold the flush past its cap.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(transport.FlushBacklogs(/*timeout_ms=*/50));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::milliseconds(40));
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_EQ(transport.send_queue_depth(), kFrames);
  EXPECT_TRUE(transport.HasPeer(0));  // slow is not dead

  // A peer that reads again gets every frame within the cap.
  std::vector<RuntimeMessage> got;
  std::thread reader([&] {
    Discard(pair.server, junk);
    got = ReadMessages(pair.server, kFrames);
  });
  EXPECT_TRUE(transport.FlushBacklogs(/*timeout_ms=*/10000));
  reader.join();
  EXPECT_EQ(transport.send_queue_depth(), 0);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kFrames));
  EXPECT_EQ(got.back().scalar, static_cast<double>(kFrames - 1));
}

TEST(SocketTransportTest, BacklogOverflowDropsStalledPeer) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open(kSmallBuffer));
  FillUntilFull(pair);

  SocketTransport transport;
  transport.RegisterPeer(0, pair.client);
  ASSERT_TRUE(transport.HasPeer(0));

  // The bound's worth of frames park in the backlog (the kernel takes
  // none); one more overflows, which must drop the peer rather than block
  // the sender or grow the backlog without bound.
  const auto bound = static_cast<long>(SocketTransport::kMaxBacklogFrames);
  for (long i = 0; i < bound; ++i) {
    transport.Send(MakeEstimate(0, static_cast<double>(i)));
  }
  EXPECT_EQ(transport.send_queue_depth(), bound);
  EXPECT_TRUE(transport.HasPeer(0));
  EXPECT_EQ(transport.send_queue_drops(), 0);
  transport.Send(MakeEstimate(0, -1.0));
  EXPECT_EQ(transport.send_queue_drops(), 1);
  EXPECT_EQ(transport.send_failures(), 1);
  EXPECT_FALSE(transport.HasPeer(0));
  EXPECT_EQ(transport.send_queue_depth(), 0);  // purged with the peer
  // The stream the transport gave up on is shut down, so the far end reads
  // EOF once it drains what the kernel held, and its session ends there,
  // instead of staying open with frames missing from it.
  EXPECT_TRUE(DrainsToEof(pair.server, 5000));
}

// ── The one write path: Send() queues, a flush writes ───────────────────

TEST(SocketTransportTest, SendQueuesAndOneFlushWritesTheBacklogInOneCall) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open());
  SocketTransport transport;
  transport.RegisterPeer(kCoordinatorId, pair.client);

  const std::vector<RuntimeMessage> sent = {
      MakeReport(1, 1.0, 4), MakeReport(1, 2.0, 8), MakeReport(1, 3.0, 2)};
  double framed_bytes = 0.0;
  for (const RuntimeMessage& message : sent) {
    transport.Send(message);
    framed_bytes += static_cast<double>(Framed(message).size());
  }
  // Nothing is on the wire before the flush.
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(pair.server, &byte, 1, MSG_DONTWAIT), -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
  EXPECT_EQ(transport.write_calls(), 0);
  EXPECT_EQ(transport.transport_messages_sent(), 0);
  EXPECT_EQ(transport.messages_sent(), 3);  // the logical sends happened
  EXPECT_EQ(transport.send_queue_depth(), 3);

  // One sendmsg takes all three frames, whole and in order, with the same
  // per-frame accounting a write per frame had.
  transport.Flush();
  EXPECT_EQ(transport.write_calls(), 1);
  const std::vector<RuntimeMessage> got = ReadMessages(pair.server, 3);
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].scalar, sent[i].scalar) << "frame " << i;
    EXPECT_EQ(got[i].payload, sent[i].payload) << "frame " << i;
  }
  EXPECT_EQ(transport.transport_messages_sent(), 3);
  EXPECT_EQ(transport.transport_bytes_sent(), framed_bytes);
  EXPECT_EQ(transport.short_writes(), 0);
  EXPECT_EQ(transport.send_queue_depth(), 0);
  EXPECT_FALSE(transport.HasBacklog(kCoordinatorId));

  // A flush with nothing queued makes no call.
  transport.Flush();
  EXPECT_EQ(transport.write_calls(), 1);
}

TEST(SocketTransportTest, FlushCutMidFrameResumesAtTheCutByteOnPollout) {
  LoopbackPair pair;
  ASSERT_TRUE(pair.Open());
  int small = 65536;
  ASSERT_EQ(::setsockopt(pair.client, SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  SocketTransport transport;
  transport.RegisterPeer(0, pair.client);
  // Three ~800 KiB frames, each far beyond what the small send buffer and
  // an unread receive window hold together.
  constexpr int kFrames = 3;
  for (int i = 0; i < kFrames; ++i) {
    RuntimeMessage message = MakeEstimate(0, static_cast<double>(i));
    message.payload = Vector(100000, 0.25 * i);
    transport.Send(message);
  }

  // Nobody reads: the flush's one call is cut inside the first frame, and
  // the peer then waits for POLLOUT — a further flush skips it.
  transport.Flush();
  EXPECT_EQ(transport.write_calls(), 1);
  EXPECT_EQ(transport.short_writes(), 1);
  EXPECT_EQ(transport.transport_messages_sent(), 0);
  EXPECT_EQ(transport.send_queue_depth(), kFrames);
  EXPECT_TRUE(transport.HasBacklog(0));
  transport.Flush();
  EXPECT_EQ(transport.write_calls(), 1);

  // Once the far end reads, each POLLOUT flush resumes at the byte the
  // last one stopped at: every frame decodes whole and in order.
  std::vector<RuntimeMessage> got;
  std::thread reader([&] { got = ReadMessages(pair.server, kFrames); });
  EXPECT_TRUE(transport.FlushBacklogs(/*timeout_ms=*/10000));
  reader.join();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i].scalar, static_cast<double>(i)) << "frame " << i;
    EXPECT_EQ(got[i].payload, Vector(100000, 0.25 * i)) << "frame " << i;
  }
  EXPECT_GE(transport.short_writes(), 1);
  EXPECT_GT(transport.write_calls(), 1);
  EXPECT_EQ(transport.transport_messages_sent(), kFrames);
  EXPECT_EQ(transport.send_failures(), 0);
}

TEST(SocketTransportTest, QueuedBroadcastCostsOneWritePerPeerAndOneMessage) {
  LoopbackPair pairs[3];
  SocketTransport transport;
  for (int site = 0; site < 3; ++site) {
    ASSERT_TRUE(pairs[site].Open());
    transport.RegisterPeer(site, pairs[site].client);
  }
  RuntimeMessage estimate = MakeEstimate(kBroadcastId, 1.5);
  transport.Send(estimate);
  transport.Flush();

  EXPECT_EQ(transport.write_calls(), 3);
  EXPECT_EQ(transport.messages_sent(), 1);
  EXPECT_EQ(transport.transport_messages_sent(), 3);
  for (LoopbackPair& pair : pairs) {
    const std::vector<RuntimeMessage> got = ReadMessages(pair.server, 1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].scalar, 1.5);
  }
}

}  // namespace
}  // namespace sgm
