#ifndef SGM_RUNTIME_SOCKET_TRANSPORT_H_
#define SGM_RUNTIME_SOCKET_TRANSPORT_H_

#include <sys/uio.h>

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "runtime/serialization.h"
#include "runtime/socket_retry.h"
#include "runtime/transport.h"

namespace sgm {

/// Hard cap on one length-prefixed frame: the fixed v4 header (59 bytes,
/// rounded up) plus the largest payload the wire format itself accepts.
/// Anything above this in a length prefix is a corrupted or hostile stream,
/// not a big message — the reader poisons the connection instead of
/// allocating gigabytes.
inline constexpr std::uint32_t kMaxFrameBytes =
    64 + 8 * kMaxWireDimension;

/// Incremental splitter of a TCP byte stream into length-prefixed frames.
///
/// The socket runtime sends each EncodeMessage() frame preceded by a u32
/// little-endian byte count. TCP delivers an arbitrary re-segmentation of
/// that stream; Append() takes whatever recv() produced and NextFrame()
/// yields complete frames as they close, holding partial bytes across
/// calls. A length prefix above kMaxFrameBytes poisons the reader
/// permanently (resynchronizing an untrusted stream is hopeless — the
/// connection must be dropped).
class FrameReader {
 public:
  enum class Result {
    kFrame,      ///< *frame holds one complete encoded message
    kNeedMore,   ///< the buffered bytes end mid-prefix or mid-frame
    kOversized,  ///< poisoned: a prefix exceeded kMaxFrameBytes
  };

  void Append(const std::uint8_t* data, std::size_t size);
  Result NextFrame(std::vector<std::uint8_t>* frame);

  /// Discards all buffered bytes and clears the poison flag. Call when the
  /// underlying connection is replaced: the tail of the old byte stream
  /// (possibly a partial frame the peer died in the middle of) must never
  /// be spliced onto the first bytes of the new one.
  void Reset();

  bool poisoned() const { return poisoned_; }
  std::size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;  ///< consumed prefix of buffer_
  bool poisoned_ = false;
};

/// Per-connection framing/decoding counters.
struct FrameStats {
  long frames = 0;     ///< complete frames that decoded cleanly
  long corrupt = 0;    ///< frames rejected by DecodeMessage (CRC, bounds)
  long oversized = 0;  ///< oversized-prefix events (0 or 1; poisons)
};

/// Pulls every complete frame out of `reader`, decodes it, and appends the
/// survivors to `out`. A frame DecodeMessage rejects (checksum mismatch,
/// bad type, truncation) is counted and skipped — the length prefix keeps
/// the stream in sync, so one corrupt frame never takes the connection
/// down. Returns false when the reader is poisoned by an oversized prefix,
/// after which the caller must drop the connection.
bool DrainDecodedFrames(FrameReader* reader, std::vector<RuntimeMessage>* out,
                        FrameStats* stats);

// ── POSIX loopback helpers ─────────────────────────────────────────────────

/// Creates a listening TCP socket bound to 127.0.0.1:`port` (0 picks an
/// ephemeral port). Returns the fd, or -1 on failure; *bound_port receives
/// the actual port.
int ListenTcpLoopback(int port, int* bound_port);

/// Connects to 127.0.0.1:`port` under a bounded-retry policy: up to
/// `retry.max_attempts` attempts separated by seeded-jitter exponential
/// backoff (see SocketRetryConfig). The same policy serves the first
/// connect and every reconnect, replacing one-shot fixed timeouts that
/// failed spuriously in CI under load. `jitter_state` carries the jitter
/// stream across calls (seed it from retry.jitter_seed salted per caller).
/// Returns the connected fd with TCP_NODELAY set, or -1 after the budget
/// is exhausted.
int ConnectTcpLoopbackWithRetry(int port, const SocketRetryConfig& retry,
                                std::uint64_t* jitter_state);

/// Transport implementation over connected TCP sockets, with one write
/// path. Send() only queues: it encodes the message (wire format v4),
/// prepends the u32 length prefix and appends the frame to its peer's FIFO
/// backlog. Flush() writes: one sendmsg() per backlogged peer over an iovec
/// of its queued frames, with MSG_DONTWAIT. The owner's poll loop calls it
/// once per step, before it blocks, so what one step sends a peer leaves in
/// one write. What the kernel does not take (EAGAIN, or a write cut
/// mid-frame) waits in the backlog; Flush() skips that peer until the
/// owner's poll loop finds its fd writable and calls FlushBacklog(), which
/// resumes at the exact byte. Nothing blocks: a stalled peer backs up only
/// its own backlog, and a backlog that reaches kMaxBacklogFrames drops the
/// peer exactly as a write error does. TCP cannot lose bytes on a healthy
/// connection, so either means the peer is gone or wedged. Dropping a peer
/// shuts its stream down, so the session layer reads EOF and ends the
/// session (the site redials and rejoins): once a frame is lost, the stream
/// must not go on as if it were whole.
///
/// Per-peer FIFO order holds across the backlog and every write, so a
/// site's barrier ack still follows every frame it sent before it — the
/// flush guarantee of the coordinator's quiescence barrier (DESIGN.md
/// §11.3).
///
/// Topology is a peer map filled by the session layer: the coordinator
/// registers every site's accepted connection under its hello'd site id;
/// a site registers its single connection under kCoordinatorId. Broadcast
/// appends the same frame to every registered site's backlog but is
/// accounted once, matching the paper's broadcast cost model and
/// InMemoryBus.
///
/// Thread-safe: one internal mutex guards the peer map, the backlogs and
/// the counters, so an ops thread may read the counters while the owner's
/// loop sends.
///
/// Accounting families mirror InMemoryBus:
///  * paper-comparable (messages_sent / site_messages_sent / bytes_sent):
///    original protocol data only, WireBytes() cost model, broadcast = 1,
///    counted at Send() (the logical send).
///  * transport totals (transport_messages_sent / transport_bytes_sent):
///    frames fully written per fd, actual encoded bytes + 4-byte prefix,
///    counted when the last byte reaches the kernel.
///  * reply_drawing_frames_sent: logical sends that can make the
///    *receiver* talk back, which is every frame but those
///    RuntimeMessage::DrawsNoReply names (session control, acks, kResolved
///    and kNewEstimate). The coordinator's barrier loop owes a round only
///    when this counter moves (DESIGN.md §11.3).
///  * session_frames_sent: session-control frames fully written per fd,
///    counted like the transport totals.
class SocketTransport final : public Transport {
 public:
  /// Frames one peer's backlog holds; a Send() beyond it drops the peer.
  static constexpr std::size_t kMaxBacklogFrames = 1024;

  /// Maps `peer` (site id, or kCoordinatorId) to a connected fd with an
  /// empty backlog. The fd is not owned — the session layer closes it.
  void RegisterPeer(int peer, int fd);
  void UnregisterPeer(int peer);
  bool HasPeer(int peer) const;

  /// Queues `message` behind its peer's backlog; never writes (Flush()
  /// does). A broadcast queues one copy per registered site.
  void Send(const RuntimeMessage& message) override;

  /// True while `peer` has frames queued or waiting for its fd to become
  /// writable: the owner polls such a peer for POLLOUT.
  bool HasBacklog(int peer) const;
  /// The loop step's write: one sendmsg() per backlogged peer, over its
  /// queued frames (at most IOV_MAX per call), skipping peers that wait for
  /// POLLOUT. Call before every poll(). A write error drops the peer (and
  /// shuts its stream down).
  void Flush();
  /// The POLLOUT path: writes `peer`'s backlog as Flush() does, resuming a
  /// frame the kernel cut at its exact byte. Call when the owner's poll
  /// loop finds the peer's fd writable.
  void FlushBacklog(int peer);
  /// Polls every backlogged peer for writability and flushes, until every
  /// backlog is empty (returns true) or `timeout_ms` has passed (false).
  /// The bounded drain of a shutdown: a stalled peer cannot hold it
  /// hostage.
  bool FlushBacklogs(long timeout_ms);

  long messages_sent() const;
  long site_messages_sent() const;
  double bytes_sent() const;
  long transport_messages_sent() const;
  double transport_bytes_sent() const;
  long reply_drawing_frames_sent() const;
  long session_frames_sent() const;
  long send_failures() const;
  /// Writes that stopped mid-frame on a full kernel buffer; the rest of
  /// the frame waited in the backlog.
  long short_writes() const;
  /// sendmsg() calls made, whatever they wrote: one per backlogged peer
  /// per flush.
  long write_calls() const;
  /// Frames waiting across all backlogs.
  long send_queue_depth() const;
  /// Peers dropped because their backlog overflowed.
  long send_queue_drops() const;

 private:
  /// One length-prefixed encoded frame, and whether it is session control
  /// (for session_frames_sent, counted when its last byte is written).
  struct Frame {
    std::vector<std::uint8_t> bytes;
    bool session = false;
  };
  /// One peer's connection and outbound backlog. `head_offset` is the
  /// already-written prefix of the head frame; `blocked` marks a peer whose
  /// last write the kernel cut short, which waits for POLLOUT.
  struct Peer {
    int fd = -1;
    std::deque<Frame> backlog;
    std::size_t head_offset = 0;
    bool blocked = false;
  };

  /// Appends `frame` to `peer`'s backlog; overflow drops the peer. Caller
  /// holds mu_.
  void EnqueueLocked(std::map<int, Peer>::iterator peer, const Frame& frame);
  /// Writes the backlog, head first, in one sendmsg() per IOV_MAX frames
  /// until it empties or the kernel takes less than it was offered (the
  /// peer then waits for POLLOUT); a write error drops the peer. Caller
  /// holds mu_.
  void FlushLocked(std::map<int, Peer>::iterator peer);
  /// Gives up on `peer`: counts a send failure, shuts its fd down in both
  /// directions and forgets the peer with its backlog. Caller holds mu_.
  void DropLocked(std::map<int, Peer>::iterator peer);

  mutable std::mutex mu_;
  std::map<int, Peer> peers_;
  long messages_sent_ = 0;
  long site_messages_sent_ = 0;
  double bytes_sent_ = 0.0;
  long transport_messages_sent_ = 0;
  double transport_bytes_sent_ = 0.0;
  long reply_drawing_frames_sent_ = 0;
  long session_frames_sent_ = 0;
  long send_failures_ = 0;
  long short_writes_ = 0;
  long write_calls_ = 0;
  long send_queue_drops_ = 0;
  /// FlushLocked's iovec array, reused across calls.
  std::vector<iovec> iov_;
};

}  // namespace sgm

#endif  // SGM_RUNTIME_SOCKET_TRANSPORT_H_
