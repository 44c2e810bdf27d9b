#include "runtime/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <thread>

namespace sgm {

void FrameReader::Append(const std::uint8_t* data, std::size_t size) {
  if (poisoned_) return;
  // Compact lazily: once the consumed prefix dominates the buffer, slide
  // the live suffix down instead of growing without bound.
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

void FrameReader::Reset() {
  buffer_.clear();
  pos_ = 0;
  poisoned_ = false;
}

FrameReader::Result FrameReader::NextFrame(std::vector<std::uint8_t>* frame) {
  if (poisoned_) return Result::kOversized;
  const std::size_t available = buffer_.size() - pos_;
  if (available < sizeof(std::uint32_t)) return Result::kNeedMore;
  std::uint32_t length = 0;
  std::memcpy(&length, buffer_.data() + pos_, sizeof(length));
  if (length > kMaxFrameBytes) {
    poisoned_ = true;
    return Result::kOversized;
  }
  if (available < sizeof(length) + length) return Result::kNeedMore;
  const std::uint8_t* begin = buffer_.data() + pos_ + sizeof(length);
  frame->assign(begin, begin + length);
  pos_ += sizeof(length) + length;
  return Result::kFrame;
}

bool DrainDecodedFrames(FrameReader* reader, std::vector<RuntimeMessage>* out,
                        FrameStats* stats) {
  std::vector<std::uint8_t> frame;
  for (;;) {
    switch (reader->NextFrame(&frame)) {
      case FrameReader::Result::kNeedMore:
        return true;
      case FrameReader::Result::kOversized:
        ++stats->oversized;
        return false;
      case FrameReader::Result::kFrame: {
        Result<RuntimeMessage> decoded = DecodeMessage(frame);
        if (decoded.ok()) {
          ++stats->frames;
          out->push_back(std::move(decoded).ValueOrDie());
        } else {
          ++stats->corrupt;
        }
        break;
      }
    }
  }
}

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// One non-blocking-in-spirit connection attempt (connect() on loopback
/// either succeeds or fails immediately). Returns the fd or -1.
int TryConnectOnce(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    SetNoDelay(fd);
    return fd;
  }
  ::close(fd);
  return -1;
}

}  // namespace

int ListenTcpLoopback(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
      ::close(fd);
      return -1;
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

int ConnectTcpLoopbackWithRetry(int port, const SocketRetryConfig& retry,
                                std::uint64_t* jitter_state) {
  for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    const int fd = TryConnectOnce(port);
    if (fd >= 0) return fd;
    if (attempt == retry.max_attempts) break;
    const long delay = SocketRetryDelayMs(retry, attempt, jitter_state);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
  return -1;
}

void SocketTransport::RegisterPeer(int peer, int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  // A re-registered peer (reconnect) must not inherit the dead session's
  // backlog: those bytes belong to a stream the receiver has abandoned.
  peers_[peer] = Peer{fd, {}, 0, false};
}

void SocketTransport::UnregisterPeer(int peer) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_.erase(peer);
}

bool SocketTransport::HasPeer(int peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  return peers_.count(peer) > 0;
}

bool SocketTransport::HasBacklog(int peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = peers_.find(peer);
  return it != peers_.end() && !it->second.backlog.empty();
}

void SocketTransport::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = peers_.begin(); it != peers_.end();) {
    // FlushLocked may drop the peer; advance first.
    const auto current = it++;
    const Peer& state = current->second;
    if (!state.backlog.empty() && !state.blocked) FlushLocked(current);
  }
}

void SocketTransport::FlushBacklog(int peer) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = peers_.find(peer);
  if (it != peers_.end()) FlushLocked(it);
}

bool SocketTransport::FlushBacklogs(long timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::vector<pollfd> fds;
  std::vector<int> peers;
  for (;;) {
    fds.clear();
    peers.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [peer, state] : peers_) {
        if (state.backlog.empty()) continue;
        fds.push_back(pollfd{state.fd, POLLOUT, 0});
        peers.push_back(peer);
      }
    }
    if (fds.empty()) return true;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    if (::poll(fds.data(), fds.size(), static_cast<int>(left.count())) < 0 &&
        errno != EINTR) {
      return false;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents != 0) FlushBacklog(peers[i]);
    }
  }
}

void SocketTransport::EnqueueLocked(std::map<int, Peer>::iterator peer,
                                    const Frame& frame) {
  std::deque<Frame>& backlog = peer->second.backlog;
  if (backlog.size() >= kMaxBacklogFrames) {
    // The peer has not taken a full backlog's worth of frames: it is
    // stalled. Dropping it (not blocking) keeps every other peer served.
    ++send_queue_drops_;
    DropLocked(peer);
    return;
  }
  backlog.push_back(frame);
}

void SocketTransport::DropLocked(std::map<int, Peer>::iterator peer) {
  // Shut the stream down in both directions, so the session layer's next
  // read sees EOF and ends the session; a stream the transport gave up on
  // must not stay open with frames missing from it. The fd stays open for
  // its owner to close.
  ++send_failures_;
  ::shutdown(peer->second.fd, SHUT_RDWR);
  peers_.erase(peer);
}

void SocketTransport::FlushLocked(std::map<int, Peer>::iterator peer) {
  Peer& state = peer->second;
  state.blocked = false;
  while (!state.backlog.empty()) {
    // One iovec per queued frame, the head from its unwritten offset.
    const std::size_t count =
        std::min<std::size_t>(state.backlog.size(), IOV_MAX);
    iov_.resize(count);
    std::size_t offered = 0;
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<std::uint8_t>& frame = state.backlog[i].bytes;
      const std::size_t skip = i == 0 ? state.head_offset : 0;
      iov_[i] = iovec{frame.data() + skip, frame.size() - skip};
      offered += frame.size() - skip;
    }
    msghdr header{};
    header.msg_iov = iov_.data();
    header.msg_iovlen = count;
    ++write_calls_;
    const ssize_t n =
        ::sendmsg(state.fd, &header, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {  // kernel full
        state.blocked = true;
        return;
      }
      // A write error on loopback TCP means the peer is gone, not that
      // bytes were lost in transit.
      DropLocked(peer);
      return;
    }
    // Retire every frame the kernel took whole; a frame it cut keeps the
    // written prefix as its offset.
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      const Frame& head = state.backlog.front();
      const std::size_t rest = head.bytes.size() - state.head_offset;
      if (left < rest) {
        state.head_offset += left;
        ++short_writes_;
        break;
      }
      left -= rest;
      ++transport_messages_sent_;
      transport_bytes_sent_ += static_cast<double>(head.bytes.size());
      if (head.session) ++session_frames_sent_;
      state.backlog.pop_front();
      state.head_offset = 0;
    }
    if (static_cast<std::size_t>(n) < offered) {
      // The kernel buffer filled: resume once the fd polls writable.
      state.blocked = true;
      return;
    }
  }
}

void SocketTransport::Send(const RuntimeMessage& message) {
  std::vector<std::uint8_t> encoded = EncodeMessage(message);
  Frame frame;
  frame.session = message.is_session_control();
  frame.bytes.reserve(sizeof(std::uint32_t) + encoded.size());
  const std::uint32_t length = static_cast<std::uint32_t>(encoded.size());
  frame.bytes.resize(sizeof(length));
  std::memcpy(frame.bytes.data(), &length, sizeof(length));
  frame.bytes.insert(frame.bytes.end(), encoded.begin(), encoded.end());

  std::lock_guard<std::mutex> lock(mu_);
  if (message.counts_as_protocol_traffic()) {
    ++messages_sent_;
    if (message.from != kCoordinatorId) ++site_messages_sent_;
    bytes_sent_ += WireBytes(message);
  }
  if (!RuntimeMessage::DrawsNoReply(message.type)) {
    // Anything the receiver might answer (requests, reports, grants): the
    // barrier loop owes such a frame a round.
    ++reply_drawing_frames_sent_;
  }
  if (message.to == kBroadcastId) {
    for (auto it = peers_.begin(); it != peers_.end();) {
      // EnqueueLocked may erase the peer on failure; advance first.
      const auto current = it++;
      if (current->first == kCoordinatorId) continue;  // sites only
      EnqueueLocked(current, frame);
    }
    return;
  }
  const auto it = peers_.find(message.to);
  if (it == peers_.end()) {
    ++send_failures_;
    return;
  }
  EnqueueLocked(it, frame);
}

long SocketTransport::messages_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_sent_;
}

long SocketTransport::site_messages_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_messages_sent_;
}

double SocketTransport::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_sent_;
}

long SocketTransport::transport_messages_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transport_messages_sent_;
}

double SocketTransport::transport_bytes_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transport_bytes_sent_;
}

long SocketTransport::reply_drawing_frames_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reply_drawing_frames_sent_;
}

long SocketTransport::session_frames_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_frames_sent_;
}

long SocketTransport::send_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return send_failures_;
}

long SocketTransport::short_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return short_writes_;
}

long SocketTransport::write_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_calls_;
}

long SocketTransport::send_queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  long depth = 0;
  for (const auto& [peer, state] : peers_) {
    depth += static_cast<long>(state.backlog.size());
  }
  return depth;
}

long SocketTransport::send_queue_drops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return send_queue_drops_;
}

}  // namespace sgm
