#include "runtime/site_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <thread>

#include "core/check.h"
#include "core/version.h"
#include "obs/telemetry.h"

namespace sgm {

const char* SiteExitReasonName(SiteExitReason reason) {
  switch (reason) {
    case SiteExitReason::kShutdown: return "shutdown";
    case SiteExitReason::kConnectGiveUp: return "connect-give-up";
    case SiteExitReason::kCoordinatorEof: return "coordinator-eof";
    case SiteExitReason::kRecvError: return "recv-error";
    case SiteExitReason::kStreamPoisoned: return "stream-poisoned";
    case SiteExitReason::kSendFailed: return "send-failed";
    case SiteExitReason::kPollError: return "poll-error";
  }
  return "unknown";
}

SiteClient::SiteClient(const MonitoredFunction& function,
                       const SiteClientConfig& config)
    : config_(config), clock_(config.round_micros) {
  SGM_CHECK(config.num_sites > 0);
  SGM_CHECK(config.site_id >= 0 && config.site_id < config.num_sites);
  SGM_CHECK(config.max_reconnects >= 0);
  config_.runtime.reliability.round_clock = &clock_;
  if (config_.runtime.telemetry != nullptr) {
    config_.runtime.telemetry->trace.ConfigureSampling(
        config_.runtime.trace_sample_rate, config_.runtime.seed);
  }
  // Decorrelate the per-site retry jitter streams without a shared clock.
  retry_jitter_state_ = config_.runtime.socket_retry.jitter_seed +
                        0x5bd1e995ULL *
                            static_cast<std::uint64_t>(config.site_id + 1);
  Transport* below_reliability = &transport_;
  if (config_.chaos.enabled()) {
    chaos_ = std::make_unique<ChaosSocketTransport>(
        &transport_, config_.chaos, config_.runtime.telemetry,
        config_.site_id);
    // The faults act on this client's own connection: a reset kills both
    // directions (the coordinator sees EOF, we see write failures); a
    // half-open partition kills only our write direction. Either way the
    // real detect → reconnect → rejoin machinery has to dig us out.
    chaos_->SetFaultHooks(
        [this] {
          std::lock_guard<std::mutex> lock(fd_mu_);
          if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
        },
        [this] {
          std::lock_guard<std::mutex> lock(fd_mu_);
          if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
        });
    below_reliability = chaos_.get();
  }
  reliable_ = std::make_unique<ReliableTransport>(
      below_reliability, config_.num_sites, config_.runtime.reliability,
      config_.runtime.telemetry);
  node_ = std::make_unique<SiteNode>(config_.site_id, config_.num_sites,
                                     function, config_.runtime,
                                     reliable_.get());
}

SiteClient::~SiteClient() { TearDownSession(); }

bool SiteClient::EstablishSession() {
  const int fd = ConnectTcpLoopbackWithRetry(
      config_.port, config_.runtime.socket_retry, &retry_jitter_state_);
  if (fd < 0) return false;
  {
    std::lock_guard<std::mutex> lock(fd_mu_);
    fd_ = fd;
  }
  transport_.RegisterPeer(kCoordinatorId, fd);
  // Session control goes straight to the socket (below the chaos layer):
  // the registration handshake is the harness, not the traffic under test.
  RuntimeMessage hello;
  hello.type = RuntimeMessage::Type::kSiteHello;
  hello.from = config_.site_id;
  hello.to = kCoordinatorId;
  transport_.Send(hello);
  return true;
}

void SiteClient::TearDownSession() {
  transport_.UnregisterPeer(kCoordinatorId);
  std::lock_guard<std::mutex> lock(fd_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SiteClient::InjectConnectionReset() {
  std::lock_guard<std::mutex> lock(fd_mu_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

std::string SiteClient::HealthJson() const {
  bool connected = false;
  {
    std::lock_guard<std::mutex> lock(fd_mu_);
    connected = fd_ >= 0;
  }
  long trace_epoch = -1;
  if (config_.runtime.telemetry != nullptr) {
    trace_epoch = config_.runtime.telemetry->trace.epoch();
  }
  const long long uptime_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count();
  std::ostringstream out;
  out << "{\"role\":\"site\",\"version\":\"" << kSgmVersion
      << "\",\"uptime_ms\":" << uptime_ms
      << ",\"site\":" << config_.site_id
      << ",\"num_sites\":" << config_.num_sites
      << ",\"connected\":" << (connected ? "true" : "false")
      << ",\"cycles_observed\":" << cycles_observed_.load()
      << ",\"reconnects\":" << reconnects_.load()
      << ",\"max_reconnects\":" << config_.max_reconnects
      << ",\"epoch\":" << trace_epoch << "}";
  return out.str();
}

bool SiteClient::Connect() {
  SGM_CHECK(fd_ < 0);
  return EstablishSession();
}

bool SiteClient::Run(const std::function<Vector(long)>& next_vector) {
  SGM_CHECK(fd_ >= 0);
  Telemetry* telemetry = config_.runtime.telemetry;
  FrameReader reader;
  for (;;) {
    const SiteExitReason reason = RunSession(next_vector, &reader);
    exit_reason_ = reason;
    if (reason == SiteExitReason::kShutdown) return true;
    if (reason == SiteExitReason::kPollError) return false;
    // Connection-level failure: discard the dead session — including any
    // partial frame the peer died in the middle of — and redial.
    TearDownSession();
    reader.Reset();
    if (telemetry != nullptr) {
      telemetry->trace.Emit(TraceEventId::kConnectionLost, config_.site_id,
                            {{"reason", SiteExitReasonName(reason)}});
    }
    if (reconnects_ >= config_.max_reconnects) return false;
    if (!EstablishSession()) {
      exit_reason_ = SiteExitReason::kConnectGiveUp;
      return false;
    }
    ++reconnects_;
    if (telemetry != nullptr) {
      telemetry->trace.Emit(TraceEventId::kReconnect, config_.site_id,
                            {{"attempt", reconnects_.load()}});
    }
    // The hello above re-registered the connection; now drive the rejoin
    // handshake so the coordinator re-anchors us and resyncs our drift.
    node_->OnTransportReconnect();
  }
}

SiteExitReason SiteClient::RunSession(
    const std::function<Vector(long)>& next_vector, FrameReader* reader) {
  std::array<std::uint8_t, 65536> buffer;
  for (;;) {
    if (stop_requested_.load()) return SiteExitReason::kShutdown;
    // Consume a pending injected stall (in-process SIGSTOP stand-in): the
    // session stays up while the loop goes unresponsive.
    const long stall = stall_ms_.exchange(0);
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
    // A write failure anywhere (dispatch responses, retransmissions,
    // barrier acks) drops the peer mapping — that is this session's end.
    if (!transport_.HasPeer(kCoordinatorId)) {
      return SiteExitReason::kSendFailed;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(config_.poll_interval_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return SiteExitReason::kPollError;
    }
    if (ready == 0) {
      reliable_->AdvanceRound();
      continue;
    }
    const ssize_t n = ::recv(fd_, buffer.data(), buffer.size(), 0);
    if (n == 0) return SiteExitReason::kCoordinatorEof;  // no kShutdown seen
    if (n < 0) {
      if (errno == EINTR) continue;
      return SiteExitReason::kRecvError;
    }
    reader->Append(buffer.data(), static_cast<std::size_t>(n));
    std::vector<RuntimeMessage> frames;
    FrameStats stats;
    if (!DrainDecodedFrames(reader, &frames, &stats)) {
      return SiteExitReason::kStreamPoisoned;
    }
    for (const RuntimeMessage& message : frames) {
      switch (message.type) {
        case RuntimeMessage::Type::kCycleBegin: {
          const long cycle = static_cast<long>(message.scalar);
          if (config_.runtime.telemetry != nullptr) {
            config_.runtime.telemetry->SetCycle(cycle);
          }
          node_->Observe(next_vector(cycle));
          ++cycles_observed_;
          break;
        }
        case RuntimeMessage::Type::kBarrier: {
          // Everything this node emitted in response to earlier frames is
          // already on the wire (sends are synchronous), so the FIFO
          // stream orders this ack after all of it.
          RuntimeMessage ack;
          ack.type = RuntimeMessage::Type::kBarrierAck;
          ack.from = config_.site_id;
          ack.to = kCoordinatorId;
          ack.scalar = message.scalar;
          transport_.Send(ack);
          break;
        }
        case RuntimeMessage::Type::kShutdown:
          return SiteExitReason::kShutdown;
        case RuntimeMessage::Type::kSiteHello:
        case RuntimeMessage::Type::kBarrierAck:
          break;  // site-originated control echoed back: ignore
        default: {
          // Protocol traffic comes only from the coordinator; anything
          // else is garbage and must not reach the reliability layer.
          if (message.from != kCoordinatorId) break;
          std::vector<RuntimeMessage> fresh;
          reliable_->OnDeliver(config_.site_id, message, &fresh);
          for (const RuntimeMessage& m : fresh) node_->OnMessage(m);
          break;
        }
      }
    }
  }
}

}  // namespace sgm
