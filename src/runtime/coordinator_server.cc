#include "runtime/coordinator_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <sstream>

#include "core/check.h"
#include "core/version.h"
#include "obs/telemetry.h"

namespace sgm {

CoordinatorServer::CoordinatorServer(const MonitoredFunction& function,
                                     const CoordinatorServerConfig& config)
    : config_(config),
      clock_(config.round_micros),
      registered_(config.num_sites, false),
      connected_(config.num_sites, false),
      site_fds_(config.num_sites, -1),
      barrier_acked_(config.num_sites, false) {
  SGM_CHECK(config.num_sites > 0);
  SGM_CHECK(config.barrier_deadline_ms >= 0);
  config_.runtime.reliability.round_clock = &clock_;
  if (config_.runtime.telemetry != nullptr) {
    config_.runtime.telemetry->trace.ConfigureSampling(
        config_.runtime.trace_sample_rate, config_.runtime.seed);
    barrier_wait_ms_ = config_.runtime.telemetry->registry.GetHistogram(
        "barrier.wait_ms",
        {1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000});
  }
  reliable_ = std::make_unique<ReliableTransport>(
      &transport_, config_.num_sites, config_.runtime.reliability,
      config_.runtime.telemetry);
  coordinator_ = std::make_unique<CoordinatorNode>(
      config_.num_sites, function, config_.runtime, reliable_.get());
  coordinator_->AttachReliability(reliable_.get());
}

CoordinatorServer::~CoordinatorServer() { Shutdown(); }

bool CoordinatorServer::Listen() {
  SGM_CHECK(listen_fd_ < 0);
  listen_fd_ = ListenTcpLoopback(config_.port, &bound_port_);
  if (listen_fd_ >= 0 && config_.send_queue_frames > 0) {
    // Non-blocking outbound path: one stalled site must never wedge the
    // threads that serve the rest of the deployment.
    transport_.EnableAsyncWriter(config_.send_queue_frames);
  }
  return listen_fd_ >= 0;
}

bool CoordinatorServer::Recover() {
  // The accept thread must not be running yet: CoordinatorNode::OnMessage
  // checks message.epoch <= epoch_, so the fence has to be in place before
  // the first site frame can reach the node.
  SGM_CHECK(!accept_thread_.joinable());
  std::lock_guard<std::mutex> lock(mu_);
  if (!coordinator_->Recover()) return false;
  // Resume cycle numbering where the restored node left off: the next
  // RunCycle() increments past it and runs BeginCycle, never Start().
  cycle_ = coordinator_->cycle();
  if (config_.runtime.telemetry != nullptr) {
    config_.runtime.telemetry->SetCycle(cycle_);
  }
  return true;
}

bool CoordinatorServer::WaitForSites() {
  SGM_CHECK(listen_fd_ >= 0);
  accept_thread_ = std::thread(&CoordinatorServer::AcceptLoop, this);
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(
      lock, std::chrono::milliseconds(config_.hello_timeout_ms),
      [this] { return hellos_ == config_.num_sites; });
}

void CoordinatorServer::AcceptLoop() {
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    session_fds_.push_back(fd);
    readers_.emplace_back(&CoordinatorServer::ReaderLoop, this, fd);
  }
}

void CoordinatorServer::ReaderLoop(int fd) {
  FrameReader reader;
  std::array<std::uint8_t, 65536> buffer;
  for (;;) {
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (n == 0) break;  // peer closed (or Shutdown's SHUT_RD)
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    reader.Append(buffer.data(), static_cast<std::size_t>(n));
    std::vector<RuntimeMessage> frames;
    FrameStats stats;
    const bool stream_ok = DrainDecodedFrames(&reader, &frames, &stats);
    bool keep = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      corrupt_frames_ += stats.corrupt;
      for (const RuntimeMessage& message : frames) {
        keep = HandleFrame(fd, message) && keep;
      }
    }
    cv_.notify_all();
    if (!stream_ok || !keep) {
      // Poisoned stream or rejected registration: cut the connection.
      ::shutdown(fd, SHUT_RDWR);
      break;
    }
  }
  // Connection over. If this fd still maps to a site (it was not displaced
  // by a re-hello on a fresh connection), deregister the site: the link is
  // down until it dials back in.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = fd_site_.find(fd);
    if (it != fd_site_.end()) {
      const int site = it->second;
      fd_site_.erase(it);
      connected_[site] = false;
      site_fds_[site] = -1;
      EndSessionLocked(site);
      reliable_->MarkLinkDown(site);
    }
  }
  cv_.notify_all();
}

void CoordinatorServer::EndSessionLocked(int site) {
  transport_.UnregisterPeer(site);
  ++site_disconnects_;
  ++topology_version_;
  if (config_.runtime.telemetry != nullptr) {
    config_.runtime.telemetry->trace.Emit(TraceEventId::kSiteDisconnect, site);
  }
}

bool CoordinatorServer::HandleFrame(int fd, const RuntimeMessage& message) {
  switch (message.type) {
    case RuntimeMessage::Type::kSiteHello: {
      const int site = message.from;
      if (site < 0 || site >= config_.num_sites) return false;
      if (connected_[site]) {
        // The site dialed a new connection before we noticed the old one
        // die (or a half-open partition left it readable on our side).
        // The fresh hello wins: displace the stale session — its reader
        // finds its fd unmapped on exit and leaves the site alone, so the
        // session's end is booked here.
        const int stale_fd = site_fds_[site];
        fd_site_.erase(stale_fd);
        ::shutdown(stale_fd, SHUT_RDWR);
        EndSessionLocked(site);
      }
      transport_.RegisterPeer(site, fd);
      connected_[site] = true;
      site_fds_[site] = fd;
      fd_site_[fd] = site;
      ++topology_version_;
      Telemetry* telemetry = config_.runtime.telemetry;
      if (!registered_[site]) {
        registered_[site] = true;
        ++hellos_;
        if (telemetry != nullptr) {
          telemetry->trace.Emit(TraceEventId::kSiteHello, site, {{"fd", fd}});
        }
      } else {
        ++site_rehellos_;
        reliable_->MarkLinkUp(site);
        if (telemetry != nullptr) {
          telemetry->trace.Emit(TraceEventId::kSiteRehello, site,
                                {{"fd", fd}});
        }
        // The rejoiner missed this cycle's observe trigger; a unicast
        // catch-up is safe either way (sites observe their *current*
        // local vector — re-observing the same cycle is idempotent).
        if (cycle_ >= 0) {
          RuntimeMessage begin;
          begin.type = RuntimeMessage::Type::kCycleBegin;
          begin.from = kCoordinatorId;
          begin.to = site;
          begin.scalar = static_cast<double>(cycle_);
          transport_.Send(begin);
        }
      }
      return true;
    }
    case RuntimeMessage::Type::kBarrierAck:
      if (static_cast<long>(message.scalar) == barrier_token_) {
        ++barrier_acks_;
        if (message.from >= 0 && message.from < config_.num_sites) {
          barrier_acked_[message.from] = true;
        }
      }
      return true;
    case RuntimeMessage::Type::kCycleBegin:
    case RuntimeMessage::Type::kBarrier:
    case RuntimeMessage::Type::kShutdown:
      return true;  // coordinator-originated control echoed back: ignore
    default: {
      // Every other frame must come from a site: a sender id outside the
      // deployment is garbage that happens to pass the CRC, and must not
      // reach the node or the reliability layer's per-site state.
      if (message.from < 0 || message.from >= config_.num_sites) {
        ++corrupt_frames_;
        return true;
      }
      // Ordinary protocol traffic: through the receive-side reliability
      // layer (ack/dedup), then into the node — the sim driver's Deliver().
      if (message.counts_as_protocol_traffic()) {
        ++site_messages_received_;
        site_bytes_received_ += WireBytes(message);
      }
      std::vector<RuntimeMessage> fresh;
      reliable_->OnDeliver(kCoordinatorId, message, &fresh);
      for (const RuntimeMessage& m : fresh) coordinator_->OnMessage(m);
      return true;
    }
  }
}

void CoordinatorServer::BroadcastControl(RuntimeMessage::Type type,
                                         double scalar) {
  RuntimeMessage message;
  message.type = type;
  message.from = kCoordinatorId;
  message.to = kBroadcastId;
  message.scalar = scalar;
  transport_.Send(message);
}

bool CoordinatorServer::RunCycle() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++cycle_;
    if (config_.runtime.telemetry != nullptr) {
      config_.runtime.telemetry->SetCycle(cycle_);
    }
    // kCycleBegin goes out before the protocol hook runs, so anything the
    // hook broadcasts (a scheduled resync, the initialization collection)
    // lands *after* the observe trigger on every site's stream — the sim
    // driver's "BeginCycle queues, sites observe, then delivery" ordering.
    BroadcastControl(RuntimeMessage::Type::kCycleBegin,
                     static_cast<double>(cycle_));
    if (cycle_ == 0) {
      coordinator_->Start();
    } else {
      coordinator_->BeginCycle();
    }
  }
  if (!AwaitQuiescence()) return false;
  PublishMetrics();
  return true;
}

int CoordinatorServer::ConnectedCountLocked() const {
  int count = 0;
  for (const bool up : connected_) count += up ? 1 : 0;
  return count;
}

bool CoordinatorServer::BarrierAckPendingLocked() const {
  if (config_.barrier_deadline_ms <= 0) {
    return barrier_acks_ < ConnectedCountLocked();
  }
  const FailureDetector& fd = coordinator_->failure_detector();
  for (int site = 0; site < config_.num_sites; ++site) {
    if (!connected_[site]) continue;
    if (fd.state(site) == FailureDetector::State::kLagging) continue;
    if (!barrier_acked_[site]) return true;
  }
  return false;
}

int CoordinatorServer::HandleBarrierDeadlineLocked() {
  const FailureDetector& fd = coordinator_->failure_detector();
  int missed = 0;
  int quarantined = 0;
  for (int site = 0; site < config_.num_sites; ++site) {
    if (!connected_[site]) continue;
    if (fd.state(site) == FailureDetector::State::kLagging) continue;
    if (barrier_acked_[site]) {
      coordinator_->OnBarrierDeadlineMet(site);
      continue;
    }
    ++missed;
    if (coordinator_->OnBarrierDeadlineMissed(site)) ++quarantined;
  }
  if (missed > 0) coordinator_->RecordDegradedCycle(missed);
  if (config_.runtime.telemetry != nullptr) {
    config_.runtime.telemetry->trace.Emit(
        TraceEventId::kBarrierDeadline, kCoordinatorId,
        {{"missed", missed}, {"quarantined", quarantined}});
  }
  return missed;
}

bool CoordinatorServer::AwaitQuiescence() {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::milliseconds(config_.barrier_timeout_ms);
  const bool soft_deadline = config_.barrier_deadline_ms > 0;
  const auto cycle_deadline =
      start + std::chrono::milliseconds(config_.barrier_deadline_ms);
  const auto slow_mark =
      start + std::chrono::milliseconds(config_.barrier_deadline_ms / 2);
  bool slow_warned = false;
  bool expired = false;  // this cycle's soft deadline has passed
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    const long snapshot = transport_.data_frames_sent();
    const long topology = topology_version_;
    const long token = ++barrier_token_;
    barrier_acks_ = 0;
    std::fill(barrier_acked_.begin(), barrier_acked_.end(), false);
    RuntimeMessage barrier;
    barrier.type = RuntimeMessage::Type::kBarrier;
    barrier.from = kCoordinatorId;
    barrier.to = kBroadcastId;
    barrier.scalar = static_cast<double>(token);
    transport_.Send(barrier);
    // The barrier targets the population that was connected when it went
    // out. If membership shifts under the wait (a disconnect, a rejoin),
    // the round is void — restart with a fresh barrier against the new
    // population rather than wait on acks that will never come.
    while (BarrierAckPendingLocked() && topology_version_ == topology) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      if (soft_deadline && !slow_warned && now >= slow_mark) {
        // Watchdog breadcrumb at half the budget: the barrier is slow but
        // not yet degraded — early warning for drifting deployments.
        slow_warned = true;
        if (config_.runtime.telemetry != nullptr) {
          config_.runtime.telemetry->trace.Emit(
              TraceEventId::kBarrierSlow, kCoordinatorId,
              {{"deadline_ms", config_.barrier_deadline_ms}});
        }
      }
      if (soft_deadline && !expired && now >= cycle_deadline) {
        expired = true;
        HandleBarrierDeadlineLocked();
        continue;  // quarantines may have emptied the pending population
      }
      if (expired) break;  // proceed over the responsive quorum
      cv_.wait_for(lock, std::chrono::milliseconds(10));
      // The retransmission clock keeps running while we wait: a site that
      // lost its connection mid-cycle must still hit the give-up horizon.
      reliable_->AdvanceRound();
    }
    if (topology_version_ != topology) continue;
    if (expired) {
      // Degraded close: the responsive quorum has flushed; anything still
      // in flight toward the laggards stays with the reliability layer
      // (retransmission rounds keep advancing in later cycles). The
      // protocol's quiescence hook still runs so probe folds and
      // collection completions happen this cycle — over the live
      // population, which now excludes the quarantined laggards.
      coordinator_->OnQuiescent();
    } else {
      // Every connected site has flushed. If we put new data frames on the
      // wire since the barrier went out (responses to late arrivals,
      // retransmissions), their induced replies may still be in flight —
      // flush again.
      if (transport_.data_frames_sent() != snapshot) continue;
      coordinator_->OnQuiescent();
      if (transport_.data_frames_sent() != snapshot) continue;
      if (reliable_->HasUnacked()) {
        // Acks still inbound — or a disconnected site holds tracked
        // traffic. Keep the round clock moving so those entries reach the
        // give-up horizon instead of spinning here forever.
        cv_.wait_for(lock, std::chrono::milliseconds(10));
        reliable_->AdvanceRound();
        continue;
      }
      if (soft_deadline) {
        // A clean close within the deadline resets every responsive
        // site's consecutive-miss count.
        for (int site = 0; site < config_.num_sites; ++site) {
          if (connected_[site] && barrier_acked_[site]) {
            coordinator_->OnBarrierDeadlineMet(site);
          }
        }
      }
    }
    if (barrier_wait_ms_ != nullptr) {
      barrier_wait_ms_->Observe(static_cast<double>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
    return true;
  }
}

void CoordinatorServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    BroadcastControl(RuntimeMessage::Type::kShutdown, 0.0);
  }
  StopThreads();
}

void CoordinatorServer::Halt() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    // No kShutdown broadcast: sites see a raw connection loss, as after a
    // process kill, and reconnect to the next incarnation.
  }
  StopThreads();
}

void CoordinatorServer::StopThreads() {
  stop_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept thread is gone: session_fds_/readers_ are frozen now.
  for (const int fd : session_fds_) ::shutdown(fd, SHUT_RD);
  for (std::thread& reader : readers_) {
    if (reader.joinable()) reader.join();
  }
  readers_.clear();
  // Flush the async writer (bounded: a wedged peer's EAGAIN cannot hold
  // shutdown hostage) while the session fds are still open, so a queued
  // kShutdown broadcast reaches every responsive site.
  transport_.StopAsyncWriter(500);
  for (const int fd : session_fds_) ::close(fd);
  session_fds_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool CoordinatorServer::BelievesAbove() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coordinator_->BelievesAbove();
}

Vector CoordinatorServer::Estimate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coordinator_->estimate();
}

std::int64_t CoordinatorServer::Epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coordinator_->epoch();
}

long CoordinatorServer::FullSyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coordinator_->full_syncs();
}

long CoordinatorServer::PartialResolutions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coordinator_->partial_resolutions();
}

long CoordinatorServer::DegradedSyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coordinator_->degraded_syncs();
}

long CoordinatorServer::CyclesRun() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cycle_ + 1;
}

long CoordinatorServer::PaperMessages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transport_.messages_sent() + site_messages_received_;
}

long CoordinatorServer::PaperSiteMessages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_messages_received_;
}

double CoordinatorServer::PaperBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transport_.bytes_sent() + site_bytes_received_;
}

int CoordinatorServer::ConnectedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ConnectedCountLocked();
}

long CoordinatorServer::SiteDisconnects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_disconnects_;
}

long CoordinatorServer::SiteRehellos() const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_rehellos_;
}

bool CoordinatorServer::HasUnacked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reliable_->HasUnacked();
}

void CoordinatorServer::FlushCheckpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  coordinator_->FlushCheckpoint();
}

CoordinatorServer::Health CoordinatorServer::GetHealth() const {
  std::lock_guard<std::mutex> lock(mu_);
  Health health;
  health.epoch = coordinator_->epoch();
  health.cycle = cycle_;
  health.num_sites = config_.num_sites;
  health.connected_sites = ConnectedCountLocked();
  health.site_disconnects = site_disconnects_;
  health.site_rehellos = site_rehellos_;
  health.has_unacked = reliable_->HasUnacked();
  health.believes_above = coordinator_->BelievesAbove();
  health.full_syncs = coordinator_->full_syncs();
  health.partial_resolutions = coordinator_->partial_resolutions();
  health.degraded_syncs = coordinator_->degraded_syncs();
  health.checkpoint_snapshots = coordinator_->recovery_stats().snapshots_written;
  health.checkpoint_restores = coordinator_->recovery_stats().restores;
  const FailureDetector& fd = coordinator_->failure_detector();
  health.degraded_cycles = coordinator_->degraded_cycles();
  health.lagging_sites = fd.lagging_count();
  health.lag_quarantines = fd.total_lagging_verdicts();
  health.site_states.reserve(config_.num_sites);
  for (int site = 0; site < config_.num_sites; ++site) {
    std::string state;
    switch (fd.state(site)) {
      case FailureDetector::State::kAlive: state = "alive"; break;
      case FailureDetector::State::kSuspect: state = "suspect"; break;
      case FailureDetector::State::kDead: state = "dead"; break;
      case FailureDetector::State::kRejoining: state = "rejoining"; break;
      case FailureDetector::State::kLagging: state = "lagging"; break;
    }
    if (fd.IsQuarantined(site)) state += "+quarantined";
    health.site_states.push_back(std::move(state));
    health.site_connected.push_back(connected_[site]);
  }
  return health;
}

std::string CoordinatorServer::HealthJson() const {
  const Health health = GetHealth();
  const long long uptime_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count();
  std::ostringstream out;
  out << "{\"role\":\"coordinator\",\"version\":\"" << kSgmVersion
      << "\",\"uptime_ms\":" << uptime_ms << ",\"epoch\":" << health.epoch
      << ",\"cycle\":" << health.cycle
      << ",\"num_sites\":" << health.num_sites
      << ",\"connected_sites\":" << health.connected_sites
      << ",\"site_disconnects\":" << health.site_disconnects
      << ",\"site_rehellos\":" << health.site_rehellos
      << ",\"has_unacked\":" << (health.has_unacked ? "true" : "false")
      << ",\"believes_above\":" << (health.believes_above ? "true" : "false")
      << ",\"full_syncs\":" << health.full_syncs
      << ",\"partial_resolutions\":" << health.partial_resolutions
      << ",\"degraded_syncs\":" << health.degraded_syncs
      << ",\"checkpoint_snapshots\":" << health.checkpoint_snapshots
      << ",\"checkpoint_restores\":" << health.checkpoint_restores
      << ",\"degraded_cycles\":" << health.degraded_cycles
      << ",\"lagging_sites\":" << health.lagging_sites
      << ",\"lag_quarantines\":" << health.lag_quarantines
      << ",\"sites\":[";
  for (int site = 0; site < health.num_sites; ++site) {
    out << (site == 0 ? "" : ",") << "{\"site\":" << site << ",\"state\":\""
        << health.site_states[site] << "\",\"connected\":"
        << (health.site_connected[site] ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

MetricRows<CoordinatorServer> CoordinatorServer::SocketRows() {
  using Server = CoordinatorServer;
  static constexpr MetricRows<Server>::CounterRow kCounters[] = {
      {"transport.paper_messages",
       [](const Server& s) {
         return s.transport_.messages_sent() + s.site_messages_received_;
       }},
      {"transport.paper_site_messages",
       [](const Server& s) { return s.site_messages_received_; }},
      {"transport.total_messages",
       [](const Server& s) { return s.transport_.transport_messages_sent(); }},
      {"socket.send_failures",
       [](const Server& s) { return s.transport_.send_failures(); }},
      {"socket.short_writes",
       [](const Server& s) { return s.transport_.short_writes(); }},
      {"socket.send_queue_drops",
       [](const Server& s) { return s.transport_.send_queue_drops(); }},
      {"socket.corrupt_frames",
       [](const Server& s) { return s.corrupt_frames_; }},
      {"socket.site_disconnects",
       [](const Server& s) { return s.site_disconnects_; }},
      {"socket.site_rehellos",
       [](const Server& s) { return s.site_rehellos_; }},
  };
  static constexpr MetricRows<Server>::GaugeRow kGauges[] = {
      {"transport.paper_bytes",
       [](const Server& s) {
         return s.transport_.bytes_sent() + s.site_bytes_received_;
       }},
      {"transport.total_bytes",
       [](const Server& s) { return s.transport_.transport_bytes_sent(); }},
      {"socket.send_queue_depth",
       [](const Server& s) -> double {
         return s.transport_.send_queue_depth();
       }},
      {"socket.connected_sites",
       [](const Server& s) -> double { return s.ConnectedCountLocked(); }},
  };
  return MetricRows<Server>(kCounters, kGauges);
}

void CoordinatorServer::PublishMetrics() {
  Telemetry* telemetry = config_.runtime.telemetry;
  if (telemetry == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  socket_rows_.Publish(&telemetry->registry, *this);
  node_metrics_.Publish(*telemetry, *reliable_, coordinator_.get(),
                        &coordinator_->recovery_stats(), cycle_);
}

}  // namespace sgm
