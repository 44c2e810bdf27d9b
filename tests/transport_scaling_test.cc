// Transport scaling of the deployed runtime. The paper's claim is O(√N)
// communication per cycle; this test fits how the faultless RuntimeDriver's
// transport traffic — every message on the wire, acks and heartbeats
// included — grows with N on the fleet calibration, and gates its exponent
// and those of its acks and its liveness heartbeats.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/jester_like.h"
#include "functions/linf_distance.h"
#include "runtime/driver.h"

namespace sgm {
namespace {

constexpr int kCycles = 1000;
constexpr std::size_t kBuckets = 8;

/// Messages per cycle over the ticks of one run (the initialization sync
/// excluded).
struct PerCycle {
  double transport = 0.0;
  double acks = 0.0;
  double paper = 0.0;
  double heartbeats = 0.0;
};

/// Heartbeats the driver's sites have sent so far.
long HeartbeatsSent(RuntimeDriver& driver) {
  long total = 0;
  for (int i = 0; i < driver.num_sites(); ++i) {
    total += driver.site(i).audit().heartbeats_sent;
  }
  return total;
}

/// The fleet calibration (Jester-like L∞, window 50, 8 buckets, T = 20, no
/// global mood shifts) at N sites. Each site seeds a quirk at a fixed rate
/// and each quirk covers a fixed fraction of the fleet, so the default rate
/// would cover a share of the fleet that grows with N; scaling it by 2048/N
/// keeps that share at fleet-2048's, so the sweep measures the protocol,
/// not the generator.
PerCycle RunFleet(int num_sites, std::uint64_t seed) {
  JesterLikeConfig source_config;
  source_config.num_sites = num_sites;
  source_config.window = 50;
  source_config.num_buckets = kBuckets;
  source_config.shift_spacing = 1000000000;
  source_config.quirk_rate *= 2048.0 / num_sites;
  source_config.seed = DeriveSeed(seed, 101);
  JesterLikeGenerator source(source_config);
  const LInfDistance linf{Vector(kBuckets)};
  RuntimeConfig config;
  config.threshold = 20.0;
  config.max_step_norm = source.max_step_norm();
  config.drift_norm_cap = source.max_drift_norm();
  config.seed = DeriveSeed(seed, 202);
  RuntimeDriver driver(num_sites, linf, config);

  std::vector<Vector> locals;
  source.Advance(&locals);
  driver.Initialize(locals);
  const InMemoryBus& bus = driver.bus();
  const long transport = bus.transport_messages_sent();
  const long acks = driver.reliable_transport().stats().acks_sent;
  const long paper = bus.messages_sent();
  const long heartbeats = HeartbeatsSent(driver);
  for (int t = 0; t < kCycles; ++t) {
    source.Advance(&locals);
    driver.Tick(locals);
  }
  PerCycle out;
  out.transport =
      static_cast<double>(bus.transport_messages_sent() - transport) / kCycles;
  out.acks = static_cast<double>(
                 driver.reliable_transport().stats().acks_sent - acks) /
             kCycles;
  out.paper = static_cast<double>(bus.messages_sent() - paper) / kCycles;
  out.heartbeats =
      static_cast<double>(HeartbeatsSent(driver) - heartbeats) / kCycles;
  return out;
}

/// Least-squares slope of log(y) against log(x).
double Exponent(const std::vector<double>& x, const std::vector<double>& y) {
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mean_x += std::log(x[i]);
    mean_y += std::log(y[i]);
  }
  mean_x /= static_cast<double>(x.size());
  mean_y /= static_cast<double>(x.size());
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = std::log(x[i]) - mean_x;
    sxy += dx * (std::log(y[i]) - mean_y);
    sxx += dx * dx;
  }
  return sxy / sxx;
}

TEST(TransportScalingTest, FaultlessTransportGrowsAsSqrtN) {
  std::vector<double> sites;
  std::vector<double> transport;
  std::vector<double> acks;
  std::vector<double> paper;
  std::vector<double> heartbeats;
  for (const int n : {128, 512, 2048}) {
    const PerCycle per_cycle = RunFleet(n, /*seed=*/1);
    std::printf(
        "N=%d: transport %.2f, acks %.2f, paper %.2f, heartbeats %.2f "
        "messages per cycle\n",
        n, per_cycle.transport, per_cycle.acks, per_cycle.paper,
        per_cycle.heartbeats);
    sites.push_back(n);
    transport.push_back(per_cycle.transport);
    acks.push_back(per_cycle.acks);
    paper.push_back(per_cycle.paper);
    heartbeats.push_back(per_cycle.heartbeats);
  }
  const double transport_exponent = Exponent(sites, transport);
  const double ack_exponent = Exponent(sites, acks);
  const double heartbeat_exponent = Exponent(sites, heartbeats);
  std::printf(
      "exponents in N: transport %.3f, acks %.3f, paper %.3f, heartbeats "
      "%.3f\n",
      transport_exponent, ack_exponent, Exponent(sites, paper),
      heartbeat_exponent);
  // Per-site acks of every broadcast copy would make both grow about
  // linearly in N; the paper's √N is 0.5.
  EXPECT_LE(transport_exponent, 0.6);
  EXPECT_LE(ack_exponent, 0.6);
  // A beat every ⌈√N⌉ cycles per site is N/⌈√N⌉ beats per cycle; a beat
  // every cycle would be N.
  EXPECT_LE(heartbeat_exponent, 0.6);
}

}  // namespace
}  // namespace sgm
