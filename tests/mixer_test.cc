// Pins the outputs of every hash and stream built on SplitMix64's mixer: the
// Rng seeding and DeriveSeed (core/rng.cc), the trace sampler's cascade and
// noise coins (obs/trace.cc), the AMS sketch's bucket and sign hashes
// (sketch/ams_sketch.cc) and the socket retry jitter (runtime/socket_retry.h).
// The values were recorded when each caller still had its own copy of the
// mixer; sharing one must not move any of them.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "obs/trace.h"
#include "runtime/socket_retry.h"
#include "sketch/ams_sketch.h"

namespace sgm {
namespace {

TEST(MixerTest, RngSeedingKeepsItsStreams) {
  const struct {
    std::uint64_t seed;
    std::uint64_t first[3];
  } pins[] = {
      {0, {0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL, 0x1a5f849d4933e6e0ULL}},
      {1, {0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL, 0x92f89756082a4514ULL}},
      {2024,
       {0x0e48715a13d7772eULL, 0xc837f3ee8a7a1065ULL, 0x1272314b15ee5001ULL}},
  };
  for (const auto& pin : pins) {
    Rng rng(pin.seed);
    for (const std::uint64_t expected : pin.first) {
      EXPECT_EQ(rng.NextUint64(), expected) << "seed " << pin.seed;
    }
  }
  Rng rng(42);
  EXPECT_EQ(rng.NextDouble(), 0.083862971059882163);
  EXPECT_EQ(rng.NextDouble(), 0.37898025066266861);
}

TEST(MixerTest, DeriveSeedKeepsItsValues) {
  EXPECT_EQ(DeriveSeed(7, 0), 0x6e7ce04a63ac7dd2ULL);
  EXPECT_EQ(DeriveSeed(7, 1), 0xebec8a1b452f213eULL);
  EXPECT_EQ(DeriveSeed(12345, 99), 0x26b30f7e5e9867bdULL);
}

TEST(MixerTest, SocketRetryJitterKeepsItsSchedule) {
  const SocketRetryConfig config;
  std::uint64_t state = config.jitter_seed + 3;
  const long expected[] = {2, 10, 13, 33, 70, 103, 284, 473};
  for (int attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(SocketRetryDelayMs(config, attempt, &state),
              expected[attempt - 1])
        << "attempt " << attempt;
  }
  EXPECT_EQ(state, 0xf1bbcdcbfa53e0bcULL);
}

TEST(MixerTest, AmsSketchKeepsItsBucketsAndSigns) {
  // One unit update lands ±1 in one bucket per row: "<index><sign>" for each
  // nonzero counter of the row-major 5×64 array.
  const struct {
    std::uint64_t item;
    const char* cells;
  } pins[] = {
      {0, "46- 91- 168- 200+ 256+"},
      {1, "49- 76+ 190+ 227+ 289-"},
      {2, "63- 70+ 178+ 225+ 311+"},
      {1000, "27- 85- 169+ 210+ 279+"},
      {0xdeadbeefULL, "49+ 104- 166- 224- 297-"},
  };
  for (const auto& pin : pins) {
    AmsSketch sketch(5, 64, 11);
    sketch.Update(pin.item, 1.0);
    std::string cells;
    for (std::size_t i = 0; i < sketch.counters().dim(); ++i) {
      if (sketch.counters()[i] == 0.0) continue;
      if (!cells.empty()) cells += ' ';
      cells += std::to_string(i) + (sketch.counters()[i] > 0.0 ? '+' : '-');
    }
    EXPECT_EQ(cells, pin.cells) << "item " << pin.item;
  }
}

TEST(MixerTest, TraceSamplingKeepsItsCoins) {
  // Bit r−1 of each mask: the cascade rooted at span r is kept.
  const auto cascade_mask = [](std::uint64_t seed, double rate) {
    std::uint64_t mask = 0;
    for (int root = 1; root <= 64; ++root) {
      if (TraceSampleDecision(seed, root, rate)) mask |= 1ULL << (root - 1);
    }
    return mask;
  };
  EXPECT_EQ(cascade_mask(7, 0.5), 0x3536f6bd7e6d046bULL);
  EXPECT_EQ(cascade_mask(0x5eed, 0.1), 0x0440220020040200ULL);

  // Bit a of each mask: actor a's heartbeat, a noise event, is recorded.
  const auto noise_mask = [](long cycle) {
    TraceLog log;
    log.ConfigureSampling(0.5, 99);
    log.SetCycle(cycle);
    for (int actor = 0; actor < 64; ++actor) {
      log.Emit(TraceEventId::kHeartbeat, actor);
    }
    std::uint64_t mask = 0;
    for (const TraceEvent& event : log.events()) mask |= 1ULL << event.actor;
    return mask;
  };
  EXPECT_EQ(noise_mask(1), 0x704f416e997e6301ULL);
  EXPECT_EQ(noise_mask(2), 0x10002bcfa6f44215ULL);
}

}  // namespace
}  // namespace sgm
