// google-benchmark microbenchmarks of the library's hot kernels: the
// per-site per-cycle operations every protocol executes (drift norms, ball
// construction and threshold tests, sampling-probability evaluation,
// Horvitz–Thompson estimation, signed distances, receive-side dedup) plus
// the heavier geometric utilities (χ² certified enclosures and surface
// distances, hull projection), the telemetry plane's per-cycle costs at
// fleet scale, and the simulated runtime's per-site pass, broadcast fan-out
// and setup.

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "core/vector.h"
#include "data/jester_like.h"
#include "estimators/horvitz_thompson.h"
#include "estimators/sampling.h"
#include "functions/chi_square.h"
#include "functions/jeffrey_divergence.h"
#include "functions/l2_norm.h"
#include "functions/linf_distance.h"
#include "functions/mutual_information.h"
#include "geometry/ball.h"
#include "geometry/convex.h"
#include "geometry/safe_zone.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/driver.h"
#include "runtime/reliable_transport.h"

namespace sgm {
namespace {

Vector RandomVector(std::size_t dim, Rng* rng) {
  Vector v(dim);
  for (std::size_t j = 0; j < dim; ++j) v[j] = rng->NextDouble(-5.0, 5.0);
  return v;
}

void BM_VectorNorm(benchmark::State& state) {
  Rng rng(1);
  const Vector v = RandomVector(state.range(0), &rng);
  for (auto _ : state) benchmark::DoNotOptimize(v.Norm());
}
BENCHMARK(BM_VectorNorm)->Arg(8)->Arg(64)->Arg(512);

void BM_VectorAxpy(benchmark::State& state) {
  Rng rng(2);
  Vector x = RandomVector(state.range(0), &rng);
  const Vector y = RandomVector(state.range(0), &rng);
  for (auto _ : state) {
    x.Axpy(0.001, y);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_VectorAxpy)->Arg(8)->Arg(64)->Arg(512);

void BM_LocalConstraintBall(benchmark::State& state) {
  Rng rng(3);
  const Vector e = RandomVector(16, &rng);
  const Vector drift = RandomVector(16, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ball::LocalConstraint(e, drift));
  }
}
BENCHMARK(BM_LocalConstraintBall);

void BM_LinfBallTest(benchmark::State& state) {
  Rng rng(4);
  const LInfDistance f{Vector(16)};
  const Ball ball(RandomVector(16, &rng), 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.BallCrossesThreshold(ball, 10.0));
  }
}
BENCHMARK(BM_LinfBallTest);

void BM_SelfJoinBallTest(benchmark::State& state) {
  Rng rng(5);
  const auto f = L2Norm::SelfJoinSize();
  const Ball ball(RandomVector(16, &rng), 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->BallCrossesThreshold(ball, 120.0));
  }
}
BENCHMARK(BM_SelfJoinBallTest);

void BM_JdBallTest(benchmark::State& state) {
  Rng rng(6);
  Vector ref = RandomVector(16, &rng);
  for (std::size_t j = 0; j < 16; ++j) ref[j] = std::abs(ref[j]) + 1.0;
  const JeffreyDivergence f(ref);
  Vector center(16);
  center[3] = 2.0;
  center += ref;  // ref, 2 further along coordinate 3
  const Ball ball(center, 1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.BallCrossesThreshold(ball, 5.0));
  }
}
BENCHMARK(BM_JdBallTest);

// A χ² ball whose enclosure, [-0.027, 0.086], does not reach T = 0.5: a
// "no" verdict, which visits every probe.
void BM_ChiSquareBallTest(benchmark::State& state) {
  const ChiSquare f(200.0);
  const Ball ball(Vector{6.0, 10.0, 40.0}, 3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.BallCrossesThreshold(ball, 0.5));
  }
}
BENCHMARK(BM_ChiSquareBallTest);

// The same center with a radius past its distance to the surface (11.8):
// a "crosses" verdict, which stops at the first probe that settles it.
void BM_ChiSquareBallTestCrossing(benchmark::State& state) {
  const ChiSquare f(200.0);
  const Ball ball(Vector{6.0, 10.0, 40.0}, 12.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.BallCrossesThreshold(ball, 0.5));
  }
}
BENCHMARK(BM_ChiSquareBallTestCrossing);

// The coordinator's ε_T kernel: a Reuters-like χ² average at the Fig. 10
// threshold. The radius search bisects over one probe frame, so f(c), ∇f(c)
// and the probe directions are derived once.
void BM_ChiSquareDistanceToSurface(benchmark::State& state) {
  const ChiSquare f(200.0);
  const Vector point{6.0, 10.0, 40.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.DistanceToSurface(point, 0.5));
  }
}
BENCHMARK(BM_ChiSquareDistanceToSurface);

// The partial resolution's cooldown count at the same point: the same
// bisection, stopped once ⌊(D − margin)/max_step⌋ is decided.
void BM_ChiSquareCertifiedCooldownCycles(benchmark::State& state) {
  const ChiSquare f(200.0);
  const Vector point{6.0, 10.0, 40.0};
  const double max_step = std::sqrt(2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.CertifiedCooldownCycles(point, 0.5, /*margin=*/1.0, max_step));
  }
}
BENCHMARK(BM_ChiSquareCertifiedCooldownCycles);

// The other prober: the default Lipschitz enclosure over the probed
// gradient-norm bound, re-run at every radius (no radius-search override).
void BM_MutualInformationDistanceToSurface(benchmark::State& state) {
  const MutualInformation f(20.0, 10);
  const Vector point{5.0, 3.0, 2.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.DistanceToSurface(point, f.ExampleThreshold()));
  }
}
BENCHMARK(BM_MutualInformationDistanceToSurface);

void BM_SamplingProbability(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(SamplingProbability(0.1, 30.0, 500, 7.5));
  }
}
BENCHMARK(BM_SamplingProbability);

// The same g_i from a deployment's precomputed ln(1/δ) and √N, as every
// site evaluates it each monitored cycle.
void BM_SamplingScaleProbability(benchmark::State& state) {
  const SamplingScale scale(0.1, 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scale.Probability(30.0, 7.5));
  }
}
BENCHMARK(BM_SamplingScaleProbability);

// A fleet's broadcast fan-out on the receive side: 2,048 sites each take
// the coordinator's seqs in order through the verdict RuntimeDriver uses.
// With an argument g > 0, every g-th seq is a unicast to another site and
// leaves a gap, so every window keeps holes and each arrival takes the
// general path; with 0 each takes the in-order step. One iteration is one
// delivery.
void BM_InOrderDedup(benchmark::State& state) {
  constexpr int kSites = 2048;
  const std::int64_t gap_every = state.range(0);
  InMemoryBus bus;
  ReliableTransport transport(&bus, kSites, ReliableTransportConfig{});
  RuntimeMessage broadcast;
  broadcast.type = RuntimeMessage::Type::kResolved;
  broadcast.from = kCoordinatorId;
  broadcast.to = kBroadcastId;
  broadcast.seq = 1;
  int site = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport.Receive(site, broadcast));
    if (++site == kSites) {
      site = 0;
      ++broadcast.seq;
      if (gap_every > 0 && broadcast.seq % gap_every == 0) ++broadcast.seq;
    }
  }
}
BENCHMARK(BM_InOrderDedup)->Arg(0)->Arg(16);

void BM_HtEstimate(benchmark::State& state) {
  Rng rng(7);
  const int sample = static_cast<int>(state.range(0));
  std::vector<Vector> drifts;
  for (int i = 0; i < sample; ++i) drifts.push_back(RandomVector(16, &rng));
  const Vector e = RandomVector(16, &rng);
  for (auto _ : state) {
    HtVectorEstimator est(1000, 16);
    for (const Vector& d : drifts) est.AddSample(d, 0.1);
    benchmark::DoNotOptimize(est.Estimate(e));
  }
}
BENCHMARK(BM_HtEstimate)->Arg(8)->Arg(32)->Arg(128);

void BM_SignedDistanceBallZone(benchmark::State& state) {
  Rng rng(8);
  const BallSafeZone zone(Ball(RandomVector(16, &rng), 5.0));
  const Vector p = RandomVector(16, &rng);
  for (auto _ : state) benchmark::DoNotOptimize(zone.SignedDistance(p));
}
BENCHMARK(BM_SignedDistanceBallZone);

void BM_HullProjection(benchmark::State& state) {
  Rng rng(9);
  std::vector<Vector> points;
  for (int i = 0; i < state.range(0); ++i) {
    points.push_back(RandomVector(4, &rng));
  }
  const Vector query = RandomVector(4, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProjectOntoHull(points, query, 500, 1e-8));
  }
}
BENCHMARK(BM_HullProjection)->Arg(10)->Arg(100);

// A quiet fleet cycle's trace traffic: each of 2,048 sites emits its
// heartbeat at the deployed sampling rate 0.1, so about one in ten is
// recorded. One iteration is one cycle. The log restarts every 256 cycles
// (outside the timing) to bound its memory.
void BM_TraceLogEmit(benchmark::State& state) {
  constexpr int kActors = 2048;
  auto log = std::make_unique<TraceLog>();
  long cycle = 0;
  for (auto _ : state) {
    if (cycle % 256 == 0) {
      state.PauseTiming();
      log = std::make_unique<TraceLog>();
      log->ConfigureSampling(0.1, 7);
      state.ResumeTiming();
    }
    log->SetCycle(++cycle);
    for (int actor = 0; actor < kActors; ++actor) {
      log->Emit(TraceEventId::kHeartbeat, actor);
    }
  }
  state.SetItemsProcessed(state.iterations() * kActors);
}
BENCHMARK(BM_TraceLogEmit)->Unit(benchmark::kMicrosecond);

// The fleet the driver benchmarks share, perfbench's fleet-2048
// calibration: 2,048 sites, Jester-like L∞ without global mood shifts,
// T = 20.
constexpr int kFleetSites = 2048;
constexpr std::size_t kFleetBuckets = 8;

JesterLikeConfig FleetWorkload() {
  JesterLikeConfig workload;
  workload.num_sites = kFleetSites;
  workload.window = 50;
  workload.num_buckets = kFleetBuckets;
  workload.shift_spacing = 1000000000;
  workload.seed = 101;
  return workload;
}

RuntimeConfig FleetConfig(const JesterLikeGenerator& source) {
  RuntimeConfig config;
  config.threshold = 20.0;
  config.max_step_norm = source.max_step_norm();
  config.drift_norm_cap = source.max_drift_norm();
  config.seed = 202;
  return config;
}

/// Initializes `driver` from `source` and runs it 50 cycles.
void Warm(JesterLikeGenerator* source, RuntimeDriver* driver) {
  std::vector<Vector> locals;
  source->Advance(&locals);
  driver->Initialize(locals);
  for (int t = 0; t < 50; ++t) {
    source->Advance(&locals);
    driver->Tick(locals);
  }
}

// The per-cycle metric publish of a warm fleet, telemetry at rate 0.1.
void BM_RuntimeDriverPublishMetrics(benchmark::State& state) {
  JesterLikeGenerator source(FleetWorkload());
  const LInfDistance function{Vector(kFleetBuckets)};
  Telemetry telemetry;
  RuntimeConfig config = FleetConfig(source);
  config.telemetry = &telemetry;
  config.trace_sample_rate = 0.1;
  RuntimeDriver driver(kFleetSites, function, config);
  Warm(&source, &driver);
  for (auto _ : state) driver.PublishMetrics();
}
BENCHMARK(BM_RuntimeDriverPublishMetrics)->Unit(benchmark::kMicrosecond);

// One whole kResolved broadcast in a warm fleet, handled as RuntimeDriver
// handles it: at each of the 2,048 sites, the receive-side verdict, then
// SiteNode::OnMessage. The verdicts come from a reliability layer of the
// benchmark's own, fed the broadcast seqs in order. One iteration is one
// broadcast.
void BM_BroadcastFanOut(benchmark::State& state) {
  JesterLikeGenerator source(FleetWorkload());
  const LInfDistance function{Vector(kFleetBuckets)};
  RuntimeDriver driver(kFleetSites, function, FleetConfig(source));
  Warm(&source, &driver);
  InMemoryBus bus;
  ReliableTransport receiver(&bus, kFleetSites, ReliableTransportConfig{});
  RuntimeMessage resolved;
  resolved.type = RuntimeMessage::Type::kResolved;
  resolved.from = kCoordinatorId;
  resolved.to = kBroadcastId;
  resolved.epoch = driver.coordinator().epoch();
  for (auto _ : state) {
    ++resolved.seq;
    for (int site = 0; site < kFleetSites; ++site) {
      if (receiver.Receive(site, resolved)) {
        driver.site(site).OnMessage(resolved);
      }
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kFleetSites);
}
BENCHMARK(BM_BroadcastFanOut)->Unit(benchmark::kMicrosecond);

// One cycle of the warm fleet: RuntimeDriver::Tick, so every site's Observe
// (the per-site pass) plus the routing of whatever the cycle sends. The
// frames are generated before the timed loop and replayed forward, then
// backward, then forward again: each step still slides one window, so the
// fleet stays as quiet as the live generator keeps it. One iteration is one
// cycle.
void BM_FleetTick(benchmark::State& state) {
  constexpr int kFrames = 32;
  JesterLikeGenerator source(FleetWorkload());
  const LInfDistance function{Vector(kFleetBuckets)};
  RuntimeDriver driver(kFleetSites, function, FleetConfig(source));
  Warm(&source, &driver);
  std::vector<std::vector<Vector>> frames(kFrames);
  for (std::vector<Vector>& frame : frames) source.Advance(&frame);
  int next = 0;
  int step = 1;
  for (auto _ : state) {
    driver.Tick(frames[next]);
    benchmark::ClobberMemory();
    if (next + step < 0 || next + step >= kFrames) step = -step;
    next += step;
  }
  state.SetItemsProcessed(state.iterations() * kFleetSites);
}
BENCHMARK(BM_FleetTick)->Unit(benchmark::kMicrosecond);

// A fleet deployment's setup: building the driver with its 2,048 sites,
// then the initialization sync, whose 2,048 state reports all await the
// coordinator's ack at once. One iteration is one deployment, its teardown
// included.
void BM_RuntimeDriverInitialize(benchmark::State& state) {
  JesterLikeGenerator source(FleetWorkload());
  const LInfDistance function{Vector(kFleetBuckets)};
  const RuntimeConfig config = FleetConfig(source);
  std::vector<Vector> locals;
  source.Advance(&locals);
  for (auto _ : state) {
    RuntimeDriver driver(kFleetSites, function, config);
    driver.Initialize(locals);
    benchmark::DoNotOptimize(driver.coordinator().epoch());
  }
}
BENCHMARK(BM_RuntimeDriverInitialize)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sgm

BENCHMARK_MAIN();
