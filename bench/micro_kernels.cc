// google-benchmark microbenchmarks of the library's hot kernels: the
// per-site per-cycle operations every protocol executes (drift norms, ball
// construction and threshold tests, sampling-probability evaluation,
// Horvitz–Thompson estimation, signed distances) plus the heavier geometric
// utilities (χ² certified enclosures and surface distances, hull
// projection), and the telemetry plane's per-cycle costs at fleet scale.

#include <cmath>
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
  Vector center = ref;
  center[3] += 2.0;
  const Ball ball(center, 1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.BallCrossesThreshold(ball, 5.0));
  }
}
BENCHMARK(BM_JdBallTest);

void BM_ChiSquareBallTest(benchmark::State& state) {
  const ChiSquare f(200.0);
  const Ball ball(Vector{6.0, 10.0, 40.0}, 3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.BallCrossesThreshold(ball, 0.5));
  }
}
BENCHMARK(BM_ChiSquareBallTest);

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

// The per-cycle metric publish of a warm fleet-like deployment: 2,048
// sites, Jester-like L∞ without global mood shifts, telemetry at rate 0.1.
void BM_RuntimeDriverPublishMetrics(benchmark::State& state) {
  constexpr int kSites = 2048;
  JesterLikeConfig workload;
  workload.num_sites = kSites;
  workload.window = 50;
  workload.num_buckets = 8;
  workload.shift_spacing = 1000000000;
  workload.seed = 101;
  JesterLikeGenerator source(workload);
  const LInfDistance function{Vector(workload.num_buckets)};
  Telemetry telemetry;
  RuntimeConfig config;
  config.threshold = 20.0;
  config.max_step_norm = source.max_step_norm();
  config.drift_norm_cap = source.max_drift_norm();
  config.seed = 202;
  config.telemetry = &telemetry;
  config.trace_sample_rate = 0.1;
  RuntimeDriver driver(kSites, function, config);
  std::vector<Vector> locals;
  source.Advance(&locals);
  driver.Initialize(locals);
  for (int t = 0; t < 50; ++t) {
    source.Advance(&locals);
    driver.Tick(locals);
  }
  for (auto _ : state) driver.PublishMetrics();
}
BENCHMARK(BM_RuntimeDriverPublishMetrics)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sgm

BENCHMARK_MAIN();
