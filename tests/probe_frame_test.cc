// Bit-identity of the probe enclosures (functions/monitored_function.h).
//
// The probing enclosures derive everything that depends only on the ball's
// center once per ProbeFrame, and χ²'s DistanceToSurface() bisects over one
// frame instead of rebuilding a single-ball enclosure at every radius. None
// of that may move a bit: the golden values below were captured, as hex
// floats, from the single-ball implementation that rebuilt f(c), ∇f(c) and
// the seeded probe directions on every call, and every protocol decision
// downstream (ball tests, ε_T, certified cooldowns) depends on them.

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "functions/chi_square.h"
#include "functions/cosine_similarity.h"
#include "functions/entropy.h"
#include "functions/mutual_information.h"
#include "functions/whitened_function.h"

namespace sgm {
namespace {

// Reaches the protected radius-search hook. Naming it through a class
// derived from MonitoredFunction yields a pointer to member that applies to
// any MonitoredFunction, and the call dispatches to the function's override.
class RadiusSearchAccess : public MonitoredFunction {
 public:
  static auto New(const MonitoredFunction& function, const Vector& center) {
    return (function.*&RadiusSearchAccess::NewRadiusSearch)(center);
  }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameInterval(const Interval& got, const Interval& want,
                        const std::string& where) {
  EXPECT_TRUE(SameBits(got.lo, want.lo))
      << where << ": lo " << std::hexfloat << got.lo << " vs " << want.lo;
  EXPECT_TRUE(SameBits(got.hi, want.hi))
      << where << ": hi " << std::hexfloat << got.hi << " vs " << want.hi;
}

struct BallGolden {
  Vector center;
  double radius;
  double lo;
  double hi;
  double gradient_norm_bound;
};

void ExpectBallGoldens(const MonitoredFunction& function,
                       const std::vector<BallGolden>& goldens) {
  for (const BallGolden& g : goldens) {
    const Ball ball(g.center, g.radius);
    const std::string where = function.name() + " at " + ball.ToString();
    ExpectSameInterval(function.RangeOverBall(ball), Interval{g.lo, g.hi},
                       where);
    const double bound = function.GradientNormBound(ball);
    EXPECT_TRUE(SameBits(bound, g.gradient_norm_bound))
        << where << ": gradient-norm bound " << std::hexfloat << bound
        << " vs " << g.gradient_norm_bound;
  }
}

// χ²: the quadratic prober with in-frame central differences; the
// gradient-norm prober likewise.
TEST(ProbeGoldenTest, ChiSquareBalls) {
  ExpectBallGoldens(ChiSquare(200.0), {
      {{6.0, 10.0, 40.0}, 3.0,
       -0x1.ba6da8f5bd599p-6, 0x1.61cb67125ce8ep-4, 0x1.3053100e0a874p-5},
      {{6.0, 10.0, 40.0}, 0.0,
       0x1.e65ff9a9db24fp-6, 0x1.e65ff9a9db24fp-6, 0x1.9291e4da22f9fp-6},
      {{-0.06, 3.25, 17.5}, 0.75,
       -0x1.2a5f217d31c58p-7, 0x1.c6a3290e9fbbp-5, 0x1.28b3ce214558p-4},
      {{0.0, 0.0, 0.0}, 1.0,
       0x1.6965c7e3a603cp-3, 0x1.91c4de89cb663p-1, 0x1.06d4b178074cfp-1},
      {{20.0, 1.0, 5.0}, 0.125,
       0x1.3d05677d8b77bp+0, 0x1.426d253f5c643p+0, 0x1.5908344775a25p-3},
      {{50.0, 20.0, 30.0}, 12.0,
       0x1.07eb9f46f6b5p-6, 0x1.9b5378b696676p-1, 0x1.0a54d73ce9d7fp-4},
      {{1.5, 80.0, 3.0}, 2.5,
       -0x1.d37ca9d80b2c6p-6, 0x1.d37e23b0d94e8p-6, 0x1.4bc109cd6e09dp-6},
      {{12.25, 12.25, 60.0}, 0.001,
       0x1.8eadfb316152dp-6, 0x1.8ef0a5b8737d3p-6, 0x1.04684d2b4fafep-6},
      {{100.0, -2.0, 50.0}, 7.0,
       0x1.26a89c1b3b1fp-2, 0x1.e1c2b296adb1ep-1, 0x1.41404b17eda39p-4},
      {{3.0, 3.0, 3.0}, 40.0,
       -0x1.270431c42318dp+3, 0x1.43dd9d900083bp+3, 0x1.0dc82a7ace761p-2},
      {{7.7, 0.3, 0.9}, 0.3,
       0x1.239ab83fe4bc6p+0, 0x1.4463ed6975bdap+0, 0x1.564bb605df7c2p-2},
      {{-1.5, -0.25, 22.0}, 1.75,
       -0x1.1abd4897118f3p-5, 0x1.16133375d8984p-3, 0x1.7284cb81105b1p-4},
  });
}

// Entropy: the quadratic prober over its own Gradient(); the default
// gradient-norm prober (8 probes, 1.5x).
TEST(ProbeGoldenTest, EntropyBalls) {
  ExpectBallGoldens(Entropy(), {
      {{1.0, 2.0, 3.0, 4.0}, 0.5,
       0x1.4228ddb344ca6p+0, 0x1.5e90208cff262p+0, 0x1.4c8c80e2ba94p-3},
      {{1.0, 2.0, 3.0, 4.0}, 0.0,
       0x1.505c7f2021f84p+0, 0x1.505c7f2021f84p+0, 0x1.c0da283cf3bp-4},
      {{5.0, 5.0, 5.0, 5.0}, 2.0,
       0x1.58b8b67bbf39fp+0, 0x1.6d0fa9638803fp+0, 0x1.e9fdb7829eacp-6},
      {{-0.06, 1.5, 7.25, 0.5}, 0.4,
       0x1.8dccaa6bc49f5p-1, 0x1.0ec4109f4fda6p+0, 0x1.ab6df2bf1286p-2},
      {{0.0, 0.0, 10.0, 0.0}, 1.0,
       -0x1.9fa62fa103a14p-3, 0x1.3b2c74a03d7bap+0, 0x1.34c99a8b0fae9p-1},
      {{12.0, 0.1, 3.3, 8.8}, 3.5,
       0x1.01a189e99614cp-2, 0x1.ec422042f0415p+0, 0x1.74ea87d0f086p-3},
      {{2.5, 2.5, 2.5, 9.0}, 0.01,
       0x1.3a0301892efafp+0, 0x1.3a560ca17b4ddp+0, 0x1.84c9b1530a917p-4},
      {{30.0, 1.0, 1.0, 1.0}, 6.0,
       -0x1.d98bcb8f5129p-1, 0x1.f9872ee2c39dap+0, 0x1.b36520ad4a50ap-3},
      {{-2.0, 4.0, -1.0, 6.0}, 1.25,
       0x1.6cef14f80a5p-1, 0x1.377bc8a442ccep+0, 0x1.c9dd8621805c6p-3},
      {{0.7, 0.9, 1.1, 1.3}, 0.2,
       0x1.5be60de866875p+0, 0x1.6428f9bc6ab23p+0, 0x1.dba6e2f2b3a22p-4},
      {{100.0, 50.0, 25.0, 12.5}, 10.0,
       0x1.e91bc5d4e1286p-1, 0x1.5465ad137ad3dp+0, 0x1.bbb730c8a0636p-6},
  });
}

// Cosine similarity: the quadratic prober clamped to [-1, 1]; the default
// gradient-norm prober.
TEST(ProbeGoldenTest, CosineSimilarityBalls) {
  ExpectBallGoldens(CosineSimilarity(4), {
      {{1.0, 0.0, 1.0, 0.0}, 0.1,
       0x1.f64afc016da5dp-1, 0x1p+0, 0x1.09a5382e7aa22p-2},
      {{1.0, 0.0, 1.0, 0.0}, 0.0, 0x1p+0, 0x1p+0, 0x0p+0},
      {{1.0, 2.0, 2.0, 1.0}, 0.5,
       0x1.0ff5a60efb11cp-1, 0x1p+0, 0x1.80b782cc30fd8p-1},
      {{-0.06, 1.0, 0.5, -0.3}, 0.2,
       -0x1p+0, -0x1.65135683b5734p-4, 0x1.a487a85aa1faap+1},
      {{3.0, -4.0, 4.0, 3.0}, 1.0,
       -0x1.5007d9ea6668cp-2, 0x1.5007d9ea6668cp-2, 0x1.e9057216f837cp-2},
      {{0.01, 0.02, 5.0, 5.0}, 0.005,
       0x1.a3e9e5b69f938p-1, 0x1p+0, 0x1.2b7b56b67141ep+5},
      {{10.0, 10.0, -10.0, -10.0}, 3.0,
       -0x1p+0, -0x1.d724d50969361p-1, 0x1.439d72747b44ep-5},
      {{0.5, 0.25, 0.125, 0.0625}, 0.05,
       0x1.b5a50edb6f588p-1, 0x1p+0, 0x1.16d508491e737p+2},
      {{2.0, 7.0, 1.0, 8.0}, 2.5,
       0x1.70297775492c2p-1, 0x1p+0, 0x1.504fa4857ae0bp-3},
      {{-3.0, -3.0, -3.0, 3.0}, 0.75,
       -0x1.26477dd0a9a11p-2, 0x1.26477dd0a9a11p-2, 0x1.1bb4d27188c6ap-1},
      {{6.0, 0.5, 0.5, 6.0}, 4.0, -0x1p+0, 0x1p+0, 0x1.74c2a3491202ep-1},
  });
}

// Mutual information: the default Lipschitz enclosure over its own
// gradient-norm prober (16 probes, 2x).
TEST(ProbeGoldenTest, MutualInformationBalls) {
  ExpectBallGoldens(MutualInformation(20.0, 10), {
      {{5.0, 3.0, 2.0}, 1.0,
       0x1.313d3d7997849p+1, 0x1.a83148e59d29fp+1, 0x1.dbd02db016955p-2},
      {{5.0, 3.0, 2.0}, 0.0,
       0x1.6cb7432f9a574p+1, 0x1.6cb7432f9a574p+1, 0x1.9118915080b2p-2},
      {{-0.06, 4.0, 1.5}, 0.3,
       -0x1.211f948491d65p+1, 0x1.1467780da5fc8p+2, 0x1.5ece0c97f1c11p+3},
      {{10.0, 1.0, 1.0}, 0.5,
       0x1.4f62ef2a22ae2p+1, 0x1.780b4373c3ceep+1, 0x1.4542a24d09064p-2},
      {{0.5, 0.5, 0.5}, 0.25,
       0x1.cb637d863a483p+1, 0x1.506e28a1a8e82p+2, 0x1.aaf1a77a2f103p+1},
      {{15.0, 12.0, 9.0}, 4.0,
       0x1.ee0b0ee24f25ep-1, 0x1.0a7d903b07334p+1, 0x1.1df59904e6d3ap-3},
      {{2.0, 0.0, 8.0}, 1.5,
       -0x1.62d0d5e2c9896p+0, 0x1.cfab1a88c0d5p+2, 0x1.703f8aaba224fp+1},
      {{7.5, 2.25, 0.75}, 0.05,
       0x1.703a6be9d92e6p+1, 0x1.74d261df7fb6ep+1, 0x1.6f7cdcc40aaa5p-2},
      {{1.0, -1.0, 3.0}, 2.0,
       -0x1.27204e654247ap+4, 0x1.9ff71ccab1ed2p+4, 0x1.638bb597fa1a6p+3},
      {{20.0, 20.0, 20.0}, 8.0,
       0x1.15ae3036bde0cp-3, 0x1.afe08ee7db7dp+0, 0x1.8d2ac8e103c0fp-4},
      {{3.3, 6.6, 9.9}, 0.001,
       0x1.9d2c45b07dd99p+0, 0x1.9d599b63dfc4dp+0, 0x1.622d896cfdb81p-2},
  });
}

struct DistanceGolden {
  Vector point;
  double threshold;
  double distance;
};

// χ² surface distances at Reuters-like averages (window 200) and the
// paper's thresholds. Every point but (1.5, 80, 3) reaches the bisection's
// fixed point (mid == lo or mid == hi) after 52–57 of its 60 steps, so the
// early stop is exercised everywhere else; (1.5, 80, 3), whose value is
// ~1e-7, runs all 60.
TEST(ProbeGoldenTest, ChiSquareDistanceToSurface) {
  const ChiSquare f(200.0);
  const std::vector<DistanceGolden> goldens = {
      {{6.0, 10.0, 40.0}, 0.5, 0x1.79c42222f6992p+3},
      {{-0.06, 3.25, 17.5}, 0.5, 0x1.8c1de7a96d9fcp+2},
      {{20.0, 1.0, 5.0}, 0.5, 0x1.3d6fbeebdfa24p+2},
      {{50.0, 20.0, 30.0}, 0.5, 0x1.bfed9b5adee2bp+1},
      {{1.5, 80.0, 3.0}, 0.5, 0x1.595c4135ecf3dp+4},
      {{12.25, 12.25, 60.0}, 0.5, 0x1.00b4932ea8081p+4},
      {{3.0, 3.0, 3.0}, 0.5, 0x1.8be31c43ffaf2p-2},
      {{7.7, 0.3, 0.9}, 0.5, 0x1.1f2ae9d21d5a6p+1},
      {{-1.5, -0.25, 22.0}, 0.5, 0x1.bcc5cfa490372p+2},
      {{25.0, 5.0, 25.0}, 0.5, 0x1.e5202ca962b41p+0},
      {{30.0, 30.0, 30.0}, 0.5, 0x1.b3120b8f0b2dcp+3},
      {{40.0, 2.0, 45.0}, 0.5, 0x1.5319a56de3383p+0},
      {{10.0, 10.0, 10.0}, 0.5, 0x1.19a68be5f7bfdp+1},
      {{4.0, 12.0, 70.0}, 0.5, 0x1.d2881853a9f42p+3},
      {{15.5, 0.5, 16.5}, 0.5, 0x1.05c83c5c178fdp+1},
      {{60.0, 10.0, 60.0}, 0.5, 0x1.f27d0428fcd04p+2},
      {{0.0, 0.0, 0.0}, 0.5, 0x1.057ef85edd839p-4},
      {{8.0, 2.0, 9.0}, 0.5, 0x1.129bb3c1010f6p+0},
      {{18.0, 6.0, 20.0}, 0.5, 0x1.4c22f067a9a66p-3},
      {{33.0, 0.0, 34.0}, 0.5, 0x1.2441c40aaf77p+2},
      {{5.0, 30.0, 5.0}, 0.5, 0x1.d40f68b2881bdp+2},
      {{45.0, 45.0, 45.0}, 0.5, 0x1.aa9052010ba15p+4},
      {{6.0, 10.0, 40.0}, 1.0, 0x1.65e354bd9fe9p+4},
      {{-0.06, 3.25, 17.5}, 1.0, 0x1.4e37cb5b85891p+3},
      {{20.0, 1.0, 5.0}, 1.0, 0x1.b5c0a532132bep+0},
      {{50.0, 20.0, 30.0}, 1.0, 0x1.ff0f91fdebbeap+3},
      {{1.5, 80.0, 3.0}, 1.0, 0x1.1adf22bdc2d93p+5},
      {{12.25, 12.25, 60.0}, 1.0, 0x1.1e3613b45998p+5},
      {{3.0, 3.0, 3.0}, 1.0, 0x1.755112794b811p+1},
      {{7.7, 0.3, 0.9}, 1.0, 0x1.7e60840211626p-1},
      {{-1.5, -0.25, 22.0}, 1.0, 0x1.9a4cbc24f6b84p+3},
      {{25.0, 5.0, 25.0}, 1.0, 0x1.8969b3838e9b1p+2},
      {{30.0, 30.0, 30.0}, 1.0, 0x1.75324239c5ecfp+4},
      {{40.0, 2.0, 45.0}, 1.0, 0x1.de2589252d1bcp+2},
      {{10.0, 10.0, 10.0}, 1.0, 0x1.f149e66bef077p+2},
      {{4.0, 12.0, 70.0}, 1.0, 0x1.ceddb472f24e1p+4},
      {{15.5, 0.5, 16.5}, 1.0, 0x1.2d3811f75fd4cp+1},
      {{60.0, 10.0, 60.0}, 1.0, 0x1.27b79fbe004bcp+4},
      {{0.0, 0.0, 0.0}, 1.0, 0x1.b53a9b99ee5c6p+0},
      {{8.0, 2.0, 9.0}, 1.0, 0x1.7982c678fad9bp+1},
      {{18.0, 6.0, 20.0}, 1.0, 0x1.ba3a5fedd2578p+2},
      {{33.0, 0.0, 34.0}, 1.0, 0x1.a85b104b43352p+2},
      {{5.0, 30.0, 5.0}, 1.0, 0x1.0259ed1f7f656p+4},
      {{45.0, 45.0, 45.0}, 1.0, 0x1.2953e9c0d4fe3p+5},
  };
  for (const DistanceGolden& g : goldens) {
    const double distance = f.DistanceToSurface(g.point, g.threshold);
    EXPECT_TRUE(SameBits(distance, g.distance))
        << g.point.ToString() << " T=" << g.threshold << ": "
        << std::hexfloat << distance << " vs " << g.distance;
  }
}

// The χ² radius-search object is the single-ball enclosure, radius by
// radius, at seeded random centers (some coordinates negative) and radii at
// zero, inside, across and far beyond the threshold crossing, asked in an
// order that revisits radii.
TEST(ProbeFrameTest, ChiSquareRadiusSearchMatchesRangeOverBall) {
  const ChiSquare f(200.0);
  Rng rng(20260417);
  for (int trial = 0; trial < 60; ++trial) {
    Vector center{rng.NextDouble(-0.5, 30.0), rng.NextDouble(-0.5, 40.0),
                  rng.NextDouble(-0.5, 80.0)};
    if (trial % 4 == 0) center[trial % 3] = -rng.NextDouble(0.0, 0.2);
    const double threshold = trial % 2 == 0 ? 0.5 : 1.0;
    const double crossing = f.DistanceToSurface(center, threshold);
    std::vector<double> radii = {0.0,
                                 0.5 * crossing,
                                 crossing,
                                 std::nextafter(crossing, 0.0),
                                 std::nextafter(crossing, 1e300),
                                 2.0 * crossing,
                                 rng.NextDouble(0.0, 50.0),
                                 0.5 * crossing,
                                 0.0};
    const auto search = RadiusSearchAccess::New(f, center);
    for (double r : radii) {
      ExpectSameInterval(search->At(r), f.RangeOverBall(Ball(center, r)),
                         "chi2 at " + center.ToString() + " r=" +
                             std::to_string(r));
    }
  }
}

// A function without a radius-search override gets the default one: a
// fresh RangeOverBall() per radius.
TEST(ProbeFrameTest, DefaultRadiusSearchIsRangeOverBall) {
  const MutualInformation mi(20.0, 10);
  const WhitenedFunction whitened(std::make_unique<ChiSquare>(200.0),
                                  Vector{0.5, 2.0, 1.0});
  const Vector center{5.0, -0.06, 2.0};
  for (const MonitoredFunction* f :
       std::vector<const MonitoredFunction*>{&mi, &whitened}) {
    const auto search = RadiusSearchAccess::New(*f, center);
    for (double r : {0.0, 0.25, 3.0, 0.25}) {
      ExpectSameInterval(search->At(r), f->RangeOverBall(Ball(center, r)),
                         f->name());
    }
  }
}

// The probe seed is a deterministic function of the center for every
// double: negative coordinates, coordinates whose scaled value lies outside
// both the int64 and the uint64 range, and NaN. Under
// SGM_SANITIZE=undefined (which includes float-cast-overflow) this also
// checks that no conversion in the seed is undefined.
TEST(ProbeFrameTest, ProbeSeedIsDefinedForEveryCenter) {
  const ChiSquare f(200.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Vector> centers = {
      {-0.06, 3.0, 17.0}, {-1e30, 3.0, 17.0}, {1e30, 3.0, 17.0},
      {6.0, nan, 40.0},   {-1e13, 2e13, 40.0},
  };
  for (const Vector& center : centers) {
    const Ball ball(center, 1.5);
    ExpectSameInterval(f.RangeOverBall(ball), f.RangeOverBall(ball),
                       center.ToString());
    const double bound = f.GradientNormBound(ball);
    EXPECT_TRUE(SameBits(bound, f.GradientNormBound(ball)))
        << center.ToString();
  }
}

}  // namespace
}  // namespace sgm
