#include "core/vector.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "estimators/sgm_rules.h"

namespace sgm {
namespace {

TEST(VectorTest, DefaultIsEmpty) {
  Vector v;
  EXPECT_EQ(v.dim(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(VectorTest, ZeroConstruction) {
  Vector v(4);
  EXPECT_EQ(v.dim(), 4u);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(v[j], 0.0);
}

TEST(VectorTest, FillConstruction) {
  Vector v(3, 2.5);
  EXPECT_EQ(v.Sum(), 7.5);
}

TEST(VectorTest, InitializerList) {
  Vector v{1.0, -2.0, 3.0};
  EXPECT_EQ(v.dim(), 3u);
  EXPECT_EQ(v[1], -2.0);
}

TEST(VectorTest, AdditionSubtraction) {
  Vector a{1.0, 2.0};
  Vector b{3.0, -1.0};
  Vector sum = a + b;
  EXPECT_EQ(sum, (Vector{4.0, 1.0}));
  Vector diff = a - b;
  EXPECT_EQ(diff, (Vector{-2.0, 3.0}));
}

TEST(VectorTest, ScalarOps) {
  Vector v{2.0, -4.0};
  EXPECT_EQ(v * 0.5, (Vector{1.0, -2.0}));
  EXPECT_EQ(0.5 * v, (Vector{1.0, -2.0}));
  EXPECT_EQ(v / 2.0, (Vector{1.0, -2.0}));
}

TEST(VectorTest, Axpy) {
  Vector v{1.0, 1.0};
  v.Axpy(2.0, Vector{1.0, -1.0});
  EXPECT_EQ(v, (Vector{3.0, -1.0}));
}

TEST(VectorTest, Norms) {
  Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(v.L1Norm(), 7.0);
  EXPECT_DOUBLE_EQ(v.LInfNorm(), 4.0);
}

TEST(VectorTest, DotAndDistance) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(a.Dot(b), 32.0);
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), std::sqrt(27.0));
  EXPECT_DOUBLE_EQ(a.DistanceTo(a), 0.0);
}

TEST(VectorTest, SetZeroKeepsDimension) {
  Vector v{1.0, 2.0};
  v.SetZero();
  EXPECT_EQ(v.dim(), 2u);
  EXPECT_EQ(v.Norm(), 0.0);
}

TEST(VectorTest, MeanAndSumOfVectors) {
  std::vector<Vector> vs = {Vector{1.0, 0.0}, Vector{3.0, 2.0},
                            Vector{2.0, 4.0}};
  EXPECT_EQ(Sum(vs), (Vector{6.0, 6.0}));
  EXPECT_EQ(Mean(vs), (Vector{2.0, 2.0}));
}

TEST(VectorTest, ToStringRendersCoordinates) {
  Vector v{1.5, -2.0};
  EXPECT_EQ(v.ToString(), "[1.5, -2]");
}

TEST(VectorTest, CauchySchwarzHolds) {
  Vector a{1.0, -2.0, 0.5, 4.0};
  Vector b{-3.0, 1.0, 2.0, 0.25};
  EXPECT_LE(std::abs(a.Dot(b)), a.Norm() * b.Norm() + 1e-12);
}

TEST(VectorTest, TriangleInequalityHolds) {
  Vector a{1.0, -2.0, 3.0};
  Vector b{0.5, 5.0, -1.0};
  EXPECT_LE((a + b).Norm(), a.Norm() + b.Norm() + 1e-12);
}

class NormOrderingTest : public ::testing::TestWithParam<int> {};

// ‖v‖_∞ ≤ ‖v‖₂ ≤ ‖v‖₁ ≤ √d‖v‖₂ for every dimension swept.
TEST_P(NormOrderingTest, StandardNormInequalities) {
  const int d = GetParam();
  Vector v(d);
  for (int j = 0; j < d; ++j) v[j] = (j % 2 == 0 ? 1.0 : -1.0) * (j + 0.5);
  EXPECT_LE(v.LInfNorm(), v.Norm() + 1e-12);
  EXPECT_LE(v.Norm(), v.L1Norm() + 1e-12);
  EXPECT_LE(v.L1Norm(), std::sqrt(static_cast<double>(d)) * v.Norm() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Dims, NormOrderingTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64));

// ── Inline storage: up to kInlineDims coordinates inside the object ────────

/// A vector of dimension `dim` whose coordinates all differ: base, base+1, ...
Vector Ramp(std::size_t dim, double base) {
  Vector v(dim);
  for (std::size_t j = 0; j < dim; ++j) v[j] = base + static_cast<double>(j);
  return v;
}

void ExpectRamp(const Vector& v, std::size_t dim, double base) {
  ASSERT_EQ(v.dim(), dim);
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_EQ(v[j], base + static_cast<double>(j)) << "coordinate " << j;
  }
}

class VectorStorageTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VectorStorageTest, ConstructsAndReadsEveryCoordinate) {
  const std::size_t dim = GetParam();
  const Vector zero(dim);
  EXPECT_EQ(zero.dim(), dim);
  EXPECT_EQ(zero.empty(), dim == 0);
  for (std::size_t j = 0; j < dim; ++j) EXPECT_EQ(zero[j], 0.0);
  const Vector filled(dim, -1.5);
  for (std::size_t j = 0; j < dim; ++j) EXPECT_EQ(filled[j], -1.5);
  EXPECT_EQ(filled.Sum(), -1.5 * static_cast<double>(dim));
  ExpectRamp(Ramp(dim, 3.0), dim, 3.0);
}

TEST_P(VectorStorageTest, CopiesAndMovesKeepTheCoordinates) {
  const std::size_t dim = GetParam();
  const Vector original = Ramp(dim, 1.0);
  Vector copy(original);
  ExpectRamp(copy, dim, 1.0);
  ExpectRamp(original, dim, 1.0);
  if (dim > 0) {
    copy[0] = -7.0;
    ExpectRamp(original, dim, 1.0);  // a deep copy, not a shared buffer
  }
  Vector moved(std::move(copy));
  EXPECT_EQ(moved.dim(), dim);
  EXPECT_EQ(copy.dim(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(copy.empty());
}

TEST_P(VectorStorageTest, BuildsFromAStdVector) {
  const std::size_t dim = GetParam();
  std::vector<double> coords(dim);
  for (std::size_t j = 0; j < dim; ++j) coords[j] = 2.0 + static_cast<double>(j);
  const Vector v(coords);
  ExpectRamp(v, dim, 2.0);
  EXPECT_EQ(coords.size(), dim);  // the source is copied, not taken
}

INSTANTIATE_TEST_SUITE_P(Dims, VectorStorageTest,
                         ::testing::Values(0, 1, Vector::kInlineDims,
                                           Vector::kInlineDims + 1, 64));

// Copy-assignment and move-assignment between every pair of the two
// storage kinds: inline (≤ kInlineDims coordinates) and heap (more).
class VectorAssignTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(VectorAssignTest, CopyAssignTakesTheSourceDimAndCoordinates) {
  const auto [from_dim, to_dim] = GetParam();
  const Vector source = Ramp(from_dim, 10.0);
  Vector target = Ramp(to_dim, -50.0);
  target = source;
  ExpectRamp(target, from_dim, 10.0);
  ExpectRamp(source, from_dim, 10.0);
  target[0] = 99.0;
  ExpectRamp(source, from_dim, 10.0);
  Vector again = Ramp(to_dim, 0.0);
  again = target;
  EXPECT_EQ(again, target);
}

TEST_P(VectorAssignTest, MoveAssignTakesTheCoordinatesAndEmptiesTheSource) {
  const auto [from_dim, to_dim] = GetParam();
  Vector source = Ramp(from_dim, 10.0);
  Vector target = Ramp(to_dim, -50.0);
  target = std::move(source);
  ExpectRamp(target, from_dim, 10.0);
  EXPECT_EQ(source.dim(), 0u);  // NOLINT(bugprone-use-after-move)
  // A moved-from vector is a usable empty vector.
  source = Ramp(to_dim, 4.0);
  ExpectRamp(source, to_dim, 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    InlineAndHeap, VectorAssignTest,
    ::testing::Values(std::make_pair(std::size_t{3}, std::size_t{5}),
                      std::make_pair(std::size_t{3}, std::size_t{20}),
                      std::make_pair(std::size_t{20}, std::size_t{3}),
                      std::make_pair(std::size_t{20}, std::size_t{64}),
                      std::make_pair(std::size_t{20}, std::size_t{20}),
                      std::make_pair(std::size_t{8}, std::size_t{9}),
                      std::make_pair(std::size_t{9}, std::size_t{8})));

// A heap vector assigned fewer coordinates keeps its block (as a std::vector
// keeps its capacity); copies and moves of it still carry exactly its
// coordinates.
TEST(VectorTest, ShrunkHeapVectorCopiesAndMoves) {
  Vector v = Ramp(20, 0.0);
  const Vector small = Ramp(3, 5.0);
  v = small;
  ExpectRamp(v, 3, 5.0);
  const Vector copy = v;
  ExpectRamp(copy, 3, 5.0);
  Vector moved(std::move(v));
  ExpectRamp(moved, 3, 5.0);
  EXPECT_EQ(v.dim(), 0u);  // NOLINT(bugprone-use-after-move)
  moved = Ramp(12, 1.0);   // grows past 8 again
  ExpectRamp(moved, 12, 1.0);
  v = moved;
  ExpectRamp(v, 12, 1.0);
}

TEST(VectorTest, SelfAssignmentKeepsTheCoordinates) {
  for (const std::size_t dim : {std::size_t{4}, std::size_t{32}}) {
    Vector v = Ramp(dim, 1.0);
    Vector& alias = v;
    v = alias;
    ExpectRamp(v, dim, 1.0);
    v = std::move(alias);
    ExpectRamp(v, dim, 1.0);
  }
}

TEST(VectorTest, EqualityComparesDimensionAndEveryCoordinate) {
  EXPECT_EQ(Vector(), Vector());
  EXPECT_EQ(Ramp(3, 1.0), Ramp(3, 1.0));
  EXPECT_EQ(Ramp(40, 1.0), Ramp(40, 1.0));
  EXPECT_FALSE(Ramp(3, 1.0) == Ramp(4, 1.0));
  EXPECT_FALSE(Ramp(9, 1.0) == Ramp(8, 1.0));
  Vector changed = Ramp(40, 1.0);
  changed[39] = 0.0;
  EXPECT_FALSE(changed == Ramp(40, 1.0));
  // Coordinate-wise double ==, as std::vector<double>'s: −0 equals +0, and a
  // NaN equals nothing.
  EXPECT_EQ(Vector({-0.0}), Vector({0.0}));
  const Vector nan{std::nan("")};
  EXPECT_FALSE(nan == nan);
}

// DriftAndNorm (estimators/sgm_rules.h) is the fused form of the copy, `-=`
// and Norm() the per-site pass used to make: the same doubles, bit for bit.
TEST(VectorTest, DriftAndNormEqualsCopySubtractNorm) {
  Rng rng(2024);
  Vector out;  // reused across dims, so most calls change its dimension
  for (std::size_t dim = 1; dim <= 64; ++dim) {
    for (int rep = 0; rep < 20; ++rep) {
      Vector local(dim), synced(dim);
      for (std::size_t j = 0; j < dim; ++j) {
        local[j] = rng.NextDouble(-1e3, 1e3);
        synced[j] = rng.NextDouble(-1e3, 1e3);
      }
      Vector expected = local;
      expected -= synced;
      const double expected_norm = expected.Norm();
      const double norm = DriftAndNorm(local, synced, &out);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(norm),
                std::bit_cast<std::uint64_t>(expected_norm))
          << "dim " << dim;
      ASSERT_EQ(out.dim(), dim);
      for (std::size_t j = 0; j < dim; ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                  std::bit_cast<std::uint64_t>(expected[j]))
            << "dim " << dim << ", coordinate " << j;
      }
    }
  }
}

}  // namespace
}  // namespace sgm
