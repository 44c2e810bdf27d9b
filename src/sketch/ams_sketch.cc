#include "sketch/ams_sketch.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/rng.h"

namespace sgm {

// The hashes apply SplitMix64's mixer to (row seed ^ item); the values
// comfortably pass the four-wise-independence needs of AMS in practice.

AmsSketch::AmsSketch(int depth, int width, std::uint64_t seed)
    : depth_(depth),
      width_(width),
      counters_(static_cast<std::size_t>(depth) *
                static_cast<std::size_t>(width)) {
  SGM_CHECK_MSG(depth > 0 && width > 0, "sketch depth/width must be positive");
  row_seeds_.reserve(depth);
  std::uint64_t s = seed;
  for (int r = 0; r < depth; ++r) {
    s = MixBits(s + kSplitMix64Gamma);
    row_seeds_.push_back(s);
  }
}

double AmsSketch::Sign(int row, std::uint64_t item) const {
  return (MixBits(row_seeds_[row] ^ item) & 1ULL) ? 1.0 : -1.0;
}

int AmsSketch::Bucket(int row, std::uint64_t item) const {
  return static_cast<int>(MixBits((row_seeds_[row] + 0x51ULL) ^ item) %
                          static_cast<std::uint64_t>(width_));
}

void AmsSketch::Update(std::uint64_t item, double weight) {
  for (int r = 0; r < depth_; ++r) {
    counters_[static_cast<std::size_t>(r) * width_ + Bucket(r, item)] +=
        weight * Sign(r, item);
  }
}

double AmsSketch::SelfJoinFromCounters(const Vector& counters, int depth,
                                       int width) {
  SGM_CHECK(counters.dim() ==
            static_cast<std::size_t>(depth) * static_cast<std::size_t>(width));
  std::vector<double> row_estimates(depth);
  for (int r = 0; r < depth; ++r) {
    double sum = 0.0;
    for (int c = 0; c < width; ++c) {
      const double x = counters[static_cast<std::size_t>(r) * width + c];
      sum += x * x;
    }
    row_estimates[r] = sum;
  }
  std::nth_element(row_estimates.begin(),
                   row_estimates.begin() + depth / 2, row_estimates.end());
  return row_estimates[depth / 2];
}

double AmsSketch::SelfJoinEstimate() const {
  return SelfJoinFromCounters(counters_, depth_, width_);
}

double AmsSketch::JoinEstimate(const AmsSketch& other) const {
  SGM_CHECK(depth_ == other.depth_ && width_ == other.width_);
  std::vector<double> row_estimates(depth_);
  for (int r = 0; r < depth_; ++r) {
    double sum = 0.0;
    for (int c = 0; c < width_; ++c) {
      const std::size_t index = static_cast<std::size_t>(r) * width_ + c;
      sum += counters_[index] * other.counters_[index];
    }
    row_estimates[r] = sum;
  }
  std::nth_element(row_estimates.begin(),
                   row_estimates.begin() + depth_ / 2, row_estimates.end());
  return row_estimates[depth_ / 2];
}

}  // namespace sgm
