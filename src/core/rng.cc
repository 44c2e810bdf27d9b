#include "core/rng.h"

#include <cmath>

#include "core/check.h"

namespace sgm {

namespace {

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() { return UnitInterval(NextUint64()); }

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  SGM_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const std::uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = NextDouble(-1.0, 1.0);
    v = NextDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextExponential(double lambda) {
  SGM_CHECK(lambda > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -std::log(u) / lambda;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  // Two splitmix64 steps over (seed, stream): the first whitens the master
  // seed, the second folds in the stream id, so nearby (seed, stream) pairs
  // land on unrelated points of the sequence.
  std::uint64_t state = seed;
  const std::uint64_t whitened = SplitMix64(&state);
  state = whitened ^ (stream + kSplitMix64Gamma);
  return SplitMix64(&state);
}

}  // namespace sgm
