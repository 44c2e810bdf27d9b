#ifndef SGM_CORE_RNG_H_
#define SGM_CORE_RNG_H_

#include <cstdint>

namespace sgm {

/// Deterministic, fast pseudo-random generator (xoshiro256**).
///
/// Every stochastic component of the library — the dataset generators, the
/// fault injectors, the Monte-Carlo geometry estimators — draws from an
/// explicitly-seeded Rng, or hashes its key with MixBits below, so that
/// simulations and tests are bit-reproducible across runs and platforms. No
/// global RNG state exists anywhere in the library.
class Rng {
 public:
  /// Seeds the generator; distinct seeds give independent-looking streams
  /// (seed expansion via splitmix64).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Uniform integer in [0, bound); bound must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Standard normal deviate (Marsaglia polar method).
  double NextGaussian();

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Exponential deviate with rate `lambda` > 0.
  double NextExponential(double lambda);

  /// Derives an independent child generator; used to hand every simulated
  /// site its own stream so per-site randomness is order-independent.
  Rng Fork();

 private:
  std::uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// SplitMix64's counter increment, 2^64 divided by the golden ratio.
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64's output function (Steele, Lea and Flood, OOPSLA 2014), a
/// bijective 64-bit mixer: the one every seeded hash, stream and sampling
/// coin in the library calls.
inline std::uint64_t MixBits(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One SplitMix64 step: advances `*state` by the increment and returns the
/// mix of the new state.
inline std::uint64_t SplitMix64(std::uint64_t* state) {
  return MixBits(*state += kSplitMix64Gamma);
}

/// The top 53 bits of `bits` as a uniform double in [0, 1).
inline double UnitInterval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Derives an independent sub-seed from a master seed and a stream id
/// (splitmix64 over the pair). The deterministic-simulation components use
/// this to fan one replayable seed out into per-link / per-site / per-config
/// streams whose draws never interleave: consuming randomness on one stream
/// cannot shift another stream's sequence.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace sgm

#endif  // SGM_CORE_RNG_H_
