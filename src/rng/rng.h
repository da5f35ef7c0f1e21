// Random number generation for the simulator.
//
// The paper's randomized caches depend on a low-overhead pseudo-random number
// generator of sufficient statistical quality (section 2.1, ref [3]: IEC-61508
// SIL-3 compliant PRNGs for probabilistic timing analysis).  We provide a
// small family of generators:
//
//  * SplitMix64      - seed mixing / seed derivation (also used stand-alone)
//  * XorShift64Star  - fast default generator for simulation decisions
//  * Pcg32           - higher-quality generator for statistics-sensitive code
//  * Lfsr16          - a Fibonacci LFSR, the kind of PRNG that actually fits
//                      in cache-controller hardware; exposed to let tests show
//                      both that it suffices for placement and what its
//                      16-bit period implies
//
// Design rules (C++ Core Guidelines I.2: avoid non-const global variables):
// no global generator exists anywhere in this codebase.  Every stochastic
// component receives an Rng explicitly, so whole experiments replay exactly
// from one master seed.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>

namespace tsc::rng {

/// Abstract generator interface.  Concrete generators are cheap value types;
/// the interface exists so caches/schedulers can hold "some generator" without
/// templating the whole simulator.
class Rng {
 public:
  virtual ~Rng() = default;

  /// Next 64 uniformly distributed bits.
  [[nodiscard]] virtual std::uint64_t next_u64() = 0;

  /// Reinstall `seed` exactly as the generator's constructor would: after
  /// reseed(s) the output stream is bit-identical to a fresh instance built
  /// with seed s.  This is what lets pooled machines (runner::MachinePool)
  /// replay the fresh-machine protocol without reconstructing anything.
  virtual void reseed(std::uint64_t seed) = 0;

  /// Human-readable generator name (for experiment logs).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Uniform integer in [0, bound).  Precondition: bound > 0.
  /// Uses rejection sampling, so the result is exactly uniform regardless of
  /// bound (important: replacement-way choice must not be biased, or random
  /// replacement itself becomes a side channel).
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) {
    assert(bound > 0);
    if ((bound & (bound - 1)) == 0) {  // power of two: mask is exact
      return next_u64() & (bound - 1);
    }
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
    for (;;) {
      const std::uint64_t v = next_u64();
      if (v < limit) return v % bound;
    }
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double() {
    // 53 random bits scaled; standard construction.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  [[nodiscard]] bool next_bool(double p = 0.5) { return next_double() < p; }
};

/// SplitMix64 (Vigna).  Used for seed derivation: one 64-bit state, every
/// output is a strong mix of the counter.  Passes through any 64-bit seed.
class SplitMix64 final : public Rng {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  void reseed(std::uint64_t seed) override { state_ = seed; }

  [[nodiscard]] std::uint64_t next_u64() override {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  [[nodiscard]] std::string name() const override { return "splitmix64"; }

 private:
  std::uint64_t state_;
};

/// xorshift64* (Marsaglia/Vigna): 3 shifts + 1 multiply; the simulator's
/// workhorse.  State must be nonzero; a zero seed is remapped.
class XorShift64Star final : public Rng {
 public:
  explicit XorShift64Star(std::uint64_t seed)
      : state_(seed != 0 ? seed : 0x853C49E6748FEA9BULL) {}

  void reseed(std::uint64_t seed) override {
    state_ = seed != 0 ? seed : 0x853C49E6748FEA9BULL;
  }

  [[nodiscard]] std::uint64_t next_u64() override {
    std::uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1DULL;
  }

  [[nodiscard]] std::string name() const override { return "xorshift64star"; }

 private:
  std::uint64_t state_;
};

/// PCG32 (O'Neill): 64-bit LCG state with output permutation; 32 bits/step.
class Pcg32 final : public Rng {
 public:
  explicit Pcg32(std::uint64_t seed, std::uint64_t stream = 0x14057B7EF767814FULL)
      : state_(0), inc_((stream << 1) | 1) {
    reseed(seed);
  }

  /// Reinstalls `seed` on the generator's existing stream (`inc_`).
  void reseed(std::uint64_t seed) override {
    state_ = 0;
    (void)step();
    state_ += seed;
    (void)step();
  }

  [[nodiscard]] std::uint64_t next_u64() override {
    const std::uint64_t hi = step();
    const std::uint64_t lo = step();
    return (hi << 32) | lo;
  }

  [[nodiscard]] std::string name() const override { return "pcg32"; }

 private:
  [[nodiscard]] std::uint32_t step() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
    const auto rot = static_cast<std::uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  std::uint64_t state_;
  std::uint64_t inc_;
};

/// 16-bit Fibonacci LFSR with taps 16,15,13,4 (maximal period 2^16-1).
/// This is the kind of generator a cache controller can afford: one shift
/// register and four XOR gates.  next_u64 concatenates four 16-bit steps.
class Lfsr16 final : public Rng {
 public:
  explicit Lfsr16(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed) override {
    state_ = static_cast<std::uint16_t>(seed != 0 ? seed : 0xACE1u);
    if (state_ == 0) state_ = 0xACE1u;
  }

  /// One hardware step: returns the new 16-bit register value.
  [[nodiscard]] std::uint16_t step() {
    const std::uint16_t bit = static_cast<std::uint16_t>(
        ((state_ >> 0) ^ (state_ >> 2) ^ (state_ >> 3) ^ (state_ >> 5)) & 1u);
    state_ = static_cast<std::uint16_t>((state_ >> 1) | (bit << 15));
    return state_;
  }

  [[nodiscard]] std::uint64_t next_u64() override {
    std::uint64_t out = 0;
    for (int i = 0; i < 4; ++i) out = (out << 16) | step();
    return out;
  }

  [[nodiscard]] std::string name() const override { return "lfsr16"; }

 private:
  std::uint16_t state_;
};

/// Derive a child seed from (master, tag).  Used to give each subsystem /
/// process / run its own independent stream without correlation: the paper's
/// seed hierarchy (per-SWC seeds, per-hyperperiod reseeds) is implemented on
/// top of this.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t master,
                                               std::uint64_t tag) {
  SplitMix64 mix(master ^ (tag * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL));
  (void)mix.next_u64();
  return mix.next_u64();
}

/// Generator kinds for configuration files / CLI.
enum class Kind { kSplitMix64, kXorShift64Star, kPcg32, kLfsr16 };

/// Factory: build a generator of the requested kind.
[[nodiscard]] inline std::unique_ptr<Rng> make_rng(Kind kind,
                                                   std::uint64_t seed) {
  switch (kind) {
    case Kind::kSplitMix64:
      return std::make_unique<SplitMix64>(seed);
    case Kind::kXorShift64Star:
      return std::make_unique<XorShift64Star>(seed);
    case Kind::kPcg32:
      return std::make_unique<Pcg32>(seed);
    case Kind::kLfsr16:
      return std::make_unique<Lfsr16>(seed);
  }
  return std::make_unique<XorShift64Star>(seed);
}

}  // namespace tsc::rng
