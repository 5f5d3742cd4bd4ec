// Random-number engines for simulation workloads.
//
// recoverlib uses two engines:
//  * SplitMix64  — seeding / stream derivation (64-bit state, equidistributed
//                  enough to expand one user seed into many stream keys).
//  * Xoshiro256PlusPlus — the generator on every simulation path.
//
// Per-replica streams stay reproducible regardless of scheduling because
// each one is seeded from substream(master, logical index) below.
//
// All engines satisfy std::uniform_random_bit_generator, so they compose
// with <random> where convenient; the distributions in distributions.hpp
// avoid modulo bias and are preferred on hot paths.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace recover::rng {

/// SplitMix64 (Steele, Lea, Flood 2014).  Used mainly to derive seeds.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

namespace detail {

/// Draws between flushes of a per-engine pending count into the global
/// obs counter.  Power of two: the flush test compiles to a mask +
/// never-taken branch, so draw accounting stays off the global bus —
/// no shared cache line is touched on the common path.
inline constexpr std::uint64_t kDrawFlush = 1u << 16;

}  // namespace detail

/// xoshiro256++ 1.0 (Blackman, Vigna 2019).
class Xoshiro256PlusPlus {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256PlusPlus(std::uint64_t seed);

  // Copies restart draw accounting at zero so every draw is flushed to
  // the global counter exactly once (by the engine that made it).
  Xoshiro256PlusPlus(const Xoshiro256PlusPlus& other) : s_(other.s_) {}
  Xoshiro256PlusPlus& operator=(const Xoshiro256PlusPlus& other) {
    s_ = other.s_;
    return *this;
  }
  ~Xoshiro256PlusPlus();

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()();

  /// Writes `count` consecutive outputs of operator() into `out`,
  /// leaving the engine in exactly the state `count` calls would.  The
  /// state lives in registers for the whole loop and draw accounting is
  /// amortized over the block, which is what makes the batched kernels
  /// (src/kernel/) faster than per-call draws.
  void fill(std::uint64_t* out, std::size_t count);

  /// Streams `groups` groups of G consecutive operator() outputs through
  /// `sink(group_index, words)` without a second pass over memory.
  /// Header-inline on purpose: the sink's work (store, map, reduce — see
  /// src/kernel/choice_block.hpp) fuses into the generation loop, where
  /// it executes under the recurrence's serial dependency chain instead
  /// of costing its own memory pass.  Leaves the engine in exactly the
  /// state `groups * G` operator() calls would.
  template <std::size_t G, typename Sink>
  void generate_groups(std::size_t groups, Sink&& sink) {
    static_assert(G >= 1);
    std::uint64_t s0 = s_[0];
    std::uint64_t s1 = s_[1];
    std::uint64_t s2 = s_[2];
    std::uint64_t s3 = s_[3];
    for (std::size_t g = 0; g < groups; ++g) {
      std::array<std::uint64_t, G> w;
      for (std::size_t k = 0; k < G; ++k) {  // unrolled: G is constexpr
        w[k] = std::rotl(s0 + s3, 23) + s0;
        const std::uint64_t t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = std::rotl(s3, 45);
      }
      sink(g, w);
    }
    s_ = {s0, s1, s2, s3};
    account_draws(groups * G);
  }

  /// Equivalent to 2^128 calls to operator(); yields non-overlapping
  /// subsequences for parallel streams.
  void jump();

 private:
  /// Folds a block of `count` draws into the draw accounting, preserving
  /// the exact flush totals of per-call accounting.
  void account_draws(std::uint64_t count);

  std::array<std::uint64_t, 4> s_;
  std::uint64_t pending_draws_ = 0;
};

/// Derives the i-th independent stream seed from a master seed.
std::uint64_t derive_stream_seed(std::uint64_t master_seed, std::uint64_t i);

/// SplitMix-style substream derivation: the seed of child stream `i` of
/// `master_seed`, a pure function of (master_seed, i) alone.  Callers
/// key `i` on a logical index (sweep cell index, replica index), never on
/// iteration order, so the derived streams are identical under any
/// thread count, schedule, shard split, or checkpoint resume.  Unlike
/// derive_stream_seed, the master seed is first mixed through SplitMix64
/// before the stream index is folded in, so structured master seeds
/// (0, 1, 2, ...) and structured indices cannot interact; substreams
/// nest safely: substream(substream(s, cell), trial).
std::uint64_t substream(std::uint64_t master_seed, std::uint64_t i);

}  // namespace recover::rng
