// Batched randomness primitives for the hot-path allocation kernels.
//
// The d-choice step is the inner loop under every experiment, sweep cell
// and serve request: draw one removal lead, draw d i.u.r. probes, take
// their running max (which under the normalized representation IS the
// ABKU[d] placement — see docs/THEORY.md §2).  The scalar path pays a
// non-inlined engine call, per-draw accounting and a Lemire mapping per
// word.  The batched kernel instead
//
//   1. pre-draws the raw words for a whole block of steps through the
//      engines' fill() API (state stays in registers, accounting is
//      amortized),
//   2. pre-maps the probe words to [0, n) and pre-reduces them to their
//      per-step max in a structure-of-arrays pass, and
//   3. lets the caller apply removals/insertions in a tight loop over
//      the precomputed selections.
//
// Byte-identity with the scalar path is non-negotiable (the repo's
// experiment records and golden tests depend on exact draw sequences),
// so the mapping is *conservative*: rng::uniform_below redraws a word
// with probability (2^64 mod bound)/2^64; lemire_map flags any word that
// might have been redrawn (probability bound/2^64 ≥ the true rejection
// probability).  On a flagged word the caller replays the remaining
// pre-drawn words through the exact scalar code path via ReplayEngine —
// same words, same order, same results, at scalar speed for the
// (astronomically rare) remainder of the burst.
//
// This header is a substrate like src/rng/: no dependency on balls/ or
// obs/, so the chain headers can use it without layering violations.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/util/assert.hpp"

namespace recover::kernel {

/// Steps drawn per batch.  256 steps at up to 8 words each keeps the raw
/// buffer at 16 KiB — comfortably inside L1d alongside the choice and
/// flag arrays — while amortizing the fill/accounting overhead ~250x.
inline constexpr std::size_t kBatchSteps = 256;

/// Largest probe count d the batched kernels handle; larger d (unused by
/// any experiment) falls back to the scalar path.
inline constexpr int kMaxBatchedProbes = 7;

/// Fills `out` with `count` raw 64-bit engine outputs, using the
/// engine's block API when it has one (Xoshiro256PlusPlus).
template <typename Engine>
void fill_raw(Engine& eng, std::uint64_t* out, std::size_t count) {
  if constexpr (requires { eng.fill(out, count); }) {
    eng.fill(out, count);
  } else {
    for (std::size_t i = 0; i < count; ++i) out[i] = eng();
  }
}

namespace detail {
/// Probe for Engine::generate_groups (see rng::Xoshiro256PlusPlus):
/// engines with the streaming API get the fused generate+map loop.
struct NullGroupSink {
  template <std::size_t G>
  void operator()(std::size_t, const std::array<std::uint64_t, G>&) const {}
};
}  // namespace detail

template <typename Engine>
concept GroupGenerator = requires(Engine& e, detail::NullGroupSink s) {
  e.template generate_groups<2>(std::size_t{0}, s);
};

/// Fast-path Lemire map of one raw word to [0, bound).  Sets `ok` false
/// when rng::uniform_below might have redrawn this word; whenever `ok`
/// is true the returned value equals the scalar result for this word.
inline std::uint64_t lemire_map(std::uint64_t x, std::uint64_t bound,
                                bool& ok) {
  RL_DBG_ASSERT(bound > 0);
  const auto m = static_cast<__uint128_t>(x) * bound;
  ok = static_cast<std::uint64_t>(m) >= bound;
  return static_cast<std::uint64_t>(m >> 64);
}

/// Engine adapter that serves buffered raw words first, then falls
/// through to the live engine.  The batched kernels' bail-out: replaying
/// already-drawn words through the scalar code path keeps results
/// byte-identical when a word cannot be mapped branch-free.
template <typename Engine>
class ReplayEngine {
 public:
  using result_type = std::uint64_t;

  ReplayEngine(Engine& eng, const std::uint64_t* words, std::size_t count)
      : eng_(&eng), words_(words), count_(count) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    return next_ < count_ ? words_[next_++] : (*eng_)();
  }

 private:
  Engine* eng_;
  const std::uint64_t* words_;
  std::size_t count_;
  std::size_t next_ = 0;
};

/// One block of pre-drawn d-choice randomness, structure-of-arrays: per
/// step, an optional raw lead word (the removal draw — left raw because
/// its bound may be state-dependent, e.g. scenario B's non-empty count)
/// followed by d probe words pre-mapped to [0, probe_bound) and
/// pre-reduced to their running max, the ABKU[d] selection.
class DChoiceBatch {
 public:
  /// Draws (leads_per_step + d) * steps words and precomputes the
  /// per-step selections.  steps ≤ kBatchSteps, 1 ≤ d ≤ kMaxBatchedProbes,
  /// leads_per_step ∈ {0, 1}.
  template <typename Engine>
  void fill(Engine& eng, std::uint64_t probe_bound, int d, std::size_t steps,
            int leads_per_step = 1) {
    RL_DBG_ASSERT(steps >= 1 && steps <= kBatchSteps);
    RL_DBG_ASSERT(d >= 1 && d <= kMaxBatchedProbes);
    RL_DBG_ASSERT(leads_per_step == 0 || leads_per_step == 1);
    RL_DBG_ASSERT(probe_bound > 0 && probe_bound < kUnsafeBit);
    steps_ = steps;
    lead_ = static_cast<std::size_t>(leads_per_step);
    stride_ = lead_ + static_cast<std::size_t>(d);
    // Two strategies, byte-identical by construction.  Engines with a
    // streaming API (Xoshiro) get the fused loop for d <= 4: the
    // map/reduce work executes under the recurrence's serial dependency
    // chain, so the whole batch costs little more than raw generation.
    // Larger d and other engines (SplitMix64, ReplayEngine in tests) take
    // a fill pass followed by a runtime-d map pass.
    if constexpr (GroupGenerator<Engine>) {
      if (leads_per_step == 1) {
        switch (d) {
          case 1: return fill_fused<1, 1>(eng, probe_bound);
          case 2: return fill_fused<2, 1>(eng, probe_bound);
          case 3: return fill_fused<3, 1>(eng, probe_bound);
          case 4: return fill_fused<4, 1>(eng, probe_bound);
          default: break;
        }
      } else {
        switch (d) {
          case 1: return fill_fused<1, 0>(eng, probe_bound);
          case 2: return fill_fused<2, 0>(eng, probe_bound);
          case 3: return fill_fused<3, 0>(eng, probe_bound);
          case 4: return fill_fused<4, 0>(eng, probe_bound);
          default: break;
        }
      }
    }
    fill_raw(eng, raw_.data(), steps * stride_);
    map_pass(probe_bound, static_cast<std::size_t>(d));
  }

  /// Raw (unmapped) lead word of step i.
  [[nodiscard]] std::uint64_t lead_raw(std::size_t i) const {
    RL_DBG_ASSERT(i < steps_ && lead_ == 1);
    return raw_[i * stride_];
  }

  /// Pre-reduced ABKU[d] selection of step i (valid iff !probe_unsafe(i)).
  [[nodiscard]] std::uint64_t choice(std::size_t i) const {
    RL_DBG_ASSERT(i < steps_);
    return choice_[i] >> 1;
  }

  /// True when step i's probe words are not provably rejection-free.
  [[nodiscard]] bool probe_unsafe(std::size_t i) const {
    RL_DBG_ASSERT(i < steps_);
    return (choice_[i] & 1) != 0;
  }

  [[nodiscard]] std::size_t steps() const { return steps_; }

  /// Scalar bail-out: an engine view that replays the pre-drawn words of
  /// steps [step, steps()) and then continues on the live engine.
  template <typename Engine>
  [[nodiscard]] ReplayEngine<Engine> replay_from(Engine& eng,
                                                 std::size_t step) const {
    RL_DBG_ASSERT(step < steps_);
    return ReplayEngine<Engine>(eng, raw_.data() + step * stride_,
                                (steps_ - step) * stride_);
  }

 private:
  // Selections and rejection flags share one array, flag in the low bit
  // (probe bounds are bin counts, far below 2^63, so the shifted max
  // cannot overflow).  One output stream per step — not just compaction:
  // with two streams GCC's loop distribution fissions the fused loop
  // below into two loops that each re-run the whole recurrence, which
  // costs more than the two-pass fallback.
  static constexpr std::uint64_t kUnsafeBit = std::uint64_t{1} << 63;

  /// Maps one step's D probe words to a packed selection: running max of
  /// the Lemire-mapped probes (shifted left by one), low bit set if any
  /// word might have been redrawn by the scalar path.  The flag is a
  /// byte-wide OR — unlike a 64-bit running min of the low halves it
  /// keeps no wide value alive across the muls, which matters for
  /// register pressure inside the fused loop.
  template <std::size_t D>
  static std::uint64_t map_step(const std::uint64_t* w,
                                std::uint64_t probe_bound) {
    std::uint64_t best = 0;
    bool unsafe = false;
    for (std::size_t k = 0; k < D; ++k) {  // unrolled: D is constexpr
      const auto m = static_cast<__uint128_t>(w[k]) * probe_bound;
      const auto hi = static_cast<std::uint64_t>(m >> 64);
      unsafe |= static_cast<std::uint64_t>(m) < probe_bound;
      best = hi > best ? hi : best;  // branchless running max
    }
    return (best << 1) | static_cast<std::uint64_t>(unsafe);
  }

  /// Fused generate+map+reduce for streaming engines: one group of
  /// D + L words per step flows straight from the recurrence (still in
  /// registers) through the Lemire map and the running max.  D is the
  /// compile-time probe count, L ∈ {0, 1} the leads per step.
  template <std::size_t D, std::size_t L, typename Engine>
  void fill_fused(Engine& eng, std::uint64_t probe_bound) {
    std::uint64_t* __restrict out = raw_.data();
    std::uint64_t* __restrict choice = choice_.data();
    eng.template generate_groups<D + L>(
        steps_, [&](std::size_t i, const std::array<std::uint64_t, D + L>& w) {
          for (std::size_t k = 0; k < D + L; ++k) out[k] = w[k];
          out += D + L;
          choice[i] = map_step<D>(w.data() + L, probe_bound);
        });
  }

  /// Two-pass map: raw words already in raw_, reduce each step's d
  /// probes to a packed selection exactly as map_step does.
  void map_pass(std::uint64_t probe_bound, std::size_t d) {
    const std::uint64_t* w = raw_.data() + lead_;
    for (std::size_t i = 0; i < steps_; ++i, w += stride_) {
      std::uint64_t best = 0;
      bool unsafe = false;
      for (std::size_t k = 0; k < d; ++k) {
        const auto m = static_cast<__uint128_t>(w[k]) * probe_bound;
        const auto hi = static_cast<std::uint64_t>(m >> 64);
        unsafe |= static_cast<std::uint64_t>(m) < probe_bound;
        best = hi > best ? hi : best;
      }
      choice_[i] = (best << 1) | static_cast<std::uint64_t>(unsafe);
    }
  }

  std::array<std::uint64_t,
             kBatchSteps*(1 + static_cast<std::size_t>(kMaxBatchedProbes))>
      raw_;
  std::array<std::uint64_t, kBatchSteps> choice_;
  std::size_t steps_ = 0;
  std::size_t lead_ = 0;
  std::size_t stride_ = 0;
};

}  // namespace recover::kernel
