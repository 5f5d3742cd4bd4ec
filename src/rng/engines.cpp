#include "src/rng/engines.hpp"

#include "src/obs/metrics.hpp"

namespace recover::rng {
namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// Draw counters, registered at load time (no function-local static
// guard on the flush path).  Engines accumulate draws in a private
// member and flush every kDrawFlush draws / on destruction, so the
// per-draw cost is an increment on the engine's own cache line — no
// global load at all.  Per-draw granularity is what makes replica cost
// differences between rules/schedules visible in run records.
obs::Counter& g_xoshiro_draws =
    obs::Registry::global().counter("rng.xoshiro.draws");
obs::Counter& g_stream_seeds =
    obs::Registry::global().counter("rng.stream_seeds");

}  // namespace

Xoshiro256PlusPlus::Xoshiro256PlusPlus(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm();
}

Xoshiro256PlusPlus::~Xoshiro256PlusPlus() {
  g_xoshiro_draws.add(pending_draws_ & (detail::kDrawFlush - 1));
}

Xoshiro256PlusPlus::result_type Xoshiro256PlusPlus::operator()() {
  // Draw accounting stays on the engine's own cache line: a member
  // increment plus a never-taken branch, flushed to the global counter
  // every kDrawFlush draws and on destruction.
  if ((++pending_draws_ & (detail::kDrawFlush - 1)) == 0) {
    g_xoshiro_draws.add(detail::kDrawFlush);
  }
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256PlusPlus::fill(std::uint64_t* out, std::size_t count) {
  // The whole point of the block API: state stays in registers across
  // the loop instead of round-tripping through memory once per draw.
  std::uint64_t s0 = s_[0];
  std::uint64_t s1 = s_[1];
  std::uint64_t s2 = s_[2];
  std::uint64_t s3 = s_[3];
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = rotl(s0 + s3, 23) + s0;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
  }
  s_ = {s0, s1, s2, s3};
  account_draws(count);
}

void Xoshiro256PlusPlus::account_draws(std::uint64_t count) {
  // Whole kDrawFlush multiples reached within the block go to the global
  // counter now; the remainder stays pending (for the next flush or the
  // destructor), so the totals equal those of per-call accounting.
  const std::uint64_t before = pending_draws_ & (detail::kDrawFlush - 1);
  pending_draws_ += count;
  const std::uint64_t flushed =
      ((before + count) / detail::kDrawFlush) * detail::kDrawFlush;
  if (flushed != 0) g_xoshiro_draws.add(flushed);
}

void Xoshiro256PlusPlus::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (void)(*this)();
    }
  }
  s_ = {s0, s1, s2, s3};
}

std::uint64_t derive_stream_seed(std::uint64_t master_seed, std::uint64_t i) {
  g_stream_seeds.add();
  SplitMix64 sm(master_seed ^ (0xA24BAED4963EE407ULL + i * 0x9FB21C651E98DF25ULL));
  // Burn a few outputs so adjacent i values decorrelate fully.
  (void)sm();
  (void)sm();
  return sm();
}

std::uint64_t substream(std::uint64_t master_seed, std::uint64_t i) {
  g_stream_seeds.add();
  // Mix the master first so it occupies the full 64-bit space before the
  // stream index perturbs it; the golden-gamma multiple keeps adjacent
  // indices maximally far apart in SplitMix64's state sequence.
  SplitMix64 master(master_seed);
  const std::uint64_t mixed = master();
  SplitMix64 child(mixed ^ ((i + 1) * 0x9E3779B97F4A7C15ULL));
  (void)child();
  return child();
}

}  // namespace recover::rng
