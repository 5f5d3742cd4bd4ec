// Byte-identity and faithfulness tests for the batched kernels
// (src/kernel/).  The contract under test: the scalar and batched paths
// (forced in-process with kernel::set_mode) consume the engine
// word-for-word identically, so every chain/coupling trajectory, sweep
// cell, checkpoint record and coalescence trial is byte-identical across
// paths, batch boundaries, engines and thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/balls/grand_coupling.hpp"
#include "src/balls/load_vector.hpp"
#include "src/balls/rules.hpp"
#include "src/balls/scenario_a.hpp"
#include "src/balls/scenario_b.hpp"
#include "src/certify/check.hpp"
#include "src/certify/model.hpp"
#include "src/certify/properties.hpp"
#include "src/core/coalescence.hpp"
#include "src/kernel/choice_block.hpp"
#include "src/kernel/kernel.hpp"
#include "src/obs/metrics.hpp"
#include "src/rng/distributions.hpp"
#include "src/rng/engines.hpp"
#include "src/sweep/checkpoint.hpp"
#include "src/sweep/grid.hpp"
#include "src/sweep/registry.hpp"
#include "src/sweep/scheduler.hpp"

namespace recover::kernel {
namespace {

using balls::AbkuRule;
using balls::GrandCouplingA;
using balls::GrandCouplingB;
using balls::LoadVector;
using balls::ScenarioAChain;
using balls::ScenarioBChain;

TEST(KernelMode, SetModeReturnsPrevious) {
  const Mode initial = mode();
  const Mode prev = set_mode(Mode::kScalar);
  EXPECT_EQ(prev, initial);
  EXPECT_EQ(mode(), Mode::kScalar);
  set_mode(Mode::kBatched);
  EXPECT_EQ(mode(), Mode::kBatched);
  set_mode(initial);
}

TEST(KernelMode, ScopedModeRestoresPrevious) {
  const Mode initial = mode();
  {
    const ScopedMode scalar(Mode::kScalar);
    EXPECT_EQ(mode(), Mode::kScalar);
    {
      const ScopedMode batched(Mode::kBatched);
      EXPECT_EQ(mode(), Mode::kBatched);
    }
    EXPECT_EQ(mode(), Mode::kScalar);
  }
  EXPECT_EQ(mode(), initial);
}

// ---------------------------------------------------------------------------
// Engine block APIs: fill() and generate_groups() must equal serial
// operator() draws, including the state left behind for subsequent
// draws.

TEST(EngineFill, XoshiroMatchesSerialDraws) {
  const std::uint64_t seed = certify::test_master_seed(12345);
  SCOPED_TRACE(certify::seed_banner(seed));
  for (const int predraws : {0, 1, 3}) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{7},
                                    std::size_t{8}, std::size_t{9},
                                    std::size_t{64}, std::size_t{257},
                                    std::size_t{1000}}) {
      rng::Xoshiro256PlusPlus filled(seed);
      rng::Xoshiro256PlusPlus serial(seed);
      for (int k = 0; k < predraws; ++k) {
        ASSERT_EQ(filled(), serial());
      }
      std::vector<std::uint64_t> out(count);
      filled.fill(out.data(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], serial()) << "word " << i << " of " << count
                                    << " after " << predraws << " predraws";
      }
      // The engines must also agree on everything drawn afterwards.
      for (int k = 0; k < 5; ++k) {
        ASSERT_EQ(filled(), serial());
      }
    }
  }
}

TEST(EngineFill, XoshiroGenerateGroupsMatchesSerialDraws) {
  rng::Xoshiro256PlusPlus grouped(99);
  rng::Xoshiro256PlusPlus serial(99);
  std::vector<std::uint64_t> words;
  grouped.generate_groups<3>(
      100, [&](std::size_t, const std::array<std::uint64_t, 3>& w) {
        words.insert(words.end(), w.begin(), w.end());
      });
  ASSERT_EQ(words.size(), 300u);
  for (const std::uint64_t w : words) {
    ASSERT_EQ(w, serial());
  }
  for (int k = 0; k < 5; ++k) {
    ASSERT_EQ(grouped(), serial());
  }
}

// ---------------------------------------------------------------------------
// DChoiceBatch: the precomputed selections must equal what the scalar
// path computes from the same raw words, with a conservative unsafe
// flag (a superset of the scalar redraw events).

template <typename Engine>
void expect_batch_matches_scalar(std::uint64_t seed, std::uint64_t bound,
                                 int d, std::size_t steps, int leads) {
  Engine eng(seed);
  Engine twin(seed);
  DChoiceBatch batch;
  batch.fill(eng, bound, d, steps, leads);

  const std::size_t stride =
      static_cast<std::size_t>(leads) + static_cast<std::size_t>(d);
  std::vector<std::uint64_t> words(steps * stride);
  fill_raw(twin, words.data(), words.size());
  // Both consumed the same word count: subsequent draws agree.
  ASSERT_EQ(eng(), twin());

  for (std::size_t i = 0; i < steps; ++i) {
    const std::uint64_t* step_words = words.data() + i * stride;
    if (leads == 1) {
      ASSERT_EQ(batch.lead_raw(i), step_words[0]) << "step " << i;
    }
    // Recompute the packed selection from first principles.
    std::uint64_t best = 0;
    bool any_flagged = false;
    for (int k = 0; k < d; ++k) {
      const auto w = step_words[leads + k];
      const auto m = static_cast<__uint128_t>(w) * bound;
      best = std::max(best, static_cast<std::uint64_t>(m >> 64));
      any_flagged |= static_cast<std::uint64_t>(m) < bound;
      // Conservative flag: every word the scalar path would actually
      // redraw ((uint64)m below 2^64 mod bound <= bound) is flagged.
      if (static_cast<std::uint64_t>(m) < (0 - bound) % bound) {
        ASSERT_TRUE(static_cast<std::uint64_t>(m) < bound);
      }
    }
    ASSERT_EQ(batch.probe_unsafe(i), any_flagged) << "step " << i;
    if (!any_flagged) {
      ASSERT_EQ(batch.choice(i), best) << "step " << i;
      ASSERT_LT(batch.choice(i), bound);
      // And the scalar reduction over the very same words agrees.
      Engine unused(seed + 1);
      ReplayEngine<Engine> replay(unused, step_words + leads,
                                  static_cast<std::size_t>(d));
      ASSERT_EQ(batch.choice(i), rng::max_of_d_uniform(replay, bound, d));
    }
  }
}

TEST(DChoiceBatch, MatchesScalarXoshiroFusedPath) {
  // Xoshiro has generate_groups, so d <= 4 takes the fused loop.
  const std::uint64_t seed = certify::test_master_seed(7);
  SCOPED_TRACE(certify::seed_banner(seed));
  for (const int d : {1, 2, 3, 4}) {
    expect_batch_matches_scalar<rng::Xoshiro256PlusPlus>(seed, 1024, d,
                                                         kBatchSteps, 1);
    expect_batch_matches_scalar<rng::Xoshiro256PlusPlus>(seed, 1024, d, 5, 0);
  }
}

TEST(DChoiceBatch, MatchesScalarTwoPassPath) {
  // SplitMix64 has no generate_groups: fill_raw + map_pass.
  const std::uint64_t seed = certify::test_master_seed(11);
  SCOPED_TRACE(certify::seed_banner(seed));
  for (const int d : {1, 2, 4}) {
    expect_batch_matches_scalar<rng::SplitMix64>(seed, 1 << 14, d,
                                                 kBatchSteps, 1);
  }
}

TEST(DChoiceBatch, RuntimeDFallbackMatchesScalar) {
  // d in (4, kMaxBatchedProbes] takes the map pass on every engine.
  const std::uint64_t seed = certify::test_master_seed(13);
  SCOPED_TRACE(certify::seed_banner(seed));
  for (const int d : {5, 6, 7}) {
    expect_batch_matches_scalar<rng::Xoshiro256PlusPlus>(seed, 4096, d, 100,
                                                         1);
    expect_batch_matches_scalar<rng::SplitMix64>(seed, 4096, d, 100, 1);
  }
}

TEST(DChoiceBatch, BatchBoundarySizes) {
  const std::uint64_t seed = certify::test_master_seed(17);
  SCOPED_TRACE(certify::seed_banner(seed));
  for (const std::size_t steps :
       {std::size_t{1}, std::size_t{2}, kBatchSteps - 1, kBatchSteps}) {
    expect_batch_matches_scalar<rng::Xoshiro256PlusPlus>(seed, 1024, 2, steps,
                                                         1);
  }
}

TEST(DChoiceBatch, ConservativeFlagFiresOnLargeBounds) {
  // bound / 2^64 ~ 1/4: among 256 * 2 probe words, flagged steps are
  // essentially certain, exercising the unsafe path deterministically.
  const std::uint64_t bound = (std::uint64_t{1} << 62) + 12345;
  rng::Xoshiro256PlusPlus eng(23);
  DChoiceBatch batch;
  batch.fill(eng, bound, 2, kBatchSteps, 1);
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < batch.steps(); ++i) {
    flagged += batch.probe_unsafe(i) ? 1u : 0u;
  }
  EXPECT_GT(flagged, 0u);
  EXPECT_LT(flagged, batch.steps());  // and most steps stay on the fast path
  expect_batch_matches_scalar<rng::Xoshiro256PlusPlus>(23, bound, 2,
                                                       kBatchSteps, 1);
}

TEST(DChoiceBatch, ReplayEngineServesBufferedWordsThenLive) {
  const std::uint64_t words[] = {5, 6, 7};
  rng::Xoshiro256PlusPlus live(31);
  rng::Xoshiro256PlusPlus twin(31);
  ReplayEngine<rng::Xoshiro256PlusPlus> replay(live, words, 3);
  EXPECT_EQ(replay(), 5u);
  EXPECT_EQ(replay(), 6u);
  EXPECT_EQ(replay(), 7u);
  EXPECT_EQ(replay(), twin());  // falls through to the live engine
  EXPECT_EQ(replay(), twin());
}

TEST(DChoiceBatch, ReplayFromMidBatchYieldsRemainingWords) {
  rng::Xoshiro256PlusPlus eng(37);
  rng::Xoshiro256PlusPlus twin(37);
  DChoiceBatch batch;
  batch.fill(eng, 1024, 2, 10, 1);  // 30 words
  std::vector<std::uint64_t> words(30);
  fill_raw(twin, words.data(), words.size());
  auto replay = batch.replay_from(eng, 4);  // words 12..29, then live
  for (std::size_t i = 12; i < 30; ++i) {
    ASSERT_EQ(replay(), words[i]);
  }
  ASSERT_EQ(replay(), twin());
}

// ---------------------------------------------------------------------------
// Chain and coupling byte-identity across modes: same seed, same steps
// => same state AND same next engine output (proving both paths
// consumed exactly the same number of words).

template <typename Chain, typename Engine>
void expect_chain_identical_across_modes(Chain scalar_chain,
                                         Chain batched_chain,
                                         std::uint64_t seed,
                                         std::int64_t steps) {
  Engine scalar_eng(seed);
  Engine batched_eng(seed);
  {
    const ScopedMode scoped(Mode::kScalar);
    advance(scalar_chain, scalar_eng, steps);
  }
  {
    const ScopedMode scoped(Mode::kBatched);
    advance(batched_chain, batched_eng, steps);
  }
  ASSERT_EQ(scalar_chain.state().loads(), batched_chain.state().loads())
      << "steps=" << steps;
  ASSERT_EQ(scalar_eng(), batched_eng()) << "steps=" << steps;
}

TEST(ChainByteIdentity, ScenarioAAcrossModesAndBatchBoundaries) {
  // 1 and 7 stay scalar (< kMinBatchSteps) even in batched mode; the
  // rest cross none, one, or several kBatchSteps block boundaries with
  // partial final blocks.
  const std::uint64_t seed = certify::test_master_seed(41);
  SCOPED_TRACE(certify::seed_banner(seed));
  for (const std::int64_t steps :
       {std::int64_t{1}, std::int64_t{7}, std::int64_t{8},
        static_cast<std::int64_t>(kBatchSteps) - 1,
        static_cast<std::int64_t>(kBatchSteps),
        static_cast<std::int64_t>(kBatchSteps) + 1,
        2 * static_cast<std::int64_t>(kBatchSteps) + 7}) {
    expect_chain_identical_across_modes<ScenarioAChain<AbkuRule>,
                                        rng::Xoshiro256PlusPlus>(
        {LoadVector::all_in_one(64, 256), AbkuRule(2)},
        {LoadVector::all_in_one(64, 256), AbkuRule(2)}, seed, steps);
  }
}

TEST(ChainByteIdentity, ScenarioBAcrossModes) {
  const std::uint64_t seed = certify::test_master_seed(43);
  SCOPED_TRACE(certify::seed_banner(seed));
  for (const std::int64_t steps :
       {std::int64_t{9}, static_cast<std::int64_t>(kBatchSteps) + 3}) {
    expect_chain_identical_across_modes<ScenarioBChain<AbkuRule>,
                                        rng::Xoshiro256PlusPlus>(
        {LoadVector::all_in_one(32, 100), AbkuRule(3)},
        {LoadVector::all_in_one(32, 100), AbkuRule(3)}, seed, steps);
  }
}

TEST(ChainByteIdentity, ScenarioBSingleBallBoundary) {
  // m = 1 makes the state-dependent removal bound s = 1 on every step.
  const std::uint64_t seed = certify::test_master_seed(47);
  SCOPED_TRACE(certify::seed_banner(seed));
  expect_chain_identical_across_modes<ScenarioBChain<AbkuRule>,
                                      rng::Xoshiro256PlusPlus>(
      {LoadVector::all_in_one(4, 1), AbkuRule(2)},
      {LoadVector::all_in_one(4, 1), AbkuRule(2)}, seed, 500);
}

TEST(ChainByteIdentity, NonStreamingEngineTakesTwoPassPath) {
  const std::uint64_t seed = certify::test_master_seed(53);
  SCOPED_TRACE(certify::seed_banner(seed));
  expect_chain_identical_across_modes<ScenarioAChain<AbkuRule>,
                                      rng::SplitMix64>(
      {LoadVector::all_in_one(64, 256), AbkuRule(2)},
      {LoadVector::all_in_one(64, 256), AbkuRule(2)}, seed,
      static_cast<std::int64_t>(kBatchSteps) + 9);
}

TEST(ChainByteIdentity, HighDFallsBackToScalarLoop) {
  // d > kMaxBatchedProbes: step_block itself must take the scalar loop.
  const std::uint64_t seed = certify::test_master_seed(59);
  SCOPED_TRACE(certify::seed_banner(seed));
  expect_chain_identical_across_modes<ScenarioAChain<AbkuRule>,
                                      rng::Xoshiro256PlusPlus>(
      {LoadVector::all_in_one(64, 256), AbkuRule(kMaxBatchedProbes + 1)},
      {LoadVector::all_in_one(64, 256), AbkuRule(kMaxBatchedProbes + 1)},
      seed, 300);
}

template <typename Coupling, typename Engine>
void expect_coupling_identical_across_modes(Coupling scalar_c,
                                            Coupling batched_c,
                                            std::uint64_t seed,
                                            std::int64_t steps) {
  Engine scalar_eng(seed);
  Engine batched_eng(seed);
  {
    const ScopedMode scoped(Mode::kScalar);
    advance(scalar_c, scalar_eng, steps);
  }
  {
    const ScopedMode scoped(Mode::kBatched);
    advance(batched_c, batched_eng, steps);
  }
  ASSERT_EQ(scalar_c.coalesced(), batched_c.coalesced());
  ASSERT_EQ(scalar_c.distance(), batched_c.distance());
  ASSERT_EQ(scalar_eng(), batched_eng());
}

TEST(CouplingByteIdentity, GrandCouplingAAcrossModes) {
  const auto x = LoadVector::all_in_one(32, 96);
  const auto y = LoadVector::balanced(32, 96);
  const std::uint64_t seed = certify::test_master_seed(61);
  SCOPED_TRACE(certify::seed_banner(seed));
  for (const std::int64_t steps :
       {std::int64_t{50}, static_cast<std::int64_t>(kBatchSteps) + 11}) {
    expect_coupling_identical_across_modes<GrandCouplingA<AbkuRule>,
                                           rng::Xoshiro256PlusPlus>(
        {x, y, AbkuRule(2)}, {x, y, AbkuRule(2)}, seed, steps);
  }
}

TEST(CouplingByteIdentity, GrandCouplingBAcrossModes) {
  const auto x = LoadVector::all_in_one(32, 96);
  const auto y = LoadVector::balanced(32, 96);
  const std::uint64_t seed = certify::test_master_seed(67);
  SCOPED_TRACE(certify::seed_banner(seed));
  expect_coupling_identical_across_modes<GrandCouplingB<AbkuRule>,
                                         rng::Xoshiro256PlusPlus>(
      {x, y, AbkuRule(2)}, {x, y, AbkuRule(2)}, seed,
      static_cast<std::int64_t>(kBatchSteps) + 13);
}

TEST(CouplingFaithfulness, EqualCopiesStayEqualUnderBatchedAdvance) {
  // The grand coupling's defining property: once the copies meet they
  // share every draw, so they can never separate.  The batched path
  // must preserve this exactly (it shares one choice block per step).
  const ScopedMode scoped(Mode::kBatched);
  const auto v = LoadVector::all_in_one(16, 48);
  GrandCouplingA<AbkuRule> coupling(v, v, AbkuRule(2));
  rng::Xoshiro256PlusPlus eng(71);
  for (int burst = 0; burst < 8; ++burst) {
    advance(coupling, eng, 200);
    ASSERT_TRUE(coupling.coalesced()) << "burst " << burst;
    ASSERT_EQ(coupling.distance(), 0);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: coalescence trials — the measurement everything above
// feeds — identical across modes and thread counts.

std::vector<std::int64_t> coalescence_times(Mode m, bool parallel) {
  const ScopedMode scoped(m);
  core::CoalescenceOptions options;
  options.replicas = 8;
  options.seed = 404;
  options.max_steps = 20'000;
  options.check_interval = 64;
  options.parallel = parallel;
  return core::run_coalescence_trials(
      [](std::uint64_t) {
        return GrandCouplingA<AbkuRule>(LoadVector::all_in_one(16, 32),
                                        LoadVector::balanced(16, 32),
                                        AbkuRule(2));
      },
      options);
}

TEST(CoalescenceByteIdentity, TrialsIdenticalAcrossModesAndThreadCounts) {
  const auto scalar_serial = coalescence_times(Mode::kScalar, false);
  const auto scalar_parallel = coalescence_times(Mode::kScalar, true);
  const auto batched_serial = coalescence_times(Mode::kBatched, false);
  const auto batched_parallel = coalescence_times(Mode::kBatched, true);
  EXPECT_EQ(scalar_serial, scalar_parallel);
  EXPECT_EQ(scalar_serial, batched_serial);
  EXPECT_EQ(scalar_serial, batched_parallel);
  // The cell must actually measure something (not all censored).
  EXPECT_TRUE(std::any_of(scalar_serial.begin(), scalar_serial.end(),
                          [](std::int64_t t) { return t >= 0; }));
}

// ---------------------------------------------------------------------------
// Whole-program identity: every registered sweep cell, run through the
// sweep engine on its smoke grid under each path, prints the same table
// and writes the same checkpoint records (wall_seconds aside); a resume
// under either path recomputes nothing.  The certify chain suite passes
// with the scalar path as the ambient mode (certify_test runs it under
// the default batched path).

struct SweepOutput {
  std::string table;    // CSV of the aggregate table
  std::string records;  // checkpoint records by cell index, no timing
};

SweepOutput run_smoke_sweep(Mode m, const std::string& exp,
                            const std::string& grid) {
  const ScopedMode scoped(m);
  const std::string checkpoint = testing::TempDir() + "kernel_identity_" +
                                 exp + (m == Mode::kScalar ? "_s" : "_b") +
                                 ".jsonl";
  std::remove(checkpoint.c_str());
  sweep::SweepOptions options;
  options.exp = exp;
  options.checkpoint_path = checkpoint;
  const auto spec = sweep::GridSpec::parse(grid);
  const sweep::SweepReport fresh = sweep::run_sweep(spec, options);
  const sweep::SweepReport resumed = sweep::run_sweep(spec, options);
  EXPECT_EQ(resumed.cells_run, 0u) << exp;
  EXPECT_EQ(resumed.checkpoint_hits, fresh.cells_total) << exp;

  SweepOutput out;
  std::ostringstream table;
  fresh.table.print_csv(table);
  out.table = table.str();
  std::ostringstream resumed_table;
  resumed.table.print_csv(resumed_table);
  EXPECT_EQ(resumed_table.str(), out.table) << exp;

  sweep::CheckpointLoad load = sweep::load_checkpoint(checkpoint);
  EXPECT_EQ(load.skipped_lines, 0u) << exp;
  EXPECT_EQ(load.records.size(), fresh.cells_total) << exp;
  std::sort(load.records.begin(), load.records.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  for (sweep::CellRecord& record : load.records) {
    record.wall_seconds = 0;
    out.records += sweep::to_json_line(record) + "\n";
  }
  std::remove(checkpoint.c_str());
  return out;
}

TEST(KernelPathIdentity, EverySweepCellMatchesAcrossPaths) {
  const std::map<std::string, std::string> smoke_grids = {
      {"exp01", "d=1..2;m=16..32:x2;density=1;replicas=4"},
      {"exp03", "density=1;n=8..16:x2;d=2;replicas=4"},
      {"exp06", "n=8..16:x2;replicas=4"},
      {"exp10", "d=1..2;n=64..128:x2;samples=50"},
      {"exp22", "d=1..2;n=8..16:x2;density=2;replicas=4"},
      {"exp23", "d=1;n=8..16:x2;density=2;replicas=4"},
  };
  // The batched-step counter proves the batched runs took the batched
  // path at all; it only counts while metrics are on.
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  std::uint64_t batched_steps = 0;
  for (const std::string& exp : sweep::Registry::global().names()) {
    const auto grid = smoke_grids.find(exp);
    if (grid == smoke_grids.end()) {
      ADD_FAILURE() << "no smoke grid for registered cell " << exp;
      continue;
    }
    const std::uint64_t before = detail::steps_batched().value();
    const SweepOutput scalar =
        run_smoke_sweep(Mode::kScalar, exp, grid->second);
    EXPECT_EQ(detail::steps_batched().value(), before) << exp;
    const SweepOutput batched =
        run_smoke_sweep(Mode::kBatched, exp, grid->second);
    batched_steps += detail::steps_batched().value() - before;
    EXPECT_EQ(scalar.table, batched.table) << exp;
    EXPECT_EQ(scalar.records, batched.records) << exp;
  }
  obs::set_metrics_enabled(metrics_were_on);
  EXPECT_GT(batched_steps, 0u);
}

TEST(KernelPathIdentity, CertifyChainsPassUnderScalarPath) {
  // The options of `certify_runner --suite=chains --instances=8`, with
  // no time budget.
  const ScopedMode scoped(Mode::kScalar);
  certify::CertifyOptions options;
  options.seed = certify::test_master_seed(1);
  SCOPED_TRACE(certify::seed_banner(options.seed));
  const certify::CertifyReport report =
      certify::certify_models(certify::builtin_registry(), options);
  EXPECT_FALSE(report.timed_out);
  EXPECT_GT(report.checks, 400);
  for (const certify::CheckFailure& failure : report.failures) {
    ADD_FAILURE() << failure.repro(options);
  }
  EXPECT_EQ(mode(), Mode::kScalar);  // scalar_vs_batched restored it
}

}  // namespace
}  // namespace recover::kernel
