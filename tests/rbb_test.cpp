// Tests for the Repeated Balls-into-Bins family (src/balls/rbb.hpp):
// the deterministic ejection primitive, the exact round law against
// sampled frequencies, scalar/batched byte identity for the chain and
// the grand coupling, coupling absorption and coalescence, the
// self-stabilization headline from the worst-case start, and the
// certify mutant checks proving the "rbb" registration can fail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/balls/load_vector.hpp"
#include "src/balls/rbb.hpp"
#include "src/balls/rules.hpp"
#include "src/certify/check.hpp"
#include "src/certify/model.hpp"
#include "src/certify/properties.hpp"
#include "src/kernel/kernel.hpp"
#include "src/rng/distributions.hpp"
#include "src/rng/engines.hpp"

namespace recover::balls {
namespace {

// ---------------------------------------------------------------------------
// The ejection primitive.

TEST(Ejection, MatchesManualSemantics) {
  LoadVector v = LoadVector::from_loads({4, 2, 1, 0});
  EXPECT_EQ(v.eject_one_per_nonempty(), 3u);
  EXPECT_EQ(v.loads(), (std::vector<std::int64_t>{3, 1, 0, 0}));
  EXPECT_EQ(v.balls(), 4);
  EXPECT_TRUE(v.invariants_hold());

  // Load-1 bins empty out and the vector stays sorted.
  LoadVector w = LoadVector::from_loads({2, 1, 1, 0});
  EXPECT_EQ(w.eject_one_per_nonempty(), 3u);
  EXPECT_EQ(w.loads(), (std::vector<std::int64_t>{1, 0, 0, 0}));
  EXPECT_TRUE(w.invariants_hold());

  // The concentrated crash state ejects exactly one ball per round.
  LoadVector pile = LoadVector::all_in_one(8, 20);
  EXPECT_EQ(pile.eject_one_per_nonempty(), 1u);
  EXPECT_EQ(pile.max_load(), 19);

  // The balanced state with m = 2n ejects from every bin (the rebuild
  // branch of the Fenwick update).
  LoadVector flat = LoadVector::balanced(16, 32);
  EXPECT_EQ(flat.eject_one_per_nonempty(), 16u);
  EXPECT_EQ(flat.balls(), 16);
  EXPECT_TRUE(flat.invariants_hold());
}

TEST(RBBChain, StepPreservesBallCountAndInvariants) {
  const std::uint64_t seed = certify::test_master_seed(0xEBB1);
  SCOPED_TRACE(certify::seed_banner(seed));
  rng::Xoshiro256PlusPlus eng(seed);
  RBBChain<AbkuRule> chain(LoadVector::piled(7, 15, 2), AbkuRule(2));
  for (int t = 0; t < 500; ++t) {
    chain.step(eng);
    ASSERT_EQ(chain.state().balls(), 15);
    if (t % 50 == 0) {
      ASSERT_TRUE(chain.state().invariants_hold());
    }
  }
}

// ---------------------------------------------------------------------------
// Exact round law (the s-fold placement-pmf convolution registered as
// the certify independent model) vs sampled one-round frequencies.

TEST(RBBChain, ExactRoundLawMatchesSampledFrequencies) {
  const certify::ChainModel* model = certify::builtin_registry().find("rbb");
  ASSERT_NE(model, nullptr);
  certify::Instance in;
  in.n = 3;
  in.m = 4;
  in.d = 2;
  const std::string start = certify::key_of({4, 0, 0});
  const certify::StepLaw law = model->exact_step(in, start);
  double total = 0.0;
  for (const auto& [key, p] : law) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);

  const std::uint64_t seed = certify::test_master_seed(0xEBB2);
  SCOPED_TRACE(certify::seed_banner(seed));
  rng::Xoshiro256PlusPlus eng(seed);
  const int trials = 40000;
  std::map<std::string, int> counts;
  for (int t = 0; t < trials; ++t) {
    RBBChain<AbkuRule> chain(LoadVector::all_in_one(in.n, in.m),
                             AbkuRule(in.d));
    chain.step(eng);
    ++counts[certify::key_of(chain.state().loads())];
  }
  double tv = 0.0;
  std::set<std::string> support;
  for (const auto& [key, p] : law) {
    support.insert(key);
    const double freq = static_cast<double>(counts[key]) / trials;
    tv += std::abs(freq - p);
  }
  for (const auto& [key, count] : counts) {
    ASSERT_TRUE(support.count(key))
        << "sampled state outside the exact support: " << key;
  }
  EXPECT_LT(tv / 2.0, 0.02);
}

// ---------------------------------------------------------------------------
// Byte identity: scalar and batched paths must produce the same state
// AND consume the same engine words.

TEST(RBBChain, ScalarAndBatchedRunsAreByteIdentical) {
  const std::uint64_t seed = certify::test_master_seed(0xEBB3);
  SCOPED_TRACE(certify::seed_banner(seed));
  struct Case {
    std::size_t n;
    std::int64_t m;
    int d;
  };
  for (const Case c : {Case{5, 10, 1}, Case{4, 8, 2}, Case{6, 18, 3}}) {
    RBBChain<AbkuRule> scalar(LoadVector::all_in_one(c.n, c.m), AbkuRule(c.d));
    RBBChain<AbkuRule> batched = scalar;
    rng::Xoshiro256PlusPlus es(seed + c.n);
    rng::Xoshiro256PlusPlus eb(seed + c.n);
    {
      const kernel::ScopedMode scoped(kernel::Mode::kScalar);
      kernel::advance(scalar, es, 300);
    }
    {
      const kernel::ScopedMode scoped(kernel::Mode::kBatched);
      kernel::advance(batched, eb, 300);
    }
    EXPECT_EQ(scalar.state().loads(), batched.state().loads())
        << "n=" << c.n << " m=" << c.m << " d=" << c.d;
    EXPECT_EQ(es(), eb()) << "word divergence at n=" << c.n << " d=" << c.d;
  }
}

TEST(GrandCouplingRBB, ScalarAndBatchedCouplingsAreByteIdentical) {
  const std::uint64_t seed = certify::test_master_seed(0xEBB4);
  SCOPED_TRACE(certify::seed_banner(seed));
  for (const int d : {1, 2, 3}) {
    GrandCouplingRBB<AbkuRule> scalar(LoadVector::all_in_one(6, 12),
                                      LoadVector::balanced(6, 12),
                                      AbkuRule(d));
    GrandCouplingRBB<AbkuRule> batched = scalar;
    rng::Xoshiro256PlusPlus es(seed + static_cast<std::uint64_t>(d));
    rng::Xoshiro256PlusPlus eb(seed + static_cast<std::uint64_t>(d));
    {
      const kernel::ScopedMode scoped(kernel::Mode::kScalar);
      kernel::advance(scalar, es, 300);
    }
    {
      const kernel::ScopedMode scoped(kernel::Mode::kBatched);
      kernel::advance(batched, eb, 300);
    }
    EXPECT_EQ(scalar.first().loads(), batched.first().loads()) << "d=" << d;
    EXPECT_EQ(scalar.second().loads(), batched.second().loads()) << "d=" << d;
    EXPECT_EQ(es(), eb()) << "word divergence at d=" << d;
  }
}

// ---------------------------------------------------------------------------
// Coupling: absorption and coalescence.

TEST(GrandCouplingRBB, EqualCopiesStayEqualForever) {
  rng::Xoshiro256PlusPlus eng(5);
  const LoadVector v = LoadVector::piled(8, 16, 3);
  GrandCouplingRBB<AbkuRule> c(v, v, AbkuRule(2));
  ASSERT_TRUE(c.coalesced());
  for (int t = 0; t < 2000; ++t) {
    c.step(eng);
    ASSERT_TRUE(c.coalesced());
  }
}

TEST(GrandCouplingRBB, ExtremalPairCoalescesAndStaysCoalesced) {
  const std::uint64_t seed = certify::test_master_seed(0xEBB5);
  SCOPED_TRACE(certify::seed_banner(seed));
  rng::Xoshiro256PlusPlus eng(seed);
  GrandCouplingRBB<AbkuRule> c(LoadVector::all_in_one(6, 12),
                               LoadVector::balanced(6, 12), AbkuRule(2));
  std::int64_t t = 0;
  const std::int64_t cap = 500000;
  while (!c.coalesced() && t < cap) {
    c.step(eng);
    ++t;
  }
  ASSERT_TRUE(c.coalesced()) << "no coalescence within " << cap << " rounds";
  EXPECT_GT(t, 0);
  for (int k = 0; k < 500; ++k) {
    c.step(eng);
    ASSERT_TRUE(c.coalesced());
  }
}

TEST(GrandCouplingRBB, DistanceIsZeroExactlyAtCoalescence) {
  rng::Xoshiro256PlusPlus eng(11);
  GrandCouplingRBB<AbkuRule> c(LoadVector::all_in_one(5, 10),
                               LoadVector::balanced(5, 10), AbkuRule(1));
  for (int t = 0; t < 5000; ++t) {
    ASSERT_EQ(c.distance() == 0, c.coalesced());
    c.step(eng);
  }
}

// ---------------------------------------------------------------------------
// Self-stabilization (Los–Sauerwald): from the worst-case concentrated
// start the max load drains into the typical O(log n) band and stays
// there — the time-averaged max load over the last quarter of the run
// is far below the first quarter.

TEST(RBBSelfStabilization, WorstCaseStartMaxLoadDecays) {
  const std::uint64_t seed = certify::test_master_seed(0xEBB6);
  SCOPED_TRACE(certify::seed_banner(seed));
  const std::size_t n = 32;
  const std::int64_t m = 64;
  rng::Xoshiro256PlusPlus eng(seed);
  RBBChain<AbkuRule> chain(LoadVector::all_in_one(n, m), AbkuRule(1));
  const std::int64_t rounds = 4 * m;
  double first_quarter = 0.0, last_quarter = 0.0;
  for (std::int64_t t = 0; t < rounds; ++t) {
    chain.step(eng);
    const auto load = static_cast<double>(chain.state().max_load());
    if (t < rounds / 4) first_quarter += load;
    if (t >= 3 * rounds / 4) last_quarter += load;
  }
  first_quarter /= static_cast<double>(rounds / 4);
  last_quarter /= static_cast<double>(rounds - 3 * rounds / 4);
  EXPECT_LT(last_quarter, first_quarter / 4.0)
      << "max load did not decay: first-quarter avg " << first_quarter
      << ", last-quarter avg " << last_quarter;
  EXPECT_LT(chain.state().max_load(), m / 4);
}

// ---------------------------------------------------------------------------
// Certify mutants: the "rbb" registration must be able to FAIL.  A
// conformance entry that cannot fail certifies nothing.

certify::CertifyOptions mutant_options() {
  certify::CertifyOptions options;
  options.seed = 7;
  options.instances = 3;
  options.law_trials = 8000;
  options.identity_steps = 64;
  options.invariant_steps = 32;
  return options;
}

const certify::ChainModel& model_or_die(const std::string& name) {
  const certify::ChainModel* model = certify::builtin_registry().find(name);
  if (model == nullptr) std::abort();
  return *model;
}

std::set<std::string> failed_properties(const certify::CertifyReport& report) {
  std::set<std::string> properties;
  for (const certify::CheckFailure& failure : report.failures) {
    properties.insert(failure.property);
  }
  return properties;
}

TEST(RBBCertifyMutants, LazySampleStepFailsExactVsSampled) {
  certify::ChainModel mutant = model_or_die("rbb");
  mutant.name = "rbb_lazy_sampler";
  const auto real_sample = mutant.sample_step;
  mutant.sample_step = [real_sample](const certify::Instance& in,
                                     const std::string& start,
                                     rng::Xoshiro256PlusPlus& eng) {
    // A lazy chain: half the rounds do nothing.  The sampled law then
    // carries spurious mass on the start state (the true RBB round
    // always moves the concentrated starts).
    if (rng::coin(eng)) return start;
    return real_sample(in, start, eng);
  };
  mutant.run = {};            // isolate: no kernel identity checks
  mutant.invariant_run = {};  // no invariant checks
  certify::ModelRegistry registry;
  registry.add(mutant);
  const certify::CertifyReport report =
      certify::certify_models(registry, mutant_options());
  ASSERT_FALSE(report.ok()) << "the harness accepted a lazy RBB sampler";
  EXPECT_EQ(failed_properties(report),
            (std::set<std::string>{"exact_vs_sampled"}));
}

TEST(RBBCertifyMutants, DivergentBatchedWordsFailKernelIdentity) {
  certify::ChainModel mutant = model_or_die("rbb");
  mutant.name = "rbb_broken_words";
  const auto real_run = mutant.run;
  mutant.run = [real_run](const certify::Instance& in, std::uint64_t seed,
                          std::int64_t steps) {
    certify::RunResult result = real_run(in, seed, steps);
    if (kernel::mode() == kernel::Mode::kBatched) result.engine_word ^= 1;
    return result;
  };
  certify::ModelRegistry registry;
  registry.add(mutant);
  const certify::CertifyReport report =
      certify::certify_models(registry, mutant_options());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(failed_properties(report),
            (std::set<std::string>{"scalar_vs_batched"}));
}

TEST(RBBCertifyMutants, BiasedCouplingMarginalFailsFaithfulness) {
  certify::ChainModel mutant = model_or_die("grand_coupling_rbb");
  mutant.name = "grand_coupling_rbb_biased";
  const auto real_coupled = mutant.coupled_step;
  const auto real_exact = mutant.exact_step;
  mutant.coupled_step = [real_coupled, real_exact](
                            const certify::Instance& in, const std::string& x,
                            const std::string& y,
                            rng::Xoshiro256PlusPlus& eng) {
    auto [kx, ky] = real_coupled(in, x, y, eng);
    // Bias the x marginal: half the time, snap it to the modal outcome.
    if (rng::coin(eng)) {
      const certify::StepLaw law = real_exact(in, x);
      kx = std::max_element(law.begin(), law.end(),
                            [](const auto& a, const auto& b) {
                              return a.second < b.second;
                            })
               ->first;
    }
    return std::make_pair(kx, ky);
  };
  mutant.run = {};  // isolate: no kernel identity checks
  certify::ModelRegistry registry;
  registry.add(mutant);
  const certify::CertifyReport report =
      certify::certify_models(registry, mutant_options());
  ASSERT_FALSE(report.ok());
  const std::set<std::string> failed = failed_properties(report);
  EXPECT_TRUE(failed.count("coupling_marginal_x"))
      << "the biased x marginal went undetected";
  EXPECT_FALSE(failed.count("coupling_marginal_y"))
      << "the untouched marginal was flagged";
}

}  // namespace
}  // namespace recover::balls
