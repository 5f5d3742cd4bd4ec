#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/rng/alias.hpp"
#include "src/rng/distributions.hpp"
#include "src/rng/engines.hpp"
#include "src/rng/fenwick.hpp"
#include "src/stats/summary.hpp"

namespace recover::rng {
namespace {

TEST(SplitMix64, KnownFirstOutputs) {
  // Reference values for seed 1234567 from the public-domain reference
  // implementation.
  SplitMix64 sm(0);
  const std::uint64_t a = sm();
  const std::uint64_t b = sm();
  EXPECT_NE(a, b);
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2(), a);  // deterministic
  EXPECT_EQ(sm2(), b);
}

TEST(Xoshiro, DeterministicPerSeed) {
  Xoshiro256PlusPlus a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  EXPECT_EQ(a(), b());
  Xoshiro256PlusPlus a2(42);
  (void)c();
  EXPECT_NE(a2(), c());
}

TEST(Xoshiro, JumpDecorrelatesStreams) {
  Xoshiro256PlusPlus a(7);
  Xoshiro256PlusPlus b(7);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(DeriveStreamSeed, DistinctAcrossIndices) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) {
    seeds.push_back(derive_stream_seed(99, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(UniformBelow, RespectsBound) {
  Xoshiro256PlusPlus eng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(uniform_below(eng, 7), 7u);
  }
}

TEST(UniformBelow, ChiSquareUniformity) {
  Xoshiro256PlusPlus eng(11);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<std::int64_t> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[uniform_below(eng, kBuckets)];
  }
  const std::vector<double> expected(kBuckets, 1.0 / kBuckets);
  const double stat = stats::chi_square_statistic(counts, expected);
  EXPECT_LT(stat, stats::chi_square_critical(kBuckets - 1, 0.001));
}

TEST(UniformReal, InUnitInterval) {
  Xoshiro256PlusPlus eng(3);
  stats::Summary s;
  for (int i = 0; i < 20000; ++i) {
    const double x = uniform_real(eng);
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(UniformInt, CoversInclusiveRange) {
  Xoshiro256PlusPlus eng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto x = uniform_int(eng, -3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    saw_lo = saw_lo || x == -3;
    saw_hi = saw_hi || x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(MaxOfDUniform, MatchesPowerLawCdf) {
  // P(max of d uniforms over [0,n) <= k-1) = (k/n)^d.
  Xoshiro256PlusPlus eng(17);
  constexpr std::uint64_t n = 10;
  constexpr int d = 3;
  constexpr int kSamples = 200000;
  std::vector<std::int64_t> counts(n, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[max_of_d_uniform(eng, n, d)];
  }
  std::vector<double> expected(n);
  double prev = 0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    const double cur = std::pow(static_cast<double>(k) / n, d);
    expected[k - 1] = cur - prev;
    prev = cur;
  }
  const double stat = stats::chi_square_statistic(counts, expected);
  EXPECT_LT(stat, stats::chi_square_critical(static_cast<int>(n) - 1, 0.001));
}

TEST(Fenwick, PrefixSumsMatchNaive) {
  const std::vector<std::int64_t> w = {3, 0, 5, 1, 0, 2, 7};
  Fenwick f(w);
  std::int64_t run = 0;
  for (std::size_t i = 0; i <= w.size(); ++i) {
    EXPECT_EQ(f.prefix(i), run);
    if (i < w.size()) run += w[i];
  }
  EXPECT_EQ(f.total(), run);
}

TEST(Fenwick, PointUpdates) {
  Fenwick f(5);
  f.add(2, 10);
  f.add(4, 3);
  f.add(2, -4);
  EXPECT_EQ(f.at(2), 6);
  EXPECT_EQ(f.at(4), 3);
  EXPECT_EQ(f.total(), 9);
}

TEST(Fenwick, FindLocatesWeightedIndex) {
  const std::vector<std::int64_t> w = {2, 0, 3, 1};
  Fenwick f(w);
  // Targets 0,1 -> idx 0; 2,3,4 -> idx 2; 5 -> idx 3.
  EXPECT_EQ(f.find(0), 0u);
  EXPECT_EQ(f.find(1), 0u);
  EXPECT_EQ(f.find(2), 2u);
  EXPECT_EQ(f.find(4), 2u);
  EXPECT_EQ(f.find(5), 3u);
}

TEST(Fenwick, FindSkipsZeroWeightPrefix) {
  const std::vector<std::int64_t> w = {0, 0, 4};
  Fenwick f(w);
  EXPECT_EQ(f.find(0), 2u);
  EXPECT_EQ(f.find(3), 2u);
}

TEST(Alias, ProbabilitiesNormalized) {
  AliasTable table({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(table.probability(0), 0.1);
  EXPECT_DOUBLE_EQ(table.probability(3), 0.4);
}

TEST(Alias, EmpiricalFrequenciesMatch) {
  AliasTable table({1.0, 0.0, 3.0, 6.0});
  Xoshiro256PlusPlus eng(23);
  constexpr int kSamples = 200000;
  std::vector<std::int64_t> counts(4, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[table.sample(eng)];
  EXPECT_EQ(counts[1], 0);
  const std::vector<double> expected = {0.1, 0.0, 0.3, 0.6};
  const double stat = stats::chi_square_statistic(counts, expected);
  EXPECT_LT(stat, stats::chi_square_critical(2, 0.001));
}

class FenwickSamplingTest : public ::testing::TestWithParam<int> {};

TEST_P(FenwickSamplingTest, WeightedDrawMatchesWeights) {
  const int n = GetParam();
  Xoshiro256PlusPlus eng(static_cast<std::uint64_t>(n) * 1000 + 7);
  std::vector<std::int64_t> w(static_cast<std::size_t>(n));
  std::int64_t total = 0;
  for (auto& x : w) {
    x = static_cast<std::int64_t>(uniform_below(eng, 5));
    total += x;
  }
  if (total == 0) {
    w[0] = 1;
    total = 1;
  }
  Fenwick f(w);
  constexpr int kSamples = 60000;
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < kSamples; ++i) {
    const auto target = static_cast<std::int64_t>(
        uniform_below(eng, static_cast<std::uint64_t>(total)));
    ++counts[f.find(target)];
  }
  std::vector<double> expected(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<double>(w[i]) / static_cast<double>(total);
  }
  const double stat = stats::chi_square_statistic(counts, expected);
  EXPECT_LT(stat, stats::chi_square_critical(n - 1, 0.001));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FenwickSamplingTest,
                         ::testing::Values(2, 5, 16, 33, 100));

}  // namespace
}  // namespace recover::rng
