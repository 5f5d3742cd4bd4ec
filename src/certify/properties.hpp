// The randomized property engine: draws instances per registered
// ChainModel via rng::substream and runs every applicable property
// class, collecting failures that each carry ONE reproducible seed line.
//
// Property classes (docs/CERTIFICATION.md has the catalogue):
//   exact_vs_sampled    χ²/TV agreement of the scalar sampler's one-step
//                       law with the brute-force exact pmf
//   coupling_marginal   each marginal of a coupled step follows the
//                       single-chain exact law (coupling faithfulness)
//   coupling_absorbing  equal inputs stay equal through a coupled step
//   scalar_vs_batched   kernel-path byte identity: same final state AND
//                       same next engine word under kernel::set_mode
//                       scalar vs batched
//   invariant           the model's structural invariant (majorization
//                       sandwich, normalization, capacity bound, ...)
//
// Seeds derive as substream(substream(master, fnv1a(model.name)), i):
// keyed on the model NAME, not the registry position, so filtering with
// --only replays exactly the instances a full run drew for that model.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/certify/model.hpp"

namespace recover::certify {

struct CertifyOptions {
  std::uint64_t seed = 1;
  /// Random instances drawn per model.
  int instances = 8;
  /// Samples per law-agreement check.
  std::int64_t law_trials = 20000;
  /// Steps of each scalar-vs-batched identity run (must clear
  /// kernel::kMinBatchSteps by a wide margin to exercise the batch path).
  std::int64_t identity_steps = 512;
  /// Trajectory length for invariant and absorbing checks.
  std::int64_t invariant_steps = 192;
  /// Per-check significance level.  Tiny on purpose: thousands of checks
  /// run per CI pass, and a certify failure must mean a genuine law
  /// mismatch, not test-count noise.
  double alpha = 1e-6;
  /// Wall-clock budget; 0 = unlimited.  Exceeding it stops cleanly
  /// (reported, not a failure).
  std::int64_t time_budget_ms = 0;
  /// Restrict to these model names (empty = all registered models).
  std::vector<std::string> only;
};

struct CheckFailure {
  std::string model;
  std::string property;
  Instance instance;
  std::string detail;

  /// The one-line reproduction recipe printed for this failure.
  [[nodiscard]] std::string repro(const CertifyOptions& options) const;
};

struct CertifyReport {
  std::int64_t models = 0;
  std::int64_t instances = 0;
  std::int64_t checks = 0;
  bool timed_out = false;
  std::vector<CheckFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the conformance suite over every (filtered) model in `registry`.
/// `progress`, when non-null, receives one line per model.  Kernel-mode
/// state is restored on return even though identity checks toggle it.
CertifyReport certify_models(const ModelRegistry& registry,
                             const CertifyOptions& options,
                             std::ostream* progress = nullptr);

}  // namespace recover::certify
