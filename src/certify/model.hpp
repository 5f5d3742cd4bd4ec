// ChainModel: the registration record the certification harness
// (src/certify/properties.hpp) runs its property classes against.
//
// The repo carries three implementations of every allocation step — the
// exact pmf over the enumerated state space, the scalar samplers, and
// the batched kernels — plus couplings whose marginals must reproduce
// the single-chain law.  A ChainModel packages one chain family behind a
// type-erased, string-keyed interface:
//
//   state key   — the normalized state serialized as comma-joined
//                 integers ("4,2,1,0" for a load vector, "1,0,-1" for an
//                 orientation difference vector).  Keys are exact, so
//                 law comparison is exact bucket counting.
//   exact_step  — the brute-force single-step pmf (independent model)
//   sample_step — one scalar step of the production sampler
//   run         — a multi-step run routed through kernel::advance, so
//                 kernel::set_mode selects the path; the
//                 result carries one post-run engine word to catch
//                 divergence in randomness consumption, not just state
//   coupled_step    — one step of the coupling from a state pair
//   invariant_run   — a model-specific structural invariant (e.g. the
//                     majorization sandwich the CFTP sampler rests on)
//
// Registering a record is all a new scenario family (RBB, supermarket)
// needs to do to inherit the whole conformance suite — see
// docs/CERTIFICATION.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/rng/engines.hpp"

namespace recover::certify {

/// One randomly drawn test instance.  Models ignore the axes they do not
/// have (the orientation chain has no ball count), and `seed` is the
/// instance-local master seed every property derives its substreams from.
struct Instance {
  std::size_t n = 2;
  std::int64_t m = 2;
  int d = 1;
  std::uint64_t seed = 0;
};

/// "n=4 m=6 d=2 seed=123" — for failure reports.
std::string describe(const Instance& instance);

/// Exact single-step law from one state: (successor key, probability)
/// pairs, probabilities summing to 1.
using StepLaw = std::vector<std::pair<std::string, double>>;

/// Result of a multi-step run: final state plus one extra engine draw.
/// Two runs agree iff both fields agree — the engine word detects a path
/// that reaches the right state while consuming different randomness.
struct RunResult {
  std::string state_key;
  std::uint64_t engine_word = 0;
};

struct ChainModel {
  std::string name;
  std::string family;  // "balls" | "coupling" | "orient" | "open"

  // Instance bounds for draw_instance (inclusive).  Small by design: the
  // exact laws enumerate the state space.
  std::size_t n_min = 2, n_max = 5;
  std::int64_t m_min = 2, m_max = 8;
  int d_min = 1, d_max = 3;

  /// True when `run` has a genuine batched path (kernel identity is
  /// checked only then; for scalar-only models both modes are the same
  /// loop and the check would be vacuous).
  bool has_batched = false;

  /// Representative start states for the instance (≥ 1).
  std::function<std::vector<std::string>(const Instance&)> starts;

  /// Brute-force exact one-step law; empty function when no exact model
  /// exists.  For coupling models this is the SINGLE-chain law — the
  /// faithfulness property checks each coupled marginal against it.
  std::function<StepLaw(const Instance&, const std::string& start)> exact_step;

  /// One scalar step of the production sampler; empty for pure-coupling
  /// records.
  std::function<std::string(const Instance&, const std::string& start,
                            rng::Xoshiro256PlusPlus& eng)>
      sample_step;

  /// Multi-step run from a canonical start, routed through
  /// kernel::advance; empty when the model has no runnable chain.
  std::function<RunResult(const Instance&, std::uint64_t seed,
                          std::int64_t steps)>
      run;

  /// One coupled step from a state pair; both marginals must follow
  /// exact_step's law, and equal inputs must produce equal outputs.
  std::function<std::pair<std::string, std::string>(
      const Instance&, const std::string& sx, const std::string& sy,
      rng::Xoshiro256PlusPlus& eng)>
      coupled_step;

  /// Model-specific structural invariant checked over a trajectory;
  /// returns false and fills `diag` on violation.
  std::function<bool(const Instance&, std::uint64_t seed, std::int64_t steps,
                     std::string* diag)>
      invariant_run;
  /// Short name of the invariant for reports ("majorization_sandwich").
  std::string invariant_name;
};

/// Draws an instance inside the model's bounds, a pure function of
/// (model bounds, seed); `seed` is stored into the result.
Instance draw_instance(const ChainModel& model, std::uint64_t seed);

/// Comma-joined serialization of a state vector ("4,2,1,0").  The codec
/// for every built-in model's state keys.
std::string key_of(const std::vector<std::int64_t>& values);

/// Inverse of key_of.  Aborts on malformed input.
std::vector<std::int64_t> values_of(const std::string& key);

class ModelRegistry {
 public:
  /// Registers a model; aborts on duplicate names.  Registration is not
  /// thread-safe — register everything up front, then certify.
  void add(ChainModel model);

  [[nodiscard]] const ChainModel* find(std::string_view name) const;
  [[nodiscard]] const std::vector<ChainModel>& models() const {
    return models_;
  }

 private:
  std::vector<ChainModel> models_;
};

/// Registers every built-in chain family (Scenario A/B incl. ADAP, the
/// grand couplings, the labeled oracles, the orientation chain and its
/// coupling, and the open / bounded-open systems) into `registry`.
void register_builtin_models(ModelRegistry& registry);

/// The process-wide registry, with the built-ins registered exactly once.
ModelRegistry& builtin_registry();

}  // namespace recover::certify
