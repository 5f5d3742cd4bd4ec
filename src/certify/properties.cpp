#include "src/certify/properties.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "src/certify/compare.hpp"
#include "src/kernel/kernel.hpp"
#include "src/util/assert.hpp"

namespace recover::certify {

namespace {

/// FNV-1a: stable name→stream mapping (names are short ASCII; any decent
/// 64-bit hash works — what matters is independence from registry order).
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Substream tags for the per-instance property seeds.  Constants, so a
// rerun of one model replays the identical draws.
constexpr std::uint64_t kTagLaw = 0x10;        // + start index
constexpr std::uint64_t kTagMarginal = 0x40;
constexpr std::uint64_t kTagAbsorbing = 0x41;
constexpr std::uint64_t kTagIdentity = 0x50;
constexpr std::uint64_t kTagInvariant = 0x60;

class Session {
 public:
  Session(const CertifyOptions& options, CertifyReport& report)
      : options_(options),
        report_(report),
        start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] bool out_of_time() {
    if (options_.time_budget_ms <= 0) return false;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    if (elapsed >= options_.time_budget_ms) report_.timed_out = true;
    return report_.timed_out;
  }

  void fail(const ChainModel& model, const char* property,
            const Instance& instance, std::string detail) {
    report_.failures.push_back(
        {model.name, property, instance, std::move(detail)});
  }

  void count_check() { ++report_.checks; }

 private:
  const CertifyOptions& options_;
  CertifyReport& report_;
  std::chrono::steady_clock::time_point start_;
};

void check_exact_vs_sampled(const ChainModel& model, const Instance& instance,
                            const CertifyOptions& options, Session& session) {
  const std::vector<std::string> starts = model.starts(instance);
  const std::size_t start_count = std::min<std::size_t>(starts.size(), 3);
  for (std::size_t s = 0; s < start_count; ++s) {
    if (session.out_of_time()) return;
    const StepLaw law = model.exact_step(instance, starts[s]);
    rng::Xoshiro256PlusPlus eng(rng::substream(instance.seed, kTagLaw + s));
    const LawCheck check = check_sampled_law(
        law,
        [&] { return model.sample_step(instance, starts[s], eng); },
        options.law_trials);
    session.count_check();
    if (!check.pass(options.alpha)) {
      session.fail(model, "exact_vs_sampled", instance,
                   "start=" + starts[s] + " " + check.describe());
    }
  }
}

void check_coupling_marginals(const ChainModel& model,
                              const Instance& instance,
                              const CertifyOptions& options,
                              Session& session) {
  const std::vector<std::string> starts = model.starts(instance);
  RL_REQUIRE(!starts.empty());
  const std::string& sx = starts.front();
  const std::string& sy = starts.back();
  const StepLaw law_x = model.exact_step(instance, sx);
  const StepLaw law_y = model.exact_step(instance, sy);

  // One pass of coupled steps, both marginals counted from the SAME
  // joint draws — that is the faithfulness claim under test.
  std::vector<std::string> xs;
  std::vector<std::string> ys;
  xs.reserve(static_cast<std::size_t>(options.law_trials));
  ys.reserve(static_cast<std::size_t>(options.law_trials));
  rng::Xoshiro256PlusPlus eng(rng::substream(instance.seed, kTagMarginal));
  for (std::int64_t t = 0; t < options.law_trials; ++t) {
    auto [kx, ky] = model.coupled_step(instance, sx, sy, eng);
    xs.push_back(std::move(kx));
    ys.push_back(std::move(ky));
  }
  const auto check_side = [&](const StepLaw& law,
                              const std::vector<std::string>& keys,
                              const char* property, const std::string& from) {
    std::size_t next = 0;
    const LawCheck check = check_sampled_law(
        law, [&keys, &next] { return keys[next++]; },
        static_cast<std::int64_t>(keys.size()));
    session.count_check();
    if (!check.pass(options.alpha)) {
      session.fail(model, property, instance,
                   "start=" + from + " " + check.describe());
    }
  };
  check_side(law_x, xs, "coupling_marginal_x", sx);
  check_side(law_y, ys, "coupling_marginal_y", sy);
}

void check_coupling_absorbing(const ChainModel& model,
                              const Instance& instance,
                              const CertifyOptions& options,
                              Session& session) {
  // Once coalesced, copies must move in lockstep forever: chain coupled
  // steps from an equal pair and require equality throughout.
  std::string current = model.starts(instance).front();
  rng::Xoshiro256PlusPlus eng(rng::substream(instance.seed, kTagAbsorbing));
  const std::int64_t steps = std::min<std::int64_t>(options.invariant_steps, 128);
  session.count_check();
  for (std::int64_t t = 0; t < steps; ++t) {
    const auto [kx, ky] = model.coupled_step(instance, current, current, eng);
    if (kx != ky) {
      session.fail(model, "coupling_absorbing", instance,
                   "coalesced pair split at step " + std::to_string(t) +
                       ": '" + kx + "' vs '" + ky + "'");
      return;
    }
    current = kx;
  }
}

void check_scalar_vs_batched(const ChainModel& model, const Instance& instance,
                             const CertifyOptions& options, Session& session) {
  const std::uint64_t run_seed = rng::substream(instance.seed, kTagIdentity);
  const auto run_in = [&](kernel::Mode mode) {
    const kernel::ScopedMode scoped(mode);
    return model.run(instance, run_seed, options.identity_steps);
  };
  const RunResult scalar = run_in(kernel::Mode::kScalar);
  const RunResult batched = run_in(kernel::Mode::kBatched);
  session.count_check();
  if (scalar.state_key != batched.state_key) {
    session.fail(model, "scalar_vs_batched", instance,
                 "state diverged after " +
                     std::to_string(options.identity_steps) + " steps: '" +
                     scalar.state_key + "' vs '" + batched.state_key + "'");
  } else if (scalar.engine_word != batched.engine_word) {
    session.fail(model, "scalar_vs_batched", instance,
                 "states agree but engines diverged (different randomness "
                 "consumed) after " +
                     std::to_string(options.identity_steps) + " steps");
  }
}

void check_invariant(const ChainModel& model, const Instance& instance,
                     const CertifyOptions& options, Session& session) {
  std::string diag;
  session.count_check();
  if (!model.invariant_run(instance,
                           rng::substream(instance.seed, kTagInvariant),
                           options.invariant_steps, &diag)) {
    session.fail(model, "invariant", instance,
                 model.invariant_name + ": " + diag);
  }
}

}  // namespace

std::string CheckFailure::repro(const CertifyOptions& options) const {
  return "CERTIFY FAIL model=" + model + " property=" + property + " " +
         describe(instance) +
         " | rerun: certify_runner --suite=chains --seed=" +
         std::to_string(options.seed) + " --instances=" +
         std::to_string(options.instances) + " --only=" + model;
}

CertifyReport certify_models(const ModelRegistry& registry,
                             const CertifyOptions& options,
                             std::ostream* progress) {
  CertifyReport report;
  Session session(options, report);
  for (const ChainModel& model : registry.models()) {
    if (!options.only.empty() &&
        std::find(options.only.begin(), options.only.end(), model.name) ==
            options.only.end()) {
      continue;
    }
    if (session.out_of_time()) break;
    ++report.models;
    const std::uint64_t model_stream =
        rng::substream(options.seed, fnv1a(model.name));
    const auto failures_before = report.failures.size();
    for (int i = 0; i < options.instances; ++i) {
      if (session.out_of_time()) break;
      Instance instance = draw_instance(
          model, rng::substream(model_stream, static_cast<std::uint64_t>(i)));
      ++report.instances;
      if (model.exact_step && model.sample_step) {
        check_exact_vs_sampled(model, instance, options, session);
      }
      if (session.out_of_time()) break;
      if (model.coupled_step && model.exact_step) {
        check_coupling_marginals(model, instance, options, session);
      }
      if (model.coupled_step) {
        check_coupling_absorbing(model, instance, options, session);
      }
      if (session.out_of_time()) break;
      if (model.run && model.has_batched) {
        check_scalar_vs_batched(model, instance, options, session);
      }
      if (model.invariant_run) {
        check_invariant(model, instance, options, session);
      }
    }
    if (progress != nullptr) {
      const auto model_failures = report.failures.size() - failures_before;
      *progress << "certify: " << model.name << " ("
                << model.family << ") "
                << (model_failures == 0 ? "ok" : "FAIL") << "\n";
    }
  }
  return report;
}

}  // namespace recover::certify
