// certify_runner — property-based conformance suite for every registered
// chain model, the batched kernels, and the serve wire protocol
// (docs/CERTIFICATION.md).
//
//   certify_runner --suite=chains --instances=8 --seed=1
//   certify_runner --suite=chains --only=grand_coupling_a --seed=77
//   certify_runner --suite=protocol --frames=10000            # loopback
//   certify_runner --suite=protocol --port=9000 --frames=10000  # live TCP
//
// Exit status 0 means every check passed; 1 means at least one property
// or protocol violation, and every failure prints exactly one
// `CERTIFY FAIL ...` line whose tail is a rerun command that replays the
// failing instance.  --time-budget bounds a run (the CI gate uses it);
// hitting the budget is reported but is not a failure.
#include <cstdio>
#include <iostream>
#include <string>

#include "src/certify/fuzz.hpp"
#include "src/certify/model.hpp"
#include "src/certify/properties.hpp"
#include "src/util/cli.hpp"

namespace {

using namespace recover;

int run_chains(const util::Cli& cli) {
  certify::CertifyOptions options;
  options.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  options.instances = static_cast<int>(cli.integer("instances"));
  options.law_trials = cli.integer("trials");
  options.identity_steps = cli.integer("steps");
  options.alpha = cli.real("alpha");
  options.time_budget_ms = cli.duration_ms("time-budget");
  const std::string only = cli.str("only");
  if (!only.empty()) {
    std::size_t pos = 0;
    while (pos <= only.size()) {
      const std::size_t comma = only.find(',', pos);
      const std::size_t end = comma == std::string::npos ? only.size() : comma;
      if (end > pos) options.only.push_back(only.substr(pos, end - pos));
      pos = end + 1;
    }
  }

  const certify::ModelRegistry& registry = certify::builtin_registry();
  const certify::CertifyReport report =
      certify::certify_models(registry, options, &std::cout);

  std::printf(
      "certify: suite=chains models=%lld instances=%lld "
      "checks=%lld failures=%zu%s\n",
      static_cast<long long>(report.models),
      static_cast<long long>(report.instances),
      static_cast<long long>(report.checks), report.failures.size(),
      report.timed_out ? " (time budget reached)" : "");
  for (const certify::CheckFailure& failure : report.failures) {
    std::printf("%s\n", failure.repro(options).c_str());
  }
  return report.ok() ? 0 : 1;
}

int run_protocol(const util::Cli& cli) {
  certify::FuzzOptions options;
  options.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  options.frames = cli.integer("frames");
  options.reply_timeout_ms = cli.duration_ms("reply-timeout");
  const int port = static_cast<int>(cli.integer("port"));

  certify::FuzzReport report;
  if (port > 0) {
    report = certify::fuzz_server(cli.str("host"), port, options);
  } else {
    report = certify::fuzz_handlers(options);
  }

  std::printf(
      "certify: suite=protocol mode=%s frames=%lld replies=%lld ok=%lld "
      "violations=%zu\n",
      port > 0 ? "server" : "loopback", static_cast<long long>(report.frames),
      static_cast<long long>(report.replies),
      static_cast<long long>(report.ok_replies), report.violations.size());
  for (const auto& [code, count] : report.error_counts) {
    std::printf("certify:   error %-18s %lld\n", code.c_str(),
                static_cast<long long>(count));
  }
  // Print at most a handful of violations in full; the first is the one
  // to chase, the cap keeps a systemic failure from flooding CI logs.
  std::size_t printed = 0;
  for (const certify::FuzzViolation& violation : report.violations) {
    if (printed++ == 8) {
      std::printf("certify: ... %zu more violations suppressed\n",
                  report.violations.size() - 8);
      break;
    }
    std::printf("%s\n", certify::fuzz_repro(violation, options).c_str());
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("certify_runner",
                "property-based conformance suite (chains, kernels, wire "
                "protocol)");
  cli.flag("suite", "all | chains | protocol", "all")
      .flag("seed", "master seed; every failure line echoes it", "1")
      .flag("instances", "random instances per chain model", "8")
      .flag("trials", "samples per law-agreement check", "20000")
      .flag("steps", "steps per scalar-vs-batched identity run", "512")
      .flag("alpha", "per-check significance level", "0.000001")
      .flag("time-budget", "wall-clock cap for the chains suite (0 = none)",
            "0")
      .flag("only", "comma-separated model names (chains suite)", "")
      .flag("list", "list registered models and exit", "false")
      .flag("frames", "fuzz frames (protocol suite)", "10000")
      .flag("host", "server host (protocol suite)", "127.0.0.1")
      .flag("port", "server port; 0 = in-process loopback", "0")
      .flag("reply-timeout", "server-mode hang deadline per batch", "10s");
  cli.parse(argc, argv);

  if (cli.boolean("list")) {
    for (const certify::ChainModel& model :
         certify::builtin_registry().models()) {
      const std::string invariant =
          model.invariant_run ? "invariant:" + model.invariant_name : "";
      std::printf("%-24s %-12s %s%s%s%s\n", model.name.c_str(),
                  model.family.c_str(), model.exact_step ? "law " : "",
                  model.coupled_step ? "coupling " : "",
                  model.has_batched ? "batched " : "", invariant.c_str());
    }
    return 0;
  }

  const std::string suite = cli.str("suite");
  int status = 0;
  if (suite == "all" || suite == "chains") {
    status |= run_chains(cli);
  }
  if (suite == "all" || suite == "protocol") {
    status |= run_protocol(cli);
  }
  if (suite != "all" && suite != "chains" && suite != "protocol") {
    std::fprintf(stderr, "certify_runner: unknown --suite=%s\n",
                 suite.c_str());
    return 2;
  }
  return status;
}
