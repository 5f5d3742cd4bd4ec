// Engineering microbenchmarks (google-benchmark): per-step costs and the
// ablations called out in DESIGN.md.
//
//  * Fenwick vs linear prefix-scan sampling of 𝒜(v) (ablation #1);
//  * normalized ⊕/⊖ operations (Fact 3.2 binary-search updates);
//  * full phase cost of I_A / I_B with d ∈ {1, 2, 4};
//  * ADAP(x) placement (sequential probing);
//  * lazy greedy orientation step (ablation #3 is measured in exp06 by
//    doubling; here we report the raw step cost);
//  * grand-coupling step (two copies + shared probes).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/balls/grand_coupling.hpp"
#include "src/balls/labeled.hpp"
#include "src/balls/random_states.hpp"
#include "src/balls/removal_policies.hpp"
#include "src/balls/scenario_a.hpp"
#include "src/balls/scenario_b.hpp"
#include "src/core/cftp.hpp"
#include "src/kernel/choice_block.hpp"
#include "src/kernel/kernel.hpp"
#include "src/obs/run_record.hpp"
#include "src/obs/trace.hpp"
#include "src/obs/trace_buffer.hpp"
#include "src/orient/coupling.hpp"
#include "src/orient/state.hpp"
#include "src/rng/distributions.hpp"
#include "src/rng/engines.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

using recover::balls::AbkuRule;
using recover::balls::AdapRule;
using recover::balls::LoadVector;
using recover::balls::ThresholdSchedule;
using recover::rng::Xoshiro256PlusPlus;

void BM_SampleBallWeightedFenwick(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256PlusPlus eng(1);
  const LoadVector v =
      recover::balls::random_load_vector(n, static_cast<std::int64_t>(4 * n),
                                         eng, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.sample_ball_weighted(eng));
  }
}
BENCHMARK(BM_SampleBallWeightedFenwick)->Range(64, 16384);

void BM_SampleBallWeightedLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256PlusPlus eng(1);
  const LoadVector v =
      recover::balls::random_load_vector(n, static_cast<std::int64_t>(4 * n),
                                         eng, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.sample_ball_weighted_linear(eng));
  }
}
BENCHMARK(BM_SampleBallWeightedLinear)->Range(64, 16384);

void BM_AddRemoveRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256PlusPlus eng(2);
  LoadVector v =
      recover::balls::random_load_vector(n, static_cast<std::int64_t>(2 * n),
                                         eng, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t bin = i++ % n;
    // add_at may normalize to the run head; remove the ball that was
    // actually placed so the state (and ball count) is preserved.
    const std::size_t placed = v.add_at(bin);
    v.remove_at(placed);
    benchmark::DoNotOptimize(v.load(placed));
  }
}
BENCHMARK(BM_AddRemoveRoundTrip)->Range(64, 16384);

void BM_ScenarioAStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<int>(state.range(1));
  Xoshiro256PlusPlus eng(3);
  recover::balls::ScenarioAChain<AbkuRule> chain(
      LoadVector::balanced(n, static_cast<std::int64_t>(n)), AbkuRule(d));
  for (auto _ : state) {
    chain.step(eng);
  }
  benchmark::DoNotOptimize(chain.state().max_load());
}
BENCHMARK(BM_ScenarioAStep)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({16384, 2});

void BM_ScenarioBStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<int>(state.range(1));
  Xoshiro256PlusPlus eng(4);
  recover::balls::ScenarioBChain<AbkuRule> chain(
      LoadVector::balanced(n, static_cast<std::int64_t>(n)), AbkuRule(d));
  for (auto _ : state) {
    chain.step(eng);
  }
  benchmark::DoNotOptimize(chain.state().max_load());
}
BENCHMARK(BM_ScenarioBStep)->Args({1024, 2})->Args({16384, 2});

void BM_ScenarioAAdapStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256PlusPlus eng(5);
  recover::balls::ScenarioAChain<AdapRule> chain(
      LoadVector::balanced(n, static_cast<std::int64_t>(n)),
      AdapRule{ThresholdSchedule::linear(1, 1, 5)});
  for (auto _ : state) {
    chain.step(eng);
  }
  benchmark::DoNotOptimize(chain.state().max_load());
}
BENCHMARK(BM_ScenarioAAdapStep)->Arg(1024)->Arg(16384);

void BM_GrandCouplingAStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256PlusPlus eng(6);
  recover::balls::GrandCouplingA<AbkuRule> coupling(
      LoadVector::all_in_one(n, static_cast<std::int64_t>(n)),
      LoadVector::balanced(n, static_cast<std::int64_t>(n)), AbkuRule(2));
  for (auto _ : state) {
    coupling.step(eng);
  }
  benchmark::DoNotOptimize(coupling.distance());
}
BENCHMARK(BM_GrandCouplingAStep)->Arg(1024)->Arg(16384);

void BM_OrientationStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256PlusPlus eng(7);
  recover::orient::DiffState s =
      recover::orient::DiffState::spread(n, static_cast<std::int64_t>(n / 2));
  for (auto _ : state) {
    s.step(eng);
  }
  benchmark::DoNotOptimize(s.unfairness());
}
BENCHMARK(BM_OrientationStep)->Arg(1024)->Arg(16384);

void BM_RemovalPolicyStep(benchmark::State& state) {
  // Fullest-of-d removal + ABKU[2] insertion (the exp15 active drain).
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256PlusPlus eng(8);
  recover::balls::GeneralChain<recover::balls::MaxOfDNonEmptyRemoval<2>,
                               AbkuRule>
      chain(LoadVector::balanced(n, static_cast<std::int64_t>(n)),
            recover::balls::MaxOfDNonEmptyRemoval<2>{}, AbkuRule(2));
  for (auto _ : state) {
    chain.step(eng);
  }
  benchmark::DoNotOptimize(chain.state().max_load());
}
BENCHMARK(BM_RemovalPolicyStep)->Arg(1024)->Arg(16384);

void BM_LabeledOracleStepA(benchmark::State& state) {
  // The naive labeled oracle (linear scans) vs BM_ScenarioAStep: the
  // price of skipping the normalized representation.
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256PlusPlus eng(9);
  recover::balls::LabeledScenarioA chain(
      recover::balls::LabeledState::from_loads(
          std::vector<std::int64_t>(n, 1)),
      2);
  for (auto _ : state) {
    chain.step(eng);
  }
  benchmark::DoNotOptimize(chain.state().balls());
}
BENCHMARK(BM_LabeledOracleStepA)->Arg(1024)->Arg(16384);

void BM_CftpSample(benchmark::State& state) {
  // Full exact stationary draw (doubling windows included).
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t s = 0;
  for (auto _ : state) {
    recover::core::CftpOptions opts;
    opts.seed = recover::rng::derive_stream_seed(11, s++);
    const auto sample = recover::core::cftp_sample(
        [&]() {
          return recover::balls::GrandCouplingA<AbkuRule>(
              LoadVector::all_in_one(n, static_cast<std::int64_t>(n)),
              LoadVector::balanced(n, static_cast<std::int64_t>(n)),
              AbkuRule(2));
        },
        opts);
    benchmark::DoNotOptimize(sample->max_load());
  }
}
BENCHMARK(BM_CftpSample)->Arg(32)->Arg(128);

void BM_OrientationDistance(benchmark::State& state) {
  // Bounded Dijkstra over the section-6 premetric (k = limit = 3).
  const recover::orient::DiffState base =
      recover::orient::DiffState::from_diffs({3, 2, 1, 0, 0, -1, -2, -3});
  const auto x = recover::orient::CountState::from_diff_state(base, 3);
  const auto nbs = recover::orient::sbar_neighbors(x);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [y, k] = nbs[i++ % nbs.size()];
    benchmark::DoNotOptimize(
        recover::orient::orientation_distance(x, y, k + 2));
  }
}
BENCHMARK(BM_OrientationDistance);

// ---- kernel rows (BENCH_kernels.json + scripts/perf_gate.py) ---------
//
// Scalar/Batched pairs measure the same work — one block's worth of
// steps per iteration — through the two kernel paths (forced with
// kernel::ScopedMode, so the rows compose with the rest of the binary in
// any order), so the within-run cpu-time ratio is the kernel speedup
// (machine-independent; perf_gate.py enforces a floor on it).  The
// unpaired fill row is the raw-word throughput baseline for the engine's
// block API.

void BM_KernelFillXoshiro(benchmark::State& state) {
  Xoshiro256PlusPlus eng(11);
  std::array<std::uint64_t, recover::kernel::kBatchSteps> out;
  for (auto _ : state) {
    eng.fill(out.data(), out.size());
    benchmark::DoNotOptimize(out[0] ^ out[out.size() - 1]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_KernelFillXoshiro);

// The d-choice pair.  Xoshiro's recurrence is serial, so the batched
// win is the fused map/reduce riding under the recurrence's dependency
// chain.
void BM_KernelDChoiceScalarXoshiro(benchmark::State& state) {
  // One block of ABKU[d] selections, drawn the scalar way: d engine
  // calls + d Lemire maps + a running max per selection.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto d = static_cast<int>(state.range(1));
  Xoshiro256PlusPlus eng(12);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < recover::kernel::kBatchSteps; ++i) {
      acc ^= recover::rng::max_of_d_uniform(eng, n, d);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(recover::kernel::kBatchSteps));
}
BENCHMARK(BM_KernelDChoiceScalarXoshiro)
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({16384, 2});

void BM_KernelDChoiceBatchedXoshiro(benchmark::State& state) {
  // The same block of selections through DChoiceBatch: the map+reduce
  // pass fused into the engine's fill.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto d = static_cast<int>(state.range(1));
  Xoshiro256PlusPlus eng(12);
  recover::kernel::DChoiceBatch batch;
  for (auto _ : state) {
    batch.fill(eng, n, d, recover::kernel::kBatchSteps, /*leads_per_step=*/0);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < recover::kernel::kBatchSteps; ++i) {
      acc ^= batch.choice(i);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(recover::kernel::kBatchSteps));
}
BENCHMARK(BM_KernelDChoiceBatchedXoshiro)
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({16384, 2});

template <recover::kernel::Mode kMode>
void BM_KernelPhaseA(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const recover::kernel::ScopedMode scoped(kMode);
  Xoshiro256PlusPlus eng(13);
  recover::balls::ScenarioAChain<AbkuRule> chain(
      LoadVector::balanced(n, static_cast<std::int64_t>(n)), AbkuRule(2));
  for (auto _ : state) {
    recover::kernel::advance(
        chain, eng, static_cast<std::int64_t>(recover::kernel::kBatchSteps));
  }
  benchmark::DoNotOptimize(chain.state().max_load());
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(recover::kernel::kBatchSteps));
}
void BM_KernelPhaseAScalar(benchmark::State& state) {
  BM_KernelPhaseA<recover::kernel::Mode::kScalar>(state);
}
void BM_KernelPhaseABatched(benchmark::State& state) {
  BM_KernelPhaseA<recover::kernel::Mode::kBatched>(state);
}
BENCHMARK(BM_KernelPhaseAScalar)->Arg(1024);
BENCHMARK(BM_KernelPhaseABatched)->Arg(1024);

template <recover::kernel::Mode kMode>
void BM_KernelPhaseB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const recover::kernel::ScopedMode scoped(kMode);
  Xoshiro256PlusPlus eng(14);
  recover::balls::ScenarioBChain<AbkuRule> chain(
      LoadVector::balanced(n, static_cast<std::int64_t>(n)), AbkuRule(2));
  for (auto _ : state) {
    recover::kernel::advance(
        chain, eng, static_cast<std::int64_t>(recover::kernel::kBatchSteps));
  }
  benchmark::DoNotOptimize(chain.state().max_load());
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(recover::kernel::kBatchSteps));
}
void BM_KernelPhaseBScalar(benchmark::State& state) {
  BM_KernelPhaseB<recover::kernel::Mode::kScalar>(state);
}
void BM_KernelPhaseBBatched(benchmark::State& state) {
  BM_KernelPhaseB<recover::kernel::Mode::kBatched>(state);
}
BENCHMARK(BM_KernelPhaseBScalar)->Arg(1024);
BENCHMARK(BM_KernelPhaseBBatched)->Arg(1024);

template <recover::kernel::Mode kMode>
void BM_KernelCouplingA(benchmark::State& state) {
  // Lockstep grand-coupling advance: both copies through one shared
  // choice block per chunk.
  const auto n = static_cast<std::size_t>(state.range(0));
  const recover::kernel::ScopedMode scoped(kMode);
  Xoshiro256PlusPlus eng(15);
  recover::balls::GrandCouplingA<AbkuRule> coupling(
      LoadVector::all_in_one(n, static_cast<std::int64_t>(n)),
      LoadVector::balanced(n, static_cast<std::int64_t>(n)), AbkuRule(2));
  for (auto _ : state) {
    recover::kernel::advance(
        coupling, eng,
        static_cast<std::int64_t>(recover::kernel::kBatchSteps));
  }
  benchmark::DoNotOptimize(coupling.distance());
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(recover::kernel::kBatchSteps));
}
void BM_KernelCouplingAScalar(benchmark::State& state) {
  BM_KernelCouplingA<recover::kernel::Mode::kScalar>(state);
}
void BM_KernelCouplingABatched(benchmark::State& state) {
  BM_KernelCouplingA<recover::kernel::Mode::kBatched>(state);
}
BENCHMARK(BM_KernelCouplingAScalar)->Arg(1024);
BENCHMARK(BM_KernelCouplingABatched)->Arg(1024);

// ---- observability overhead (BENCH_trace.json tracks these) ----------
//
// The cost of one obs::ScopedSpan construct/destruct pair under each
// switch state.  "Off" is the price every instrumented hot loop pays
// unconditionally (two relaxed loads + branches, no clock read); the
// enabled variants add the clock reads plus the histogram fetch_add
// and/or two ring pushes.

// Restores the metrics/trace switches around a benchmark so the span
// suite composes with the rest of the binary in any order.
class SwitchGuard {
 public:
  SwitchGuard(bool metrics, bool trace)
      : metrics_was_(recover::obs::metrics_enabled()),
        trace_was_(recover::obs::trace_enabled()) {
    recover::obs::set_metrics_enabled(metrics);
    recover::obs::set_trace_enabled(trace);
  }
  ~SwitchGuard() {
    recover::obs::set_metrics_enabled(metrics_was_);
    recover::obs::set_trace_enabled(trace_was_);
  }

 private:
  bool metrics_was_;
  bool trace_was_;
};

recover::obs::Histogram& span_bench_histogram() {
  static recover::obs::Histogram& h =
      recover::obs::Registry::global().histogram("bench.span_ns");
  return h;
}

void BM_SpanRecordOff(benchmark::State& state) {
  SwitchGuard guard(false, false);
  auto& h = span_bench_histogram();
  for (auto _ : state) {
    recover::obs::ScopedSpan span(h);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanRecordOff);

void BM_SpanRecordMetrics(benchmark::State& state) {
  SwitchGuard guard(true, false);
  auto& h = span_bench_histogram();
  for (auto _ : state) {
    recover::obs::ScopedSpan span(h);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanRecordMetrics);

void BM_SpanRecordTrace(benchmark::State& state) {
  // Rings overwrite their oldest events, so a long benchmark run stays
  // within the fixed per-thread footprint.
  SwitchGuard guard(false, true);
  auto& h = span_bench_histogram();
  for (auto _ : state) {
    recover::obs::ScopedSpan span(h);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanRecordTrace);

void BM_SpanRecordBoth(benchmark::State& state) {
  SwitchGuard guard(true, true);
  auto& h = span_bench_histogram();
  for (auto _ : state) {
    recover::obs::ScopedSpan span(h);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanRecordBoth);

void BM_TraceInstant(benchmark::State& state) {
  SwitchGuard guard(false, true);
  for (auto _ : state) {
    recover::obs::trace::instant("bench.instant", "k", 1);
  }
}
BENCHMARK(BM_TraceInstant);

// Console reporter that also captures every finished benchmark into a
// util::Table, so the run record holds exactly the rows that were
// printed (name, iterations, adjusted real/cpu ns per iteration).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  // Default OO_Defaults forces color codes even into pipes; only color
  // when stdout is actually a terminal.
  explicit CapturingReporter(recover::util::Table& table)
      : benchmark::ConsoleReporter(isatty(fileno(stdout)) != 0
                                       ? OO_ColorTabular
                                       : OO_Tabular),
        table_(table) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const auto& r : reports) {
      if (r.error_occurred) continue;
      table_.row()
          .add(r.benchmark_name())
          .integer(static_cast<std::int64_t>(r.iterations))
          .num(r.GetAdjustedRealTime(), 2)
          .num(r.GetAdjustedCPUTime(), 2);
    }
  }

 private:
  recover::util::Table& table_;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the obs flags (--json-out,
// --metrics, --progress) are split off first and every remaining
// --benchmark_* token is forwarded to google-benchmark untouched.
int main(int argc, char** argv) {
  using namespace recover;

  util::Cli cli("bench_microbench",
                "google-benchmark micro suite: per-step costs + ablations");
  obs::register_cli_flags(cli);
  auto leftovers = cli.parse_known(argc, argv);
  obs::Run run(cli);

  std::string prog = cli.program();
  std::vector<char*> bench_argv;
  bench_argv.push_back(prog.data());
  for (auto& token : leftovers) bench_argv.push_back(token.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }

  util::Table table({"benchmark", "iterations", "real_ns", "cpu_ns"});
  CapturingReporter reporter(table);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  run.add_table("microbench", table);
  return 0;
}
