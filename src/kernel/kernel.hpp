// Kernel dispatch: routes multi-step bursts through the batched
// choice-block kernels (choice_block.hpp) or the scalar one-step-at-a-
// time path.
//
// Production always takes the batched path where it can: the burst is at
// least kMinBatchSteps long, d ≤ kMaxBatchedProbes, and the type has a
// step_block.  Everything else runs the plain `for (...) obj.step(eng)`
// loop.  Both paths consume the engine word-for-word identically, so
// every experiment, sweep cell and serve reply is byte-identical across
// them.  set_mode(Mode::kScalar) forces the scalar reference in-process;
// tests/kernel_test.cpp and certify's scalar_vs_batched property use it
// to hold the batched path to that contract.
#pragma once

#include <cstdint>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace recover::kernel {

enum class Mode { kScalar, kBatched };

/// Active kernel mode: kBatched unless set_mode forced the scalar path.
Mode mode() noexcept;

/// Forces a mode for the whole process (tests, certify, benchmarks);
/// returns the previous one.
Mode set_mode(Mode m) noexcept;

/// Holds a mode for one scope and restores the previous one on exit, so
/// a failing check cannot leak its mode into the rest of the process.
class ScopedMode {
 public:
  explicit ScopedMode(Mode m) noexcept : previous_(set_mode(m)) {}
  ~ScopedMode() { set_mode(previous_); }
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  Mode previous_;
};

/// Bursts below this many steps stay scalar even in batched mode: a
/// coupling polled every step or two near coalescence would pay block
/// setup for nothing.
inline constexpr std::int64_t kMinBatchSteps = 8;

namespace detail {
obs::Counter& steps_batched() noexcept;
obs::Counter& steps_scalar() noexcept;
obs::Histogram& step_block_ns() noexcept;
}  // namespace detail

/// Advances `obj` (a chain or grand coupling) by `steps` steps.
/// Dispatches to obj.step_block(eng, steps) when the type provides one
/// and the batched mode is active; otherwise runs the scalar loop.
/// Results are byte-identical either way.
template <typename Obj, typename Engine>
void advance(Obj& obj, Engine& eng, std::int64_t steps) {
  if (steps <= 0) return;
  if constexpr (requires { obj.step_block(eng, steps); }) {
    if (steps >= kMinBatchSteps && mode() == Mode::kBatched) {
      obs::ScopedSpan span(detail::step_block_ns());
      obj.step_block(eng, steps);
      detail::steps_batched().add(static_cast<std::uint64_t>(steps));
      return;
    }
  }
  for (std::int64_t k = 0; k < steps; ++k) obj.step(eng);
  detail::steps_scalar().add(static_cast<std::uint64_t>(steps));
}

}  // namespace recover::kernel
