#include "src/kernel/kernel.hpp"

#include <atomic>

namespace recover::kernel {
namespace {

std::atomic<Mode> g_mode{Mode::kBatched};

}  // namespace

Mode mode() noexcept { return g_mode.load(std::memory_order_relaxed); }

Mode set_mode(Mode m) noexcept {
  return g_mode.exchange(m, std::memory_order_relaxed);
}

namespace detail {

// Registered eagerly like the rng draw counters: no function-local
// static guard on the advance() hot path.
obs::Counter& g_steps_batched =
    obs::Registry::global().counter("kernel.steps.batched");
obs::Counter& g_steps_scalar =
    obs::Registry::global().counter("kernel.steps.scalar");
obs::Histogram& g_step_block_ns =
    obs::Registry::global().histogram("kernel.step_block_ns");

obs::Counter& steps_batched() noexcept { return g_steps_batched; }
obs::Counter& steps_scalar() noexcept { return g_steps_scalar; }
obs::Histogram& step_block_ns() noexcept { return g_step_block_ns; }

}  // namespace detail
}  // namespace recover::kernel
