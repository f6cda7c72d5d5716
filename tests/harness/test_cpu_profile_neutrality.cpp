// CPU-profiler bit-neutrality harness.
//
// The sampling profiler reads program counters and phase tags from a
// SIGPROF handler but never writes into the simulation, so the
// simulated-results subset of a run report — everything except the
// wall-clock-bearing "telemetry" and "cpu_profile" sections — must be
// byte-identical between a profiled and an unprofiled run of the same
// workload, also while SIGPROF lands on a native engine's pool workers.
// Same guarantee the CI byte-compare (cosparse-prof extract + cmp)
// enforces end-to-end.
//
// (Named CpuProfileNeutrality, not *Differential*: the TSan CI lane's
// test filter must not pick up a suite that arms a process-wide signal
// timer under instrumentation it doesn't model.)
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>

#include "kernels/semiring.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "runtime/engine.h"
#include "runtime/report.h"
#include "sim/machine.h"
#include "sparse/generate.h"

namespace cosparse {
namespace {

using kernels::PlainSpmv;
using runtime::Engine;
using runtime::EngineOptions;

constexpr Index kDim = 500;
constexpr std::uint64_t kNnz = 6000;

sparse::Coo test_matrix() {
  return sparse::uniform_random(kDim, kDim, kNnz, 17,
                                sparse::ValueDist::kUniform01);
}

/// Auto-deciding engine run across a density ramp (kernel switches,
/// frontier conversions, hw reconfigurations). The run is identical to
/// the telemetry harness's; the profiler, when on, samples it from the
/// outside via SIGPROF. `threads` sizes the native backend's pool; the
/// simulator always runs serially.
Json run_report(native::ExecMode mode = native::ExecMode::kSim,
                std::uint32_t threads = 0) {
  EngineOptions opts;
  opts.exec_mode = mode;
  opts.sim_threads = threads;
  Engine eng(test_matrix(), sim::SystemConfig::transmuter(4, 4), opts);
  int iter = 0;
  for (const double density : {0.002, 0.03, 0.4, 0.9, 0.01}) {
    const auto x = sparse::random_sparse_vector(kDim, density, 41 + iter++);
    eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
  }
  return runtime::make_run_report(eng, "cpu_profile_neutrality").root();
}

TEST(CpuProfileNeutrality, ResultsSubsetIsByteIdenticalWithProfilingOn) {
  if (!obs::SampleProfiler::platform_supported()) {
    GTEST_SKIP() << "no ITIMER_PROF on this platform";
  }
  const Json off = run_report();

  obs::SampleProfiler profiler;
  ASSERT_TRUE(profiler.start());
  Json on = run_report();
  // Keep the timer window open long enough to guarantee deliveries even
  // on hosts where ITIMER_PROF fires at jiffy resolution (~100 Hz) — the
  // engine run alone is only a few milliseconds of CPU.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  volatile std::uint64_t sink = 1;
  while (std::chrono::steady_clock::now() < until) {
    sink = sink * 6364136223846793005ull + 1u;
  }
  profiler.stop();

  // The instrumented run really was interrupted by the sampler —
  // otherwise this would compare two identical code paths. (A report's
  // cpu_profile section is attached by the CLI session layer, not
  // make_run_report, so both documents lack one here; what matters is
  // that the SIGPROF deliveries left the simulation untouched.)
  EXPECT_GT(profiler.num_samples(), 0u);
  EXPECT_EQ(obs::results_subset(on).dump(1),
            obs::results_subset(off).dump(1));
}

TEST(CpuProfileNeutrality, ParallelEngineStaysBitNeutralUnderSampling) {
  if (!obs::SampleProfiler::platform_supported()) {
    GTEST_SKIP() << "no ITIMER_PROF on this platform";
  }
  // Only a native engine runs its tile loops on host pool workers, so
  // this is the run where SIGPROF interrupts threads other than main.
  const std::string serial =
      obs::results_subset(run_report(native::ExecMode::kNative, 0)).dump(1);
  // One native run is well under a timer tick of CPU, so each window
  // repeats it for 100 ms of process CPU time, which ITIMER_PROF counts.
  // The kernel checks that timer only on scheduler ticks that land on
  // this process, so on a loaded host a window can pass without a
  // delivery; open windows until one lands.
  std::uint64_t delivered = 0;
  for (int window = 0; window < 20 && delivered == 0; ++window) {
    obs::SampleProfiler profiler;
    ASSERT_TRUE(profiler.start());
    const std::clock_t cpu_until = std::clock() + CLOCKS_PER_SEC / 10;
    do {
      const Json on = run_report(native::ExecMode::kNative, 4);
      ASSERT_EQ(obs::results_subset(on).dump(1), serial);
    } while (std::clock() < cpu_until);
    profiler.stop();
    // Pool workers push no phase tag, so their samples count as dropped.
    delivered = profiler.num_samples() + profiler.dropped_samples();
  }
  EXPECT_GT(delivered, 0u);
}

TEST(CpuProfileNeutrality, ResultsSubsetStripsACpuProfileSection) {
  // The extract path: a report carrying a cpu_profile section reduces to
  // the same subset as one without, so `cosparse-prof extract` + cmp can
  // gate profiled CI runs against unprofiled baselines.
  Json with = run_report();
  Json section = Json::object();
  section["schema"] = std::string(obs::kCpuProfileSchema);
  section["samples"] = 123;
  with["cpu_profile"] = std::move(section);
  const Json without = run_report();
  EXPECT_NE(with.find("cpu_profile"), nullptr);
  EXPECT_EQ(obs::results_subset(with).dump(1),
            obs::results_subset(without).dump(1));
}

}  // namespace
}  // namespace cosparse
