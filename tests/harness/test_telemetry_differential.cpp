// Telemetry bit-neutrality harness.
//
// Telemetry reads wall clocks and simulator state but never writes back
// into the simulation, so the simulated-results subset of a run report —
// everything except the wall-clock-bearing "telemetry" section — must be
// byte-identical between a telemetry-on and a telemetry-off run of the
// same workload. This is the same `obs::results_subset` document
// `cosparse-prof extract` emits and the CI byte-compare diffs; these tests
// enforce the guarantee in-process.
#include <gtest/gtest.h>

#include <string>

#include "kernels/semiring.h"
#include "obs/report.h"
#include "obs/telemetry.h"
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
/// frontier conversions, hw reconfigurations) with an optional telemetry
/// registry attached. Returns the full run-report document.
Json run_report(obs::Telemetry* telemetry) {
  EngineOptions opts;
  opts.telemetry = telemetry;
  Engine eng(test_matrix(), sim::SystemConfig::transmuter(4, 4), opts);
  int iter = 0;
  for (const double density : {0.002, 0.03, 0.4, 0.9, 0.01}) {
    const auto x = sparse::random_sparse_vector(kDim, density, 41 + iter++);
    eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
  }
  return runtime::make_run_report(eng, "telemetry_differential").root();
}

TEST(TelemetryDifferential, ResultsSubsetIsByteIdenticalWithTelemetryOn) {
  obs::Telemetry telemetry(obs::TelemetryConfig::parse("1i"));
  const Json on = run_report(&telemetry);
  const Json off = run_report(nullptr);

  // The instrumented run really did take snapshots and grow a telemetry
  // section — otherwise this test would compare two identical code paths.
  EXPECT_GT(telemetry.snapshots_taken(), 0u);
  EXPECT_NE(on.find("telemetry"), nullptr);
  EXPECT_EQ(off.find("telemetry"), nullptr);

  EXPECT_EQ(obs::results_subset(on).dump(1), obs::results_subset(off).dump(1));
}

TEST(TelemetryDifferential, WallClockCadenceIsAlsoBitNeutral) {
  // Wall-clock cadence snapshots can fire at arbitrary points relative to
  // the simulation; the simulated results must not care.
  obs::Telemetry telemetry(obs::TelemetryConfig::parse("1ms"));
  const Json on = run_report(&telemetry);
  const Json off = run_report(nullptr);
  EXPECT_EQ(obs::results_subset(on).dump(1), obs::results_subset(off).dump(1));
}

}  // namespace
}  // namespace cosparse
