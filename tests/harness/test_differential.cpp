// Differential harness for the host-thread knob on the simulator.
//
// The oracle is the full run report: make_run_report() serializes every
// observable of a run — cycle counts, global and per-tile Stats, derived
// rates, the region-attributed memory profile and the decision audit
// trail. The cycle-accurate simulator always runs serially, so a kSim
// engine must ignore `sim_threads` (it only sizes the native backend's
// pool): the report is byte-identical to the sim_threads = 0 one for every
// sw/hw configuration pair, including under the full auto-reconfiguring
// decision flow, and no thread pool is started. Every thread count takes
// the same serial path, so one leg (8 threads) covers them all.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <tuple>
#include <utility>

#include "kernels/semiring.h"
#include "runtime/engine.h"
#include "runtime/report.h"
#include "sim/machine.h"
#include "sim/parallel.h"
#include "sim/profile.h"
#include "sparse/generate.h"

namespace cosparse {
namespace {

using kernels::PlainSpmv;
using runtime::Engine;
using runtime::EngineOptions;
using runtime::SwConfig;

constexpr Index kDim = 600;
constexpr std::uint64_t kNnz = 7200;

sparse::Coo test_matrix() {
  return sparse::uniform_random(kDim, kDim, kNnz, 11,
                                sparse::ValueDist::kUniform01);
}

/// Pinned-configuration engine run -> serialized run report. `threads = 0`
/// is the serial reference leg, also when COSPARSE_SIM_THREADS is set.
std::string pinned_report(SwConfig sw, sim::HwConfig hw,
                          std::uint32_t threads) {
  EngineOptions opts;
  opts.sw_reconfig = false;
  opts.hw_reconfig = false;
  opts.fixed_sw = sw;
  opts.fixed_hw = hw;
  opts.sim_threads = threads;
  Engine eng(test_matrix(), sim::SystemConfig::transmuter(4, 4), opts);
  EXPECT_EQ(eng.executor(), nullptr) << "a sim engine owns no thread pool";
  sim::MemProfiler prof;
  eng.machine().set_profiler(&prof);
  int iter = 0;
  for (const double density : {0.004, 0.05, 0.6}) {
    const auto x = sparse::random_sparse_vector(kDim, density, 23 + iter++);
    eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
  }
  return runtime::make_run_report(eng, "differential").to_string();
}

/// Auto-deciding engine run (sw + hw reconfiguration enabled) across a
/// density ramp that crosses the IP/OP decision boundary, so the sequence
/// includes kernel switches, frontier conversions and hardware
/// reconfigurations (cache flushes).
std::string auto_report(std::uint32_t threads) {
  EngineOptions opts;
  opts.sim_threads = threads;
  Engine eng(test_matrix(), sim::SystemConfig::transmuter(4, 4), opts);
  sim::MemProfiler prof;
  eng.machine().set_profiler(&prof);
  int iter = 0;
  for (const double density : {0.0008, 0.003, 0.03, 0.3, 0.9, 0.02, 0.001}) {
    const auto x = sparse::random_sparse_vector(kDim, density, 31 + iter++);
    eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
  }
  return runtime::make_run_report(eng, "differential").to_string();
}

using ConfigPair = std::pair<SwConfig, sim::HwConfig>;
using Params = std::tuple<ConfigPair, std::uint32_t>;

class DifferentialHarness : public ::testing::TestWithParam<Params> {};

TEST_P(DifferentialHarness, RunReportBitIdenticalToSerial) {
  const auto [cfg, threads] = GetParam();
  const std::string serial = pinned_report(cfg.first, cfg.second, 0);
  const std::string threaded = pinned_report(cfg.first, cfg.second, threads);
  EXPECT_EQ(serial, threaded)
      << "sim_threads = " << threads << " changed the simulated report";
}

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  const ConfigPair cfg = std::get<0>(info.param);
  std::string name = cfg.first == SwConfig::kIP ? "IP" : "OP";
  name += sim::to_string(cfg.second);
  name += "x" + std::to_string(std::get<1>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, DifferentialHarness,
    ::testing::Combine(
        ::testing::Values(ConfigPair{SwConfig::kIP, sim::HwConfig::kSC},
                          ConfigPair{SwConfig::kIP, sim::HwConfig::kSCS},
                          ConfigPair{SwConfig::kOP, sim::HwConfig::kPC},
                          ConfigPair{SwConfig::kOP, sim::HwConfig::kPS}),
        ::testing::Values(8u)),
    param_name);

TEST(DifferentialHarnessAuto, ReconfiguringSequenceBitIdenticalToSerial) {
  EXPECT_EQ(auto_report(0), auto_report(8));
}

/// Host threads of this process (Linux /proc/self/status), or -1 when the
/// count is unavailable.
int host_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(SimEngineThreads, FourThreadsMatchSerialAndStartNoPool) {
  // perfbench's report_identical_to_serial gate, in-process.
  const int before = host_threads();
  EngineOptions opts;
  opts.sim_threads = 4;
  Engine threaded(test_matrix(), sim::SystemConfig::transmuter(4, 4), opts);
  EXPECT_EQ(threaded.executor(), nullptr);
  if (before >= 0) EXPECT_EQ(host_threads(), before);
  opts.sim_threads = 0;
  Engine serial(test_matrix(), sim::SystemConfig::transmuter(4, 4), opts);
  for (Engine* eng : {&threaded, &serial}) {
    for (const double density : {0.002, 0.2}) {
      const auto x = sparse::random_sparse_vector(kDim, density, 5);
      eng->spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
    }
  }
  EXPECT_EQ(runtime::make_run_report(threaded, "differential").to_string(),
            runtime::make_run_report(serial, "differential").to_string());

  // The knob is live where it belongs: a native engine owns the pool.
  opts.sim_threads = 4;
  opts.exec_mode = native::ExecMode::kNative;
  const Engine native_eng(test_matrix(), sim::SystemConfig::transmuter(4, 4),
                          opts);
  ASSERT_NE(native_eng.executor(), nullptr);
  EXPECT_EQ(native_eng.executor()->num_threads(), 4u);
}

}  // namespace
}  // namespace cosparse
