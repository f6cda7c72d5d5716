// Differential harness for shared prepared matrices (DESIGN.md §11).
//
// The guarantee under test: engines built on one runtime::PreparedMatrix,
// running concurrently on different host threads, produce run reports
// byte-identical to engines that built their layouts privately from the
// COO adjacency — outputs, iteration logs, decision audit and, in sim
// mode, every simulated cycle and cache statistic. Each engine keeps its
// own AddressMap, so sharing host buffers must not move any simulated
// address.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.h"
#include "common/error.h"
#include "graph/algorithms.h"
#include "native/exec_mode.h"
#include "obs/report.h"
#include "runtime/engine.h"
#include "runtime/report.h"
#include "sparse/datasets.h"

namespace cosparse {
namespace {

using runtime::Engine;
using runtime::EngineOptions;
using runtime::PreparedMatrix;

const sim::SystemConfig kSystem = sim::SystemConfig::transmuter(2, 2);

const sparse::Graph& test_graph() {
  static const sparse::Graph g =
      sparse::DatasetRegistry().load("twitter", 128, 0);
  return g;
}

EngineOptions options(native::ExecMode mode) {
  EngineOptions opts;
  opts.exec_mode = mode;
  opts.sim_threads = 0;
  return opts;
}

/// Runs bfs, sssp, pagerank and cf back to back on one engine (as a served
/// batch does) and returns a digest of every result bit followed by the
/// engine's run report without its wall-clock sections.
std::string run_all(Engine& eng) {
  const sparse::Graph& g = test_graph();
  Digest d;
  for (const std::int64_t level : graph::bfs(eng, 1).level)
    d.update_u64(static_cast<std::uint64_t>(level));
  for (const Value dist : graph::sssp(eng, 2).dist) d.update_value(dist);
  graph::PageRankOptions pr;
  pr.max_iterations = 5;
  for (const Value rank : graph::pagerank(eng, g.out_degrees(), pr).rank)
    d.update_value(rank);
  graph::CfOptions cf;
  cf.iterations = 2;
  for (const Value v : graph::cf(eng, g.adjacency(), cf).latent)
    d.update_value(v);
  return d.hex() + "\n" +
         obs::results_subset(
             runtime::make_run_report(eng, "prepared_differential").root())
             .dump(1);
}

class PreparedMatrixDifferential
    : public ::testing::TestWithParam<native::ExecMode> {};

TEST_P(PreparedMatrixDifferential, ConcurrentSharedEnginesMatchPrivateOnes) {
  const EngineOptions opts = options(GetParam());
  std::string reference;
  {
    Engine eng(test_graph().adjacency(), kSystem, opts);
    reference = run_all(eng);
  }
  const std::shared_ptr<const PreparedMatrix> prepared =
      PreparedMatrix::build(test_graph().adjacency(), kSystem, opts);
  constexpr int kThreads = 2;
  std::vector<std::string> shared(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Engine eng(prepared, kSystem, opts);
      shared[static_cast<std::size_t>(t)] = run_all(eng);
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shared[static_cast<std::size_t>(t)], reference)
        << "engine " << t << " on the shared prepared matrix diverged";
  }
  // The engines are gone; the caller's reference is the last one.
  EXPECT_EQ(prepared.use_count(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, PreparedMatrixDifferential,
    ::testing::Values(native::ExecMode::kSim, native::ExecMode::kNative),
    [](const ::testing::TestParamInfo<native::ExecMode>& info) {
      return std::string(native::to_string(info.param));
    });

TEST(PreparedMatrixDifferentialKey, MismatchedKeyThrows) {
  const EngineOptions opts = options(native::ExecMode::kNative);
  const auto prepared =
      PreparedMatrix::build(test_graph().adjacency(), kSystem, opts);
  EXPECT_NO_THROW((void)Engine(prepared, kSystem, opts));
  // Options that do not shape the layouts may differ freely.
  EngineOptions sim_mode = opts;
  sim_mode.exec_mode = native::ExecMode::kSim;
  sim_mode.hw_reconfig = false;
  EXPECT_NO_THROW((void)Engine(prepared, kSystem, sim_mode));
  // Anything in the key may not.
  EXPECT_THROW(
      (void)Engine(prepared, sim::SystemConfig::transmuter(4, 2), opts),
      Error);
  EngineOptions unbalanced = opts;
  unbalanced.nnz_balanced = false;
  EXPECT_THROW((void)Engine(prepared, kSystem, unbalanced), Error);
  EngineOptions unblocked = opts;
  unblocked.vblocked = false;
  EXPECT_THROW((void)Engine(prepared, kSystem, unblocked), Error);
  EXPECT_THROW((void)Engine(nullptr, kSystem, opts), Error);
}

}  // namespace
}  // namespace cosparse
