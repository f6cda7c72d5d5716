#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "obs/telemetry.h"
#include "sparse/generate.h"

namespace cosparse::graph {
namespace {

runtime::IterationRecord record(runtime::SwConfig sw, bool sw_sw, bool hw_sw,
                                Cycles cycles) {
  runtime::IterationRecord r;
  r.sw = sw;
  r.sw_switched = sw_sw;
  r.hw_switched = hw_sw;
  r.cycles = cycles;
  return r;
}

TEST(AlgoStats, SwitchCounters) {
  AlgoStats s;
  s.per_iteration = {
      record(runtime::SwConfig::kOP, false, true, 10),
      record(runtime::SwConfig::kIP, true, true, 20),
      record(runtime::SwConfig::kIP, false, false, 30),
      record(runtime::SwConfig::kOP, true, true, 5),
  };
  EXPECT_EQ(s.sw_switches(), 2u);
  EXPECT_EQ(s.hw_switches(), 3u);
}

TEST(AlgoStats, TimeEnergyPowerConversions) {
  AlgoStats s;
  s.cycles = 2'000'000;     // 2 ms at 1 GHz
  s.energy_pj = 4e9;        // 4 mJ
  EXPECT_DOUBLE_EQ(s.seconds(1.0), 2e-3);
  EXPECT_DOUBLE_EQ(s.joules(), 4e-3);
  EXPECT_DOUBLE_EQ(s.watts(1.0), 2.0);
  // A 2 GHz clock halves the wall time and doubles power.
  EXPECT_DOUBLE_EQ(s.seconds(2.0), 1e-3);
  EXPECT_DOUBLE_EQ(s.watts(2.0), 4.0);
}

TEST(AlgoStats, ZeroCyclesZeroWatts) {
  AlgoStats s;
  EXPECT_DOUBLE_EQ(s.watts(), 0.0);
}

TEST(AlgoStats, TelemetryHistogramsCarryTheAlgorithmTallies) {
  // The algo.<name>.* histograms are where per-algorithm tallies are read
  // from: wall_ms counts runs, iter_cycles counts iterations and sums
  // their SpMV cycles.
  obs::Telemetry tel;
  runtime::EngineOptions opts;
  opts.telemetry = &tel;
  runtime::Engine eng(sparse::uniform_random(800, 800, 6400, 3,
                                             sparse::ValueDist::kUniform01),
                      sim::SystemConfig::transmuter(2, 4), opts);
  const AlgoStats a = bfs(eng, 0).stats;
  const AlgoStats b = bfs(eng, 1).stats;
  ASSERT_GT(a.iterations + b.iterations, 0u);
  Cycles spmv_cycles = 0;
  for (const AlgoStats* s : {&a, &b}) {
    for (const runtime::IterationRecord& r : s->per_iteration) {
      spmv_cycles += r.cycles;
    }
  }

  const obs::StreamingHistogram* wall = tel.find_histogram("algo.bfs.wall_ms");
  const obs::StreamingHistogram* cycles =
      tel.find_histogram("algo.bfs.iter_cycles");
  ASSERT_NE(wall, nullptr);
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(wall->count(), 2u);
  EXPECT_EQ(cycles->count(), std::uint64_t{a.iterations} + b.iterations);
  EXPECT_EQ(cycles->sum(), static_cast<double>(spmv_cycles));
  // AlgoStats::cycles also covers BFS's per-level apply passes, which run
  // outside spmv() and so are in no iteration record.
  EXPECT_LT(cycles->sum(), static_cast<double>(a.cycles + b.cycles));
}

}  // namespace
}  // namespace cosparse::graph
