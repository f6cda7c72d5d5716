#include "runtime/report.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "graph/algorithms.h"
#include "kernels/semiring.h"
#include "sparse/generate.h"
#include "report_schema.h"

namespace cosparse::runtime {
namespace {

TEST(Report, IterationRecordRoundTripsThroughJson) {
  IterationRecord rec;
  rec.index = 7;
  rec.frontier_nnz = 1234;
  rec.density = 0.617;
  rec.sw = SwConfig::kOP;
  rec.hw = sim::HwConfig::kPS;
  rec.sw_switched = true;
  rec.hw_switched = true;
  rec.converted_frontier = true;
  rec.cycles = 987654;
  rec.convert_cycles = 4321;
  rec.energy_pj = 1.5e9;

  const IterationRecord back = iteration_record_from_json(to_json(rec));
  EXPECT_EQ(back.index, rec.index);
  EXPECT_EQ(back.frontier_nnz, rec.frontier_nnz);
  EXPECT_DOUBLE_EQ(back.density, rec.density);
  EXPECT_EQ(back.sw, rec.sw);
  EXPECT_EQ(back.hw, rec.hw);
  EXPECT_EQ(back.sw_switched, rec.sw_switched);
  EXPECT_EQ(back.hw_switched, rec.hw_switched);
  EXPECT_EQ(back.converted_frontier, rec.converted_frontier);
  EXPECT_EQ(back.cycles, rec.cycles);
  EXPECT_EQ(back.convert_cycles, rec.convert_cycles);
  EXPECT_DOUBLE_EQ(back.energy_pj, rec.energy_pj);
}

TEST(Report, IterationRecordFromJsonRejectsBadInput) {
  EXPECT_THROW((void)iteration_record_from_json(Json::parse("[]")), Error);
  // Missing required field.
  const Json full = to_json(IterationRecord{});
  Json without_cycles = Json::object();
  for (const auto& [key, value] : full.members()) {
    if (key != "cycles") without_cycles[key] = value;
  }
  EXPECT_THROW((void)iteration_record_from_json(without_cycles), Error);
  // Unknown dataflow name.
  Json bad = to_json(IterationRecord{});
  bad["sw"] = "XX";
  EXPECT_THROW((void)iteration_record_from_json(bad), Error);
}

TEST(Report, SwConfigFromStringParsesBothAndRejectsOthers) {
  EXPECT_EQ(sw_config_from_string("IP"), SwConfig::kIP);
  EXPECT_EQ(sw_config_from_string("OP"), SwConfig::kOP);
  EXPECT_THROW((void)sw_config_from_string("ip"), Error);
}

TEST(Report, MakeRunReportPassesSchemaCheck) {
  const auto a = sparse::uniform_random(2500, 2500, 35000, 17,
                                        sparse::ValueDist::kUniform01);
  Engine eng(a, sim::SystemConfig::transmuter(4, 8));
  const auto res = graph::bfs(eng, 0);
  ASSERT_GT(res.stats.iterations, 0u);

  const obs::Report report = make_run_report(eng, "test_report");
  // Round-trip through text so the validator sees what a consumer would.
  const Json doc = Json::parse(report.to_string());
  EXPECT_EQ(cosparse::obs::testing::check_report(doc), "");

  EXPECT_EQ(doc.find("schema")->as_string(), obs::kReportSchema);
  EXPECT_EQ(doc.find("tool")->as_string(), "test_report");
  EXPECT_EQ(doc.find("iterations")->size(), eng.iterations().size());
  const Json* tiles = doc.find("tile_stats");
  ASSERT_NE(tiles, nullptr);
  EXPECT_EQ(tiles->size(), static_cast<std::size_t>(eng.system().num_tiles));
  // The per-iteration log and decision audit are the only tallies; there
  // is no separate counter section.
  EXPECT_EQ(doc.find("metrics"), nullptr);
  // Totals mirror the engine.
  EXPECT_EQ(doc.find("totals")->find("cycles")->as_int(),
            static_cast<std::int64_t>(eng.total_cycles()));
}

TEST(Report, SchemaCheckerFlagsTamperedTileStats) {
  const auto a = sparse::uniform_random(1000, 1000, 12000, 5,
                                        sparse::ValueDist::kUniform01);
  Engine eng(a, sim::SystemConfig::transmuter(2, 4));
  eng.spmv(Engine::Frontier::from_sparse(
               sparse::random_sparse_vector(1000, 0.2, 9)),
           kernels::PlainSpmv{});

  const obs::Report report = make_run_report(eng, "test_report");
  const Json doc = Json::parse(report.to_string());
  EXPECT_EQ(cosparse::obs::testing::check_report(doc), "");

  // Corrupt one per-tile counter (Json is read-only once built, so rebuild
  // the document around the tampered tile): the sum invariant must catch it.
  Json tampered = Json::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "tile_stats") {
      tampered[key] = value;
      continue;
    }
    Json tiles = Json::array();
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i != 0) {
        tiles.push_back(value.at(i));
        continue;
      }
      Json tile = Json::object();
      for (const auto& [name, counter] : value.at(i).members()) {
        tile[name] = counter;
      }
      tile["dram_read_bytes"] =
          value.at(i).find("dram_read_bytes")->as_int() + 1;
      tiles.push_back(std::move(tile));
    }
    tampered[key] = std::move(tiles);
  }
  EXPECT_NE(cosparse::obs::testing::check_report(tampered), "");
}

}  // namespace
}  // namespace cosparse::runtime
