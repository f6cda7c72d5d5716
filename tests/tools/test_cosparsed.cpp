// cosparsed CLI driven in-process: exit codes, report/JSONL outputs,
// request-stream robustness, trace export, and SLO gating.
#include "cosparsed.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

namespace cosparse::tools {
namespace {

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int run(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::vector<const char*> argv = {"cosparsed"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cosparsed_main(static_cast<int>(argv.size()), argv.data(),
                                out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

std::string tiny_config_path(const std::string& name = "serve_cfg.json") {
  return write_temp(name, R"({
    "schema": "cosparse.serve_config/v1",
    "max_active_reqs": 8,
    "max_batch_size": 4,
    "virtual_workers": 2,
    "scale": 128,
    "traffic": {
      "request_interval_us": 200,
      "request_total_cnt": 12,
      "seed": 3,
      "datasets": ["twitter", "vsp"],
      "algos": ["bfs", "pagerank"]
    }
  })");
}

TEST(Cosparsed, UsageErrors) {
  std::string err;
  EXPECT_EQ(run({}, nullptr, &err), 2);  // --config required
  EXPECT_NE(err.find("--config"), std::string::npos);
  EXPECT_EQ(run({"--config", "/nonexistent/cfg.json",
                 "--report-out", ""}),
            2);
  const std::string bad =
      write_temp("bad_cfg.json", "{\"schema\": \"nope\"}");
  EXPECT_EQ(run({"--config", bad, "--report-out", ""}), 2);
  EXPECT_EQ(run({"--config", tiny_config_path(), "--exec-mode", "quantum",
                 "--report-out", ""}),
            2);
}

TEST(Cosparsed, ReplayWritesAWellFormedReport) {
  const std::string cfg = tiny_config_path();
  const std::string report_path = ::testing::TempDir() + "cd_report.json";
  std::string out;
  ASSERT_EQ(run({"--config", cfg, "--report-out", report_path}, &out), 0);
  EXPECT_NE(out.find("admitted"), std::string::npos);
  const Json report = Json::parse(read_file(report_path));
  EXPECT_EQ(report.find("schema")->as_string(), "cosparse.run_report/v1");
  EXPECT_EQ(report.find("tool")->as_string(), "cosparsed");
  ASSERT_NE(report.find("results"), nullptr);
  EXPECT_NE(report.find("results")->find("results_digest"), nullptr);
  EXPECT_NE(report.find("timing"), nullptr);
}

TEST(Cosparsed, RequestStreamToleratesHostileLines) {
  const std::string cfg = tiny_config_path();
  const std::string requests = write_temp("reqs.jsonl",
      "{\"dataset\": \"twitter\", \"algo\": \"bfs\", \"source\": 1}\n"
      "\n"
      "{\"dataset\": \"twitter\", \"algo\"\n"
      "{\"dataset\": \"nope\", \"algo\": \"bfs\"}\n"
      "{\"dataset\": \"vsp\", \"algo\": \"bfs\", \"sauce\": 1}\n"
      "{\"dataset\": \"vsp\", \"algo\": \"pagerank\"}\n");
  const std::string responses = ::testing::TempDir() + "cd_resp.jsonl";
  ASSERT_EQ(run({"--config", cfg, "--requests", requests,
                 "--report-out", "", "--responses-out", responses}),
            0);
  std::ifstream in(responses);
  std::string line;
  std::vector<Json> rs;
  while (std::getline(in, line)) rs.push_back(Json::parse(line));
  // Line numbers are ids; the blank line 2 yields no response.
  ASSERT_EQ(rs.size(), 5u);
  EXPECT_EQ(rs[0].find("id")->as_int(), 1);
  EXPECT_EQ(rs[0].find("status")->as_string(), "ok");
  EXPECT_EQ(rs[1].find("id")->as_int(), 3);
  EXPECT_EQ(rs[1].find("status")->as_string(), "error");
  EXPECT_EQ(rs[2].find("id")->as_int(), 4);  // unknown dataset
  EXPECT_EQ(rs[2].find("status")->as_string(), "error");
  EXPECT_EQ(rs[3].find("id")->as_int(), 5);  // unknown field
  EXPECT_EQ(rs[3].find("status")->as_string(), "error");
  EXPECT_EQ(rs[3].find("error_field")->as_string(), "sauce");
  EXPECT_EQ(rs[4].find("id")->as_int(), 6);
  EXPECT_EQ(rs[4].find("status")->as_string(), "ok");
}

TEST(Cosparsed, DeeplyNestedRequestLineGetsAnErrorResponse) {
  // 200k unmatched '[' used to recurse the JSON parser off the stack
  // (exit 139); now the line fails with a parse error like any other.
  const std::string cfg = tiny_config_path();
  const std::string requests = write_temp("nested.jsonl",
      std::string(200000, '[') + "\n" +
      "{\"dataset\": \"twitter\", \"algo\": \"bfs\"}\n");
  const std::string responses = ::testing::TempDir() + "cd_nested.jsonl";
  ASSERT_EQ(run({"--config", cfg, "--requests", requests,
                 "--report-out", "", "--responses-out", responses}),
            0);
  std::ifstream in(responses);
  std::string line;
  std::vector<Json> rs;
  while (std::getline(in, line)) rs.push_back(Json::parse(line));
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].find("id")->as_int(), 1);
  EXPECT_EQ(rs[0].find("status")->as_string(), "error");
  EXPECT_NE(rs[0].find("error")->as_string().find("nesting"),
            std::string::npos);
  EXPECT_EQ(rs[1].find("id")->as_int(), 2);
  EXPECT_EQ(rs[1].find("status")->as_string(), "ok");
}

TEST(Cosparsed, CpuProfileAddsReportSectionAndFoldedStacks) {
  const std::string cfg = tiny_config_path();
  const std::string report_path = ::testing::TempDir() + "cd_prof.json";
  const std::string folded = ::testing::TempDir() + "cd_prof.folded";
  ASSERT_EQ(run({"--config", cfg, "--report-out", report_path,
                 "--cpu-profile", folded}),
            0);
  const Json report = Json::parse(read_file(report_path));
  const Json* prof = report.find("cpu_profile");
  ASSERT_NE(prof, nullptr);
  EXPECT_NE(prof->find("samples"), nullptr);
  EXPECT_TRUE(std::ifstream(folded).good());
}

TEST(Cosparsed, TraceOutRoundTripsThroughRequests) {
  const std::string cfg = tiny_config_path();
  const std::string trace_path = ::testing::TempDir() + "cd_trace.jsonl";
  ASSERT_EQ(run({"--config", cfg, "--trace-out", trace_path}), 0);

  // Strip the generator-assigned ids (line numbers take over) and feed
  // the trace back: replay and request-stream mode must agree on the
  // per-request results digest.
  std::ifstream in(trace_path);
  std::ostringstream stripped;
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    Json doc = Json::parse(line);
    Json resubmit = Json::object();
    for (const auto& [key, value] : doc.members())
      if (key != "id") resubmit[key] = value;
    stripped << resubmit.dump() << "\n";
    ++lines;
  }
  ASSERT_EQ(lines, 12u);
  const std::string requests =
      write_temp("cd_trace_requests.jsonl", stripped.str());

  const std::string replay_report = ::testing::TempDir() + "cd_replay.json";
  const std::string stream_report = ::testing::TempDir() + "cd_stream.json";
  ASSERT_EQ(run({"--config", cfg, "--report-out", replay_report}), 0);
  ASSERT_EQ(run({"--config", cfg, "--requests", requests,
                 "--report-out", stream_report}),
            0);
  const Json replay = Json::parse(read_file(replay_report));
  const Json stream = Json::parse(read_file(stream_report));
  EXPECT_EQ(
      replay.find("results")->find("results_digest")->as_string(),
      stream.find("results")->find("results_digest")->as_string());
}

TEST(Cosparsed, ReportIsByteStableAcrossRuns) {
  const std::string cfg = tiny_config_path();
  const std::string a = ::testing::TempDir() + "cd_a.json";
  const std::string b = ::testing::TempDir() + "cd_b.json";
  ASSERT_EQ(run({"--config", cfg, "--report-out", a,
                 "--serve-threads", "1"}),
            0);
  ASSERT_EQ(run({"--config", cfg, "--report-out", b,
                 "--serve-threads", "8"}),
            0);
  const Json ra = Json::parse(read_file(a));
  const Json rb = Json::parse(read_file(b));
  EXPECT_EQ(ra.find("results")->dump(), rb.find("results")->dump());
}

TEST(Cosparsed, StrictSloViolationExitsThree) {
  const std::string cfg = tiny_config_path();
  EXPECT_EQ(run({"--config", cfg, "--report-out", "",
                 "--telemetry-interval", "1i",
                 "--slo", "p99.serve.request_ms<0.000001", "--slo-strict"}),
            3);
  EXPECT_EQ(run({"--config", cfg, "--report-out", "",
                 "--telemetry-interval", "1i",
                 "--slo", "p99.serve.request_ms<100000"}),
            0);
}

}  // namespace
}  // namespace cosparse::tools
