#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/error.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// The per-layer metrics BENCHMARK.json lists, grouped by layer.
constexpr LayerMetric kLayerMetrics[] = {
    {"sparse.dataset_load_ms", "ms"},
    {"sparse.dataset_loads", "count"},
    {"sparse.transpose_ms", "ms"},
    {"kernels.ip_build_ms", "ms"},
    {"kernels.op_build_ms", "ms"},
    {"kernels.layout_bytes", "bytes"},
    {"runtime.engine_build_ms", "ms"},
    {"runtime.engine_builds", "count"},
    {"runtime.engine_build_unattributed_pct", "%"},
    {"runtime.sw_switches", "count"},
    {"runtime.hw_switches", "count"},
    {"runtime.frontier_conversions", "count"},
    {"native.pull_ms.p50", "ms"},
    {"native.pull_ms.tail", "ms"},
    {"native.push_ms.p50", "ms"},
    {"native.push_ms.tail", "ms"},
    {"native.pull_calls", "count"},
    {"native.push_calls", "count"},
    {"native.pull_gbps", "GB/s"},
    {"native.host_stream_gbps", "GB/s"},
    {"native.pull_roofline_pct", "%"},
    {"sim.machine_build_ms", "ms"},
    {"sim.spmv_ms.ip", "ms"},
    {"sim.spmv_ms.op", "ms"},
    {"sim.host_ns_per_cycle", "ns/cycle"},
    {"sim.cycles", "cycles"},
    {"sim.l1_hit_ratio", "ratio"},
    {"sim.l2_hit_ratio", "ratio"},
    {"sim.dram_bytes", "bytes"},
    {"sim.reconfigs", "count"},
    {"graph.bfs_ms", "ms"},
    {"graph.sssp_ms", "ms"},
    {"graph.pagerank_ms", "ms"},
    {"graph.cf_ms", "ms"},
    {"graph.iterations.bfs", "count"},
    {"graph.iterations.sssp", "count"},
    {"graph.iterations.pagerank", "count"},
    {"graph.iterations.cf", "count"},
    {"serve.batches", "count"},
    {"serve.requests_per_batch", "count"},
    {"serve.schedule_ms", "ms"},
    {"serve.cache_acquire_ms.hit", "ms"},
    {"serve.cache_acquire_ms.miss", "ms"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.virtual_cache_misses", "count"},
    {"serve.virtual_cache_evictions", "count"},
    {"serve.cache_peak_bytes", "bytes"},
    {"serve.batch_ms", "ms"},
    {"serve.digest_ms", "ms"},
    {"serve.worker_idle_ms", "ms"},
    {"serve.unattributed_batch_pct", "%"},
    {"serve.unattributed_wall_pct", "%"},
    {"serve.queue_wait_virtual_us.p50", "virtual_us"},
    {"serve.queue_wait_virtual_us.tail", "virtual_us"},
    {"obs.trace_overhead_pct", "%"},
};

/// Open span ids of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;
}  // namespace

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  Json c = Json::object();
  c["name"] = name;
  c["ok"] = ok;
  c["detail"] = detail;
  checks.push_back(std::move(c));
  correct = correct && ok;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  auto idx = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  if (idx > 0) --idx;
  return samples[std::min(idx, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Json load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw cosparse::Error("perfbench: cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

void Layers::set(const std::string& name, double value) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (name == m.name) {
      values_[name] = value;
      return;
    }
  }
  throw cosparse::Error("perfbench: unknown per-layer metric " + name);
}

void Layers::emit(Result& res) const {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values_.find(m.name);
    res.metric(m.name, it == values_.end() ? 0.0 : it->second, m.unit);
  }
}

void write_spans(const Options& opt, const Spans& spans) {
  if (opt.out_dir.empty()) return;
  std::filesystem::create_directories(opt.out_dir);
  std::ofstream out(std::filesystem::path(opt.out_dir) /
                    (opt.workload + "-seed" + std::to_string(opt.seed) +
                     ".spans.json"));
  out << spans.to_trace_json().dump() << "\n";
}

Spans::Scope::Scope(Spans* spans, std::string name, std::uint64_t request)
    : spans_(spans != nullptr && spans->enabled() ? spans : nullptr) {
  if (spans_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(spans_->mu_);
    rec_.id = spans_->next_id_++;
  }
  rec_.parent = t_open.empty() ? 0 : t_open.back();
  rec_.request = request;
  rec_.name = std::move(name);
  rec_.thread = std::this_thread::get_id();
  t_open.push_back(rec_.id);
  rec_.start = Clock::now();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  rec_.end = Clock::now();
  t_open.pop_back();
  const std::lock_guard<std::mutex> lock(spans_->mu_);
  spans_->records_.push_back(std::move(rec_));
}

std::vector<Spans::Record> Spans::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::map<std::string, double> Spans::self_ms() const {
  const std::vector<Record> recs = records();
  // Children run on their parent's thread and close before it, so their
  // intervals are disjoint sub-intervals of the parent's.
  std::map<std::uint64_t, double> child_ms;
  for (const Record& r : recs)
    if (r.parent != 0) child_ms[r.parent] += ms_between(r.start, r.end);
  std::map<std::string, double> out;
  for (const Record& r : recs)
    out[r.name] += ms_between(r.start, r.end) - child_ms[r.id];
  return out;
}

std::vector<double> Spans::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records())
    if (r.name == name) out.push_back(ms_between(r.start, r.end));
  return out;
}

Json Spans::to_trace_json() const {
  std::map<std::thread::id, int> tids;
  Json events = Json::array();
  for (const Record& r : records()) {
    const auto tid = tids.emplace(r.thread, static_cast<int>(tids.size()));
    Json e = Json::object();
    e["name"] = r.name;
    e["ph"] = "X";
    e["pid"] = 1;
    e["tid"] = tid.first->second;
    e["ts"] = ms_between(origin_, r.start) * 1000.0;
    e["dur"] = ms_between(r.start, r.end) * 1000.0;
    Json args = Json::object();
    args["id"] = r.id;
    args["parent"] = r.parent;
    args["request"] = r.request;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  return doc;
}

}  // namespace perfbench
