// Shared pieces of the perfbench workloads: run options, the result
// document every workload fills, and the benchmark-side span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "runtime/engine.h"

namespace perfbench {

using cosparse::Json;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Host threads every workload may use: at most two per benchmark process.
inline constexpr std::uint32_t kThreads = 2;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path;  ///< recorded reference values (expected.json)
  std::string out_dir;        ///< where span dumps go
};

/// Everything one run reports. Metric order is print order.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  Json checks = Json::array();
  Json info = Json::object();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a correctness check; any failed check fails the run.
  void check(const std::string& name, bool ok, const std::string& detail);
};

/// Sorted-index percentile (ceil(p/100 * n) - 1), no interpolation; 0 for
/// an empty sample.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// getrusage high-water mark of this process, MiB.
double peak_rss_mib();

/// Recorded reference values (perfbench/expected.json).
Json load_expected(const std::string& path);

/// Benchmark-side tracing. A span has a name, start, end, parent and a
/// request id; spans stay in memory until dump(). When disabled, a Scope
/// costs one branch. Parents are tracked per thread, so spans opened on
/// the serve worker threads nest under that thread's open batch span.
class Spans {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::thread::id thread;
  };

  class Scope {
   public:
    Scope(Spans* spans, std::string name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Renames the span before it closes (e.g. to classify a cache
    /// acquire as hit or miss once the outcome is known).
    void rename(std::string name) { rec_.name = std::move(name); }

   private:
    Spans* spans_;
    Record rec_;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::vector<Record> records() const;
  /// Span durations minus the part their children cover, summed per name.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Durations of every span with this name, in close order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Chrome trace-event JSON of every span (ts/dur in microseconds).
  [[nodiscard]] Json to_trace_json() const;

 private:
  bool enabled_;
  std::uint64_t next_id_ = 1;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  Clock::time_point origin_ = Clock::now();
};

/// Per-layer metrics of a traced run. Every workload reports every name in
/// kLayerMetrics (0 where the workload bypasses that layer), in that order.
class Layers {
 public:
  /// Throws on a name kLayerMetrics does not list.
  void set(const std::string& name, double value);
  void emit(Result& res) const;

 private:
  std::map<std::string, double> values_;
};

/// Writes a traced run's spans to <out_dir>/<workload>-seed<seed>.spans.json.
void write_spans(const Options& opt, const Spans& spans);

// ---- workloads (each fills `res`; set-up, timed phase and checks) ----
void run_serve_unbatched(const Options& opt, Result& res);
void run_serve_batched_evict(const Options& opt, Result& res);
void run_kernel_native(const Options& opt, Result& res);
void run_sim_ramp(const Options& opt, Result& res);
/// Prints the reference values expected.json records (sim-derived output
/// digests and cycle counts for every input variant).
Json derive_expected();

// ---- shared traced-run passes ----
/// Constructor split of runtime::Engine for each dataset, measured in
/// isolation: sparse::transpose, both IpPartitionedMatrix::build variants,
/// OpStripedMatrix::build, sim::Machine and the whole Engine constructor.
struct ComponentTimes {
  double transpose_ms = 0.0;
  double ip_build_ms = 0.0;  ///< plain + vblocked
  double op_build_ms = 0.0;
  double machine_build_ms = 0.0;
  double engine_build_ms = 0.0;
  double layout_bytes = 0.0;  ///< computed from the built layouts
  double pull_bytes = 0.0;    ///< computed bytes one SC pull call streams
};
ComponentTimes measure_components(const std::string& dataset, unsigned scale,
                                  std::uint64_t dataset_seed,
                                  const cosparse::sim::SystemConfig& system,
                                  const cosparse::runtime::EngineOptions& eopts);

/// Streaming triad a[i] = b[i] + s * c[i] over arrays sized from the
/// last-level cache, on kThreads threads; fills native.host_stream_gbps
/// and records both sizes in res.info.
double stream_triad_gbps(Result& res);

}  // namespace perfbench
