// perfbench — the CoSPARSE end-to-end benchmark binary (perfbench/run.py
// builds and drives it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --expected <expected.json> [--out-dir <dir>]
//   perfbench --derive-expected
//
// Prints one JSON document as its last stdout line: host signature,
// metrics with units, correctness checks, attempted/failed counts.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "native/simd.h"

namespace {

using perfbench::Json;

/// Environment the library reads behind the benchmark's back; a set
/// COSPARSE_CACHE_DIR, for one, turns dataset synthesis into a file read.
constexpr const char* kPinnedEnv[] = {
    "COSPARSE_CACHE_DIR",     "COSPARSE_DATA_DIR",  "COSPARSE_SIM_THREADS",
    "COSPARSE_EXEC_MODE",     "COSPARSE_NATIVE_SIMD", "COSPARSE_TELEMETRY",
    "COSPARSE_SLO",           "COSPARSE_TRACE",     "COSPARSE_CPU_PROFILE"};

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --expected <file> [--out-dir <dir>]\n"
               "       perfbench --derive-expected\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kPinnedEnv) unsetenv(name);

  perfbench::Options opt;
  bool derive = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--derive-expected") {
      derive = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else if (arg == "--expected") {
        opt.expected_path = val;
      } else if (arg == "--out-dir") {
        opt.out_dir = val;
      } else {
        return usage("unknown option " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + val);
    }
  }

  try {
    if (derive) {
      std::cout << perfbench::derive_expected().dump(1) << "\n";
      return 0;
    }
    if (opt.expected_path.empty()) return usage("--expected is required");
    if (opt.seconds <= 0.0) return usage("--seconds must be positive");

    perfbench::Result res;
    if (opt.workload == "serve_unbatched") {
      perfbench::run_serve_unbatched(opt, res);
    } else if (opt.workload == "serve_batched_evict") {
      perfbench::run_serve_batched_evict(opt, res);
    } else if (opt.workload == "kernel_native") {
      perfbench::run_kernel_native(opt, res);
    } else if (opt.workload == "sim_ramp") {
      perfbench::run_sim_ramp(opt, res);
    } else {
      return usage("unknown workload '" + opt.workload + "'");
    }

    Json signature = Json::object();
    signature["nproc"] = std::thread::hardware_concurrency();
    signature["cpu_model"] = cosparse::native::cpu_model_string();
    signature["simd"] = cosparse::native::to_string(cosparse::native::simd_level());
    signature["build_type"] = PERFBENCH_BUILD_TYPE;
    signature["exec_mode"] = *res.info.find("exec_mode");

    Json metrics = Json::object();
    for (const auto& m : res.metrics) {
      Json v = Json::object();
      v["value"] = m.value;
      v["unit"] = m.unit;
      metrics[m.name] = std::move(v);
    }
    Json doc = Json::object();
    doc["workload"] = opt.workload;
    doc["seed"] = opt.seed;
    doc["trace"] = opt.trace;
    doc["signature"] = std::move(signature);
    doc["correct"] = res.correct;
    doc["attempted"] = res.attempted;
    doc["failed"] = res.failed;
    doc["metrics"] = std::move(metrics);
    doc["checks"] = std::move(res.checks);
    doc["info"] = std::move(res.info);
    std::cout << doc.dump() << "\n";
    return res.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
