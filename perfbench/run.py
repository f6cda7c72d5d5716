#!/usr/bin/env python3
"""CoSPARSE end-to-end benchmark runner.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Builds perfbench/ (CMake, into .bench_build/perfbench) on first use,
      runs one workload, checks its outputs and prints every metric with its
      unit. The last stdout line is the JSON result
      {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
      end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
      The full result (host signature, checks, sample counts) is kept in
      .bench_build/results/.

  python3 perfbench/run.py compare <results-dir-A> <results-dir-B>
      Medians per workload and metric of two result sets; refuses (exit 3)
      when the host signatures differ.

  python3 perfbench/run.py derive-expected
      Re-derives perfbench/expected.json from the cycle-accurate simulator.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORKLOADS = ["serve_unbatched", "serve_batched_evict", "kernel_native", "sim_ramp"]
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark binary; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    if not os.path.exists("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    build()
    out_dir = os.path.join(RESULTS_DIR, "spans")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", EXPECTED, "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"perfbench: workload exited with {proc.returncode}")
    doc = json.loads(lines[-1])

    names = declared_metrics(args.trace)
    if names is not None and list(doc["metrics"]) != names:
        sys.exit("perfbench: reported metrics differ from BENCHMARK.json: "
                 f"{sorted(set(doc['metrics']) ^ set(names))}")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)

    sig = doc["signature"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"host: {sig['nproc']} cores, {sig['cpu_model']}, simd {sig['simd']}, "
          f"{sig['build_type']}, exec {sig['exec_mode']}")
    for name, m in doc["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for c in doc["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED {c['name']}: {c['detail']}")
    print(f"  attempted {doc['attempted']}, failed {doc['failed']}, "
          f"correct {doc['correct']}  (full result: {path})")
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))
    return 0 if doc["correct"] else 1


def load_results(directory):
    results = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                doc = json.load(f)
            results.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return results


def compare(dir_a, dir_b):
    a, b = load_results(dir_a), load_results(dir_b)
    keys = sorted(set(a) & set(b))
    for key in keys:
        sigs = {json.dumps(d["signature"], sort_keys=True) for d in a[key] + b[key]}
        if len(sigs) > 1:
            print(f"perfbench: refusing to compare {key[0]} results from different "
                  "hosts or builds:\n  " + "\n  ".join(sorted(sigs)), file=sys.stderr)
            return 3
    for key in keys:
        print(f"{key[0]} (trace {int(key[1])}): {len(a[key])} vs {len(b[key])} runs")
        for name, m in a[key][0]["metrics"].items():
            ma = statistics.median(d["metrics"][name]["value"] for d in a[key])
            mb = statistics.median(d["metrics"][name]["value"] for d in b[key])
            change = (mb - ma) / ma * 100.0 if ma else float("nan")
            print(f"  {name:40s} {ma:12.6g} -> {mb:12.6g} {m['unit']:9s} {change:+7.2f}%")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: perfbench/run.py compare <results-dir-A> <results-dir-B>")
        return compare(sys.argv[2], sys.argv[3])
    if len(sys.argv) > 1 and sys.argv[1] == "derive-expected":
        build()
        out = subprocess.run([BINARY, "--derive-expected"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        with open(EXPECTED, "w") as f:
            f.write(out)
        return 0
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
