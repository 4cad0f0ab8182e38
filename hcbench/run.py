#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 hcbench/run.py --workload <suite_cold|big_loops>
                           --seed <n> --seconds <s> --trace <0|1>
    python3 hcbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout. Builds hcbench/ (which compiles the
checkout's src/ with it) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. The last line of
stdout is the result JSON; see hcbench/README.md for the metrics. With
--workload all, every workload runs untraced and traced, and the last line
sums them, with each metric named <workload>/<metric>.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
WORKLOADS = ["suite_cold", "big_loops"]


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log)
        if cfg.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=log, stderr=log).returncode == 0


def run_one(build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "hcbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace,
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("hcbench: run timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def metrics_match_spec(out, trace):
    """True when the run printed exactly the metrics (names and units) that
    BENCHMARK.json lists for its mode."""
    spec_path = os.path.join(HERE, "..", "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return True
    with open(spec_path) as f:
        spec = json.load(f)["per_layer" if trace == "1" else "end_to_end"]
    printed = json.loads(out.strip().splitlines()[-1])["metrics"]
    return ({m["name"]: m["unit"] for m in spec} ==
            {name: m["unit"] for name, m in printed.items()})


def run_all(build_dir, seed, seconds):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run_one(build_dir, workload, seed, seconds, trace)
            sys.stdout.write(out)
            if code != 0 or not out.strip():
                return 1
            result = json.loads(out.strip().splitlines()[-1])
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][workload + "/" + name] = metric
    print(json.dumps(total))
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload != "all" and args.trace is None:
        ap.error("--trace is required for a single workload")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        print("hcbench: build failed", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(build_dir, args.seed, args.seconds)
    code, out = run_one(build_dir, args.workload, args.seed, args.seconds,
                        args.trace)
    if code == 0 and out.strip() and not metrics_match_spec(out, args.trace):
        print("hcbench: printed metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
