#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The first run configures and builds perfbench/CMakeLists.txt (the
library sources in src/ plus the ive_perfbench program) as a Release
build under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later runs only re-check the build.
The workload shapes are a fixed table in perfbench/main.cc; the
latency limits, the lateness bound and the reconciliation tolerance
come from perfbench/workloads.json. The last line of stdout is the result JSON;
build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """git HEAD when the tree is a checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "no-git-sources-sha1-" + digest.hexdigest()[:12]


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "ive_perfbench")


def run_one(binary, build_root, config, name, args, trace):
    """Runs one workload; returns (exit code, result JSON or None)."""
    limits = config["workloads"][name]
    cmd = [binary, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--slo-ms", str(limits["slo_ms"]),
           "--late-bound-ms", str(limits["late_bound_ms"]),
           "--reconcile-tol", str(config["reconcile_tolerance"]),
           "--commit", source_id()]
    if trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{name}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{name}: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of workloads.json, or 'all' to run "
                         "every workload untraced and traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}")
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    workloads = config["workloads"]
    if args.workload != "all" and args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; "
             f"known: all, {', '.join(workloads)}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    binary = build(os.path.join(build_root, "perfbench"))

    if args.workload != "all":
        code, _ = run_one(binary, build_root, config, args.workload, args,
                          args.trace)
        sys.exit(code)

    # Every workload, untraced then traced; the last line sums them up
    # with metrics named <workload>/<metric>.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in workloads:
        for trace in (0, 1):
            code, result = run_one(binary, build_root, config, name, args,
                                   trace)
            worst = max(worst, code)
            if result is None:
                total["correct"] = False
                continue
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    sys.exit(worst)


if __name__ == "__main__":
    main()
