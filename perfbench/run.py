#!/usr/bin/env python3
"""flashgen-bench runner.

Builds the benchmark binary from source (perfbench/CMakeLists.txt builds
../src and the driver), runs one workload and prints, as the last stdout
line, the result object with the metrics BENCHMARK.json names: the
end_to_end metrics with --trace 0, the per_layer metrics with --trace 1.

    python3 perfbench/run.py --workload generate_unet --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build tree is $CARGO_TARGET_DIR
(default .bench_build); result files go to <build tree>/results.
Exit codes: 0 ok, 1 an output check failed (the result line says
correct: false), 2 build or runtime error or a metric not measured (no
result line).
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


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "flashgen_bench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return True


def provenance():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha or "none", digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log("run.py: unknown workload", args.workload, "- choose one of", workloads)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or not build(build_dir):
        log("run.py: cannot build the benchmark here")
        return 2
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    sha, src_digest = provenance()

    cmd = [os.path.join(build_dir, "flashgen_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--full-seconds", str(spec["run_seconds"]), "--results-dir", results_dir,
           "--git-sha", sha, "--src-digest", src_digest]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark exceeded", RUN_TIMEOUT_S, "s")
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("run.py: benchmark failed with exit code", proc.returncode)
        return 2
    print("\n".join(lines[:-1]))
    raw = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:  # a workload reports layers it does not exercise as explicit zeros
            log("run.py: metric", m["name"], "was not measured")
            return 2
        if got["unit"] != m["unit"]:
            log("run.py: metric", m["name"], "has unit", got["unit"], "not", m["unit"])
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
