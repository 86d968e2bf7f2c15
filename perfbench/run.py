#!/usr/bin/env python3
"""Build and run the Accel-NASBench end-to-end benchmark.

    python3 perfbench/run.py --workload build|search|serve|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. `all` runs the three workloads
one after another and fails if any of them fails. The first run
configures and builds the library and the benchmark program in Release
into $CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally. Build output goes to stderr. The program's report goes to
stdout. Its last line holds the values it measured, by name; run.py
replaces it with the result, whose metrics and units come from
BENCHMARK.json, the only list of them. Artifacts and trace files go to
.bench_out/.

The exit code is 0 only when the build, every operation and every
correctness check succeeded.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["build", "search", "serve"]
BUILD_TIMEOUT_S = 840


def nproc():
    return len(os.sched_getaffinity(0))


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(nproc())])
    steps.append([os.path.join(build_dir, "perfbench_stats_test")])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("run.py: '%s' failed" % " ".join(cmd))


def run_timeout_s(seconds):
    """A run is set-up, --seconds of work, one overshooting unit and checks."""
    return seconds * 3 + 120


def make_result(values, trace):
    """The result's metrics, with units, from the values the program set.

    With --trace 0 every end-to-end metric must be there. With --trace 1 a
    per-layer metric the workload never measured reads 0: the workload does
    not call that layer. A value under a name BENCHMARK.json does not list
    is a failure too. Returns the metrics and the failures found."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    failures = ["value under a name BENCHMARK.json does not list: %s" % name
                for name in sorted(set(values) - known)]
    metrics = {}
    for m in wanted:
        if m["name"] not in values and not trace:
            failures.append("metric not measured: %s" % m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                              "unit": m["unit"]}
    return metrics, failures


def run_workload(build_dir, workload, args):
    """Run one workload; print its report; return its exit code."""
    env = dict(os.environ)
    env["ANB_NUM_THREADS"] = str(nproc())
    env["PERFBENCH_GIT_REV"] = git_rev()
    env.pop("ANB_TRACE", None)
    cmd = [os.path.join(build_dir, "anb_perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out"]
    timeout = run_timeout_s(args.seconds)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the benchmark did not finish in %ds" % timeout)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        program = json.loads(lines[-1])
        values = program["values"]
    except (ValueError, KeyError, TypeError):
        sys.stdout.write(done.stdout)
        sys.exit("run.py: the benchmark printed no result")
    metrics, failures = make_result(values, args.trace == 1)
    attempted = program["attempted"] + len(failures)
    failed = program["failed"] + len(failures)
    out = lines[:-1] + ["FAILED: %s" % f for f in failures]
    out += ["metric %s %.6g %s" % (name, m["value"], m["unit"])
            for name, m in metrics.items()]
    out.append("fail_frac %.6g (%d/%d)" %
               (failed / attempted if attempted else 0.0, failed, attempted))
    out.append(json.dumps({"correct": failed == 0, "attempted": attempted,
                           "failed": failed, "metrics": metrics}))
    sys.stdout.write("\n".join(out) + "\n")
    sys.stdout.flush()
    return done.returncode if done.returncode != 0 else int(failed > 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_workload(build_dir, w, args) for w in workloads]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main())
