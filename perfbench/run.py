#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --rate 390 \
        --limit-ms sweep-warm=500,compile-cold=25,mixed-open=25 \
        --workload sweep-warm --seed 1 --seconds 10 --trace 0

(--rate and --limit-ms are fixed in BENCHMARK.json's command.)

Run from the root of a checkout. Builds cgpad and the perfbench binary
from source into $CARGO_TARGET_DIR (default .bench_build) on first use,
runs perfbench, checks that its result names every metric BENCHMARK.json
lists for this mode with the listed unit, and passes its output
through: the last stdout line is the result object. Build output goes to
stderr. Exit status is perfbench's (0 only when every output checked
out), or non-zero when the sources or the build are missing.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "tools/cgpad.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full checkout" % needed)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs, "--target",
                        "cgpad", "perfbench"], stdout=sys.stderr) != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Problems with perfbench's result line; empty when it is complete."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are %s" % sorted(result)]
    problems = []
    for name, unit in expected_metrics(trace).items():
        got = result["metrics"].get(name)
        if got is None:
            problems.append("metric %s missing" % name)
        elif got.get("unit") != unit:
            problems.append("metric %s has unit %s, not %s"
                            % (name, got.get("unit"), unit))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-warm", "compile-cold", "mixed-open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--rate", type=float, required=True,
                        help="mixed-open arrivals per second")
    parser.add_argument("--limit-ms", required=True,
                        help="per-workload latency limits for "
                             "within_limit_ratio, as workload=ms,...")
    args = parser.parse_args()
    limits = dict(item.split("=", 1) for item in args.limit_ms.split(","))
    if args.workload not in limits:
        fail("--limit-ms names no limit for %s" % args.workload)

    os.chdir(ROOT)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(build_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cgpad", os.path.join(build_dir, "cgpad"),
               "--rate", str(args.rate), "--limit-ms", limits[args.workload]]
    if args.trace:
        os.makedirs(".bench_out", exist_ok=True)
        command += ["--spans-out", ".bench_out/%s-seed%d.spans.jsonl"
                    % (args.workload, args.seed)]
    # Own process group, so a timeout or a signal to this script also
    # takes down the cgpad children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out after %d s" % RUN_TIMEOUT_S, 1)
    finally:
        if bench.poll() is None:
            os.killpg(bench.pid, signal.SIGKILL)
            bench.wait()
    lines = out.splitlines()
    if bench.returncode not in (0, 1) or not lines:
        sys.stdout.write(out)
        fail("perfbench exited with %d" % bench.returncode, bench.returncode
             or 1)
    problems = check_result(lines[-1], args.trace)
    for problem in problems:
        print("run.py: " + problem, file=sys.stderr)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(bench.returncode or (1 if problems else 0))


if __name__ == "__main__":
    main()
