#!/usr/bin/env python3
"""Builds hyco_bench from source and runs one workload.

    python3 bench/hyco_bench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source tree. The first call configures and builds
the benchmark (Release) under $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls rebuild only what changed. With --trace 0 the
binary runs W in e2e mode (tracing off) for T seconds; with --trace 1 it
runs the traced pass. Everything the binary prints is passed through, and
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1), each as {"value": v, "unit": u}. The exit
status is 0 when the run was correct, 1 otherwise, and no result line is
printed when the benchmark could not be built or run.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (pathlib.Path(cmd[0]).name, timeout))
    return proc.returncode


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no hyco source tree at %s" % ROOT)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = [cmake, "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, sys.stderr) != 0:
            fail("configuring the benchmark failed")
    cmd = [cmake, "--build", str(build_dir), "--target", "hyco_bench",
           "-j", "4"]
    if run(cmd, BUILD_TIMEOUT_S, sys.stderr) != 0:
        fail("building the benchmark failed")
    return build_dir / "hyco_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir.resolve() / "hyco_bench")

    out_dir = binary.parent / "results"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-%d-%s" % (args.workload, args.seed, "trace" if args.trace else "e2e")
    result_path = out_dir / (stem + ".json")
    if result_path.exists():
        result_path.unlink()
    cmd = [str(binary), "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--json=" + str(result_path)]
    if args.trace:
        cmd.append("--trace=" + str(out_dir / (stem + ".spans.json")))
    sys.stdout.flush()
    status = run(cmd, RUN_TIMEOUT_S, sys.stdout)
    # Exit status 2 is a failed correctness gate: the result is still
    # written, with "correct": false.
    if status not in (0, 2) or not result_path.is_file():
        fail("hyco_bench exited with status %d" % status)

    result = json.loads(result_path.read_text())
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("hyco_bench reported no metric %s" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s is in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"]) and status == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
