#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the library, senn_served
and the runner from source into $CARGO_TARGET_DIR (default .bench_build),
pins itself to one CPU (the runner and any server it starts inherit the
pin), runs one workload, checks the outputs and prints one JSON object as
the last line of standard output. --trace 0 reports the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer ones. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"
RUNNER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the runner and senn_served."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources not found: run from the root of a full checkout")
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench_runner", "senn_served"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    return out


def pick_cpu(allowed):
    """The highest-numbered allowed CPU: deterministic, and away from CPU 0,
    which usually takes the most interrupts."""
    if not allowed:
        raise BenchError("no CPU in the affinity mask")
    return max(allowed)


def steal_ticks(stat_text, cpu):
    """(steal ticks of `cpu`, steal ticks of all CPUs) from /proc/stat text."""
    per_cpu = total = None
    for line in stat_text.splitlines():
        fields = line.split()
        if len(fields) < 9:
            continue
        if fields[0] == "cpu":
            total = int(fields[8])
        elif fields[0] == "cpu%d" % cpu:
            per_cpu = int(fields[8])
    return per_cpu, total


def read_steal(cpu):
    try:
        with open("/proc/stat") as f:
            return steal_ticks(f.read(), cpu)
    except OSError:
        return None, None


def shape(raw, spec, trace):
    """The result line: exactly the metrics BENCHMARK.json names for this
    mode, each with the unit it declares. Anything else is a runner bug."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = raw["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(got) != sorted(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        raise BenchError("metric names differ from BENCHMARK.json: missing %s, extra %s"
                         % (missing, extra))
    metrics = {}
    for m in wanted:
        entry = got[m["name"]]
        if entry["unit"] != m["unit"]:
            raise BenchError("metric %s has unit %s, BENCHMARK.json says %s"
                             % (m["name"], entry["unit"], m["unit"]))
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise BenchError("metric %s is not a number" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    if attempted < 1:
        raise BenchError("no operation was attempted")
    return {"correct": bool(raw["correct"]) and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def run_runner(out, args, cpu):
    cmd = [str(out / "perfbench_runner"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--served", str(out / "senn_served")]
    if args.trace:
        cmd += ["--spans-out", str(out / ("spans-%s-%d.json" % (args.workload, args.seed)))]
    before = read_steal(cpu)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUNNER_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("runner exceeded %d s" % RUNNER_TIMEOUT_S)
    after = read_steal(cpu)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if before[0] is not None and after[0] is not None:
        print("steal ticks: cpu%d %d -> %d (+%d); all cpus %d -> %d (+%d)"
              % (cpu, before[0], after[0], after[0] - before[0],
                 before[1], after[1], after[1] - before[1]))
    if proc.returncode != 0:
        raise BenchError("runner exited with code %d" % proc.returncode)
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        raise BenchError("runner printed no result")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (SPEC_PATH, e))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %s" % args.workload)

    out = build()
    cpu = pick_cpu(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print("workload %s, seed %d, %d s, trace %d, pinned to cpu %d"
          % (args.workload, args.seed, args.seconds, args.trace, cpu))
    started = time.monotonic()
    raw = run_runner(out, args, cpu)
    result = shape(raw, spec, args.trace)

    print("error_rate %.6g (%d failed of %d attempted); runner took %.1f s"
          % (result["failed"] / result["attempted"], result["failed"],
             result["attempted"], time.monotonic() - started))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
