#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark from source into .bench_build/ at the repository root,
runs one workload in its own process, and prints two lines on stdout: the
run's provenance, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end ones of BENCHMARK.json (--trace 0) or the
per-layer ones (--trace 1).  A per-layer metric the workload does not
exercise (the UDP counters on a simulation workload, say) reads 0.
--self-test runs every workload at toy size and checks the names, units and
failure accounting.  Exits non-zero, printing no result, if the build, the
run or a check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RESULTS = ROOT / ".bench_build" / "perfbench-results.jsonl"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd, deadline)
    step(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
         deadline)


def step(cmd, deadline):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"build step timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        # A failed configure must not be mistaken for a configured tree.
        (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_binary(args):
    """Runs the measuring process in its own session and returns its
    provenance and result.  On timeout the session is killed and reaped."""
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"run timed out after {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"perfbench exited with {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if len(lines) < 2:
        raise BenchError("perfbench printed no result")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts that
    carry no git metadata."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench")
                   for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def select(result, wanted, fill_absent):
    """The metrics named in `wanted`, each with the unit BENCHMARK.json
    gives.  Absent ones read 0 when `fill_absent`, else are an error."""
    got = result["metrics"]
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                raise BenchError(f"{name}: unit {got[name]['unit']} "
                                 f"!= {unit}")
            out[name] = got[name]
        elif fill_absent:
            out[name] = {"value": 0, "unit": unit}
        else:
            raise BenchError(f"{name} was not measured")
    return out


def measure(args):
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    build()
    spans = ROOT / ".bench_build" / f"spans-{args.workload}-{args.seed}.json"
    prov, result = run_binary([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", str(spans)])
    if args.trace:
        metrics = select(result, bench["per_layer"], fill_absent=True)
    else:
        metrics = select(result, bench["end_to_end"], fill_absent=False)
    prov.update(machine=platform.machine(), source_sha256=source_digest())
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    with open(RESULTS, "a") as f:
        f.write(json.dumps({"provenance": prov, "result": line}) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(line), flush=True)


def self_test():
    """Every workload at toy size: names and units as BENCHMARK.json
    declares them, failed_share 0 on clean inputs, and exactly one failure
    per variant on the known failing graph."""
    bench = spec()
    build()
    problems = []
    emitted = {}  # per-layer name -> units seen, before any zero-fill

    def check(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            problems.append(what)

    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            _, r = run_binary(["--workload", w, "--seed", "7", "--seconds",
                               "1", "--trace", str(trace), "--toy"])
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{w} trace={trace}: {r['failed']} of {r['attempted']} "
                  "operations failed")
            if trace == 0:
                try:
                    select(r, bench["end_to_end"], fill_absent=False)
                    check(True, f"{w}: every end-to-end metric emitted")
                except BenchError as e:
                    check(False, f"{w}: {e}")
            else:
                for name, m in r["metrics"].items():
                    emitted.setdefault(name, set()).add(m["unit"])
                check(r["metrics"].get("failed_share", {}).get("value") == 0,
                      f"{w}: failed_share is 0")
    for m in bench["per_layer"]:
        check(emitted.get(m["name"]) == {m["unit"]},
              f"{m['name']} emitted by some workload, unit {m['unit']}")

    _, r = run_binary(["--workload", "reproducer", "--seed", "0",
                       "--seconds", "0", "--trace", "1"])
    check(r["attempted"] == 3 and r["failed"] == 3
          and r["metrics"]["failed_share"]["value"] == 1.0,
          "reproducer graph: 1 failed of 1 in each of the three variants "
          f"({r['failed']} of {r['attempted']})")
    if problems:
        raise BenchError(f"self-test: {len(problems)} check(s) failed")
    print("self-test passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        if args.self_test:
            self_test()
            return 0
        if None in (args.workload, args.seed, args.seconds, args.trace):
            p.error("--workload, --seed, --seconds and --trace are required")
        measure(args)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
