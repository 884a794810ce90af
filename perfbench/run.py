#!/usr/bin/env python3
r"""Qanaat benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt, compiling the
simulator from ../src) into .bench_build/perfbench and runs one workload:

    python3 perfbench/run.py --workload pbft_local --seed 1 \
        --seconds 40 --trace 0

The binary's last stdout line is the result record
{"correct", "attempted", "failed", "metrics"}; a run that fails its
correctness gate exits non-zero without one.

    python3 perfbench/run.py --self-test

runs the quick self-test: every named metric of every workload appears
with its unit and a finite value, same-seed runs are bit-identical in
trace hash and simulated-time metrics, and slicing Simulator::Run into
1 ms steps leaves the trace hash unchanged. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "qanaat_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "qanaat", "system.h")):
        log(f"simulator sources not found under {os.path.join(ROOT, 'src')}")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Compiler temporaries (LTO writes large ones) stay inside the checkout.
    tmp = os.path.join(BUILD_DIR, "tmp")
    env = dict(os.environ, TMPDIR=tmp)

    def step(cmd):
        os.makedirs(tmp, exist_ok=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
        return proc.returncode == 0

    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    # One build at a time per checkout; a concurrent run waits here.
    with open(BUILD_DIR + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not step(configure):
            # A build tree configured for another source tree (a moved
            # checkout) cannot be reused: start it afresh.
            shutil.rmtree(BUILD_DIR)
            if not step(configure):
                log("configure failed")
                return False
        if not step(["cmake", "--build", BUILD_DIR, "-j",
                     str(min(4, os.cpu_count() or 1))]):
            log("build failed")
            return False
    return True


def run_binary(args):
    """Runs the binary; returns (exit code, stdout, stderr)."""
    try:
        proc = subprocess.run([BINARY] + [str(a) for a in args],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, "", f"benchmark binary timed out after {RUN_TIMEOUT_S}s"
    return proc.returncode, proc.stdout, proc.stderr


def parse_result(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def parse_detail(stdout):
    for line in stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    return None


def bench(ns):
    if not build():
        return 1
    code, out, err = run_binary(
        ["--workload", ns.workload, "--seed", ns.seed, "--seconds",
         ns.seconds, "--trace", ns.trace])
    sys.stdout.write(out)
    sys.stderr.write(err)
    if code != 0:
        log(f"benchmark binary exited with code {code}")
        return code
    if parse_result(out) is None:
        log("benchmark binary printed no result record")
        return 1
    return 0


# ----------------------------------------------------------------- self-test

QUICK = ["--span-ms", "400", "--seconds", "0"]


def self_test():
    if not build():
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    def quick(workload, seed, trace, extra=()):
        code, out, err = run_binary(
            ["--workload", workload, "--seed", seed, "--trace", trace]
            + QUICK + list(extra))
        if code != 0:
            sys.stderr.write(err)
        return code, out

    # 1. Every named metric, with its unit and a finite value.
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = quick(w["name"], 1, trace, ["--min-reps", "2"])
            res = parse_result(out) if code == 0 else None
            check(res is not None and res["correct"] is True
                  and res["attempted"] >= 1,
                  f"{w['name']} trace={trace}: result record")
            if res is None:
                continue
            got = res["metrics"]
            check(set(got) == {m["name"] for m in spec[key]},
                  f"{w['name']} trace={trace}: exactly the {key} metrics")
            for m in spec[key]:
                v = got.get(m["name"], {})
                check(v.get("unit") == m["unit"]
                      and isinstance(v.get("value"), (int, float))
                      and math.isfinite(v["value"]),
                      f"{w['name']} trace={trace}: {m['name']} "
                      f"[{m['unit']}] = {v.get('value')}")

    # 2. Determinism: same seed twice, and 1 ms slicing vs one Run call.
    for w in spec["workloads"]:
        name = w["name"]
        runs = [quick(name, 7, 0, ["--min-reps", "1"]) for _ in range(2)]
        details = [parse_detail(out) for code, out in runs if code == 0]
        check(len(details) == 2 and details[0] == details[1],
              f"{name}: same-seed runs agree bit for bit "
              f"({details[0]['trace_hash'] if details else '?'})")
        code, out = quick(name, 7, 0, ["--min-reps", "1", "--slice-us", "0"])
        whole = parse_detail(out) if code == 0 else None
        check(whole is not None and details
              and whole["trace_hash"] == details[0]["trace_hash"],
              f"{name}: 1 ms slicing leaves trace_hash unchanged")

    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    ns = p.parse_args()
    if ns.self_test:
        return self_test()
    if not ns.workload:
        p.error("--workload is required")
    return bench(ns)


if __name__ == "__main__":
    sys.exit(main())
