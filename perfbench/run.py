#!/usr/bin/env python3
"""Build and run the whole-model benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

The first form builds perfbench/ (CMake, Release) into .bench_build/perfbench,
runs one workload and prints its report; the last line of standard output is
the JSON result. Every WINOMC_* variable is removed from the benchmark's
environment, so BENCHMARK.json alone fixes the execution policy.

--self-check runs every workload briefly, traced and untraced, and checks that
each prints every metric of BENCHMARK.json with its unit and no failures, and
that an injected fault (--inject-fault) makes `failed` non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("train_wino", "serve_auto", "noc_fig9")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
SELF_CHECK_SECONDS = 2


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("WINOMC_")}


def run(cmd, timeout, env, capture):
    """Run cmd in its own process group; on timeout or interrupt, kill the
    whole group and wait for it. Returns (exit code, captured stdout)."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group already exited
        proc.wait()
        raise
    return proc.returncode, out or ""


def build():
    env = clean_env()
    tmp = BUILD / "tmp"  # compiler scratch stays inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S, env, capture=False)
        if code != 0:
            sys.exit(f"build failed ({' '.join(cmd[:2])} exited {code})")


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    table = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def run_workload(workload, seed, seconds, trace, fault=False):
    """Run one workload; returns (report text, parsed result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", str(BUILD / f"{workload}.trace.json")]
    if fault:
        cmd.append("--inject-fault")
    code, out = run(cmd, RUN_TIMEOUT_S, clean_env(), capture=True)
    if code != 0:
        sys.exit(f"{workload} exited {code}")
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload}: malformed result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.exit(f"{workload}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, "
                 f"extra {sorted(set(got) - set(want))}, units "
                 f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    return out, result


def self_check():
    build()
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            _, r = run_workload(w, 1, SELF_CHECK_SECONDS, trace)
            status = "ok" if r["correct"] and r["failed"] == 0 else "FAILED"
            print(f"{w:11s} trace={trace}: {len(r['metrics'])} metrics, "
                  f"{r['failed']}/{r['attempted']} failed - {status}")
            if status != "ok":
                problems.append(f"{w} trace={trace} failed at seed")
        _, r = run_workload(w, 1, SELF_CHECK_SECONDS, 0, fault=True)
        caught = r["failed"] > 0 and not r["correct"]
        print(f"{w:11s} injected fault: {r['failed']}/{r['attempted']} "
              f"failed - {'caught' if caught else 'MISSED'}")
        if not caught:
            problems.append(f"{w}: injected fault not caught")
    if problems:
        sys.exit("self-check failed: " + "; ".join(problems))
    print("self-check passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if a.self_check:
        self_check()
        return
    if not a.workload:
        p.error("--workload is required")
    build()
    out, _ = run_workload(a.workload, a.seed, a.seconds, a.trace)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
