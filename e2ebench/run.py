#!/usr/bin/env python3
"""Runner of the end-to-end serving benchmark (see README.md).

Builds bench_e2e from the checkout's sources, runs workloads (one process
each), checks every metric named in BENCHMARK.json is reported, and prints
each metric as `name value unit`. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py                  # every workload in turn
  python3 e2ebench/run.py --quick          # 2K-doc smoke of every workload
  python3 e2ebench/run.py --pairs N --a TREE --b TREE   # interleaved A/B

Exits nonzero on any failed operation, oracle mismatch or missing metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A run takes about 25 s; one still going after this has hung.
RUN_TIMEOUT_S = 170
STEAL_FLAG_PCT = 10.0
# Fewer pairs than this never support a claimed gain.
MIN_GAIN_PAIRS = 10


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(tree, build_dir):
    """Configures and builds bench_e2e against `tree`'s sources."""
    if not os.path.isfile(os.path.join(tree, "src", "i3", "i3_index.h")):
        fail(f"no library sources under {tree}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         f"-DI3_ROOT={os.path.abspath(tree)}"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "bench_e2e"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build failed: {' '.join(cmd)}", 1)
    return os.path.join(build_dir, "bench_e2e")


def run_workload(binary, workload, seed, seconds, trace, quick=False):
    """One bench_e2e process; returns (ok, result dict, human lines)."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--out={OUT_DIR}"]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return False, None, []
    lines, result = [], None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            lines.append(line)
    ok = proc.returncode == 0 and result is not None and result["correct"]
    return ok, result, lines


def expected_metrics(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def select_metrics(bench, result, trace, workload):
    """The metrics BENCHMARK.json lists for this mode, in its order."""
    chosen, ok = {}, True
    for m in expected_metrics(bench, trace):
        got = result["metrics"].get(m["name"]) if result else None
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: {workload}: metric {m['name']} missing or with "
                  f"the wrong unit", file=sys.stderr)
            ok = False
            continue
        if not trace and got["value"] <= 0:
            print(f"run.py: {workload}: end-to-end metric {m['name']} is "
                  f"{got['value']}", file=sys.stderr)
            ok = False
        chosen[m["name"]] = got
    return chosen, ok


def steal_flag(workload, result):
    steal = result["metrics"].get("host.steal_pct", {}).get("value", 0.0)
    if steal > STEAL_FLAG_PCT:
        print(f"flag {workload}: host.steal_pct {steal:.1f} > "
              f"{STEAL_FLAG_PCT:g}: noisy host, compare with care")


def measure(args, bench):
    binary = args.bin or build(ROOT, BUILD_DIR)
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        ok, result, lines = run_workload(binary, w, args.seed, seconds,
                                         args.trace)
        prefix = "" if args.workload else f"{w} "
        for line in lines:
            print(prefix + line)
        if result is not None:
            steal_flag(w, result)
        chosen, names_ok = select_metrics(bench, result, args.trace, w)
        total["correct"] = total["correct"] and ok and names_ok
        if result is not None:
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
        for name, m in chosen.items():
            total["metrics"][prefix.replace(" ", ".") + name] = m
    total["attempted"] = max(total["attempted"], 1)
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def quick(args, bench):
    """Every workload on the 2K-doc corpus, traced: every metric of
    BENCHMARK.json must be printed and validation must pass."""
    binary = args.bin or build(ROOT, BUILD_DIR)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    failures = []
    for w in (x["name"] for x in bench["workloads"]):
        ok, result, lines = run_workload(binary, w, args.seed, 1, 1,
                                         quick=True)
        printed = {l.split(" ", 1)[0] for l in lines}
        missing = [n for n in names if n not in printed]
        if not ok or missing:
            failures.append(w)
            print(f"{w}: FAIL (ok={ok}, missing={missing})")
        else:
            print(f"{w}: ok ({len(names)} metrics, validation passed)")
    print(json.dumps({"correct": not failures, "attempted": 4,
                      "failed": len(failures), "metrics": {}}))
    return 1 if failures else 0


def quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3


def iqr(v):
    q = quartiles(v)
    return q[2] - q[0]


def verdict(a, b, better, bound):
    """A gain needs 9/10 pair wins and a median gap wider than A's
    interquartile range; a regression is a median worse by more than the
    bound; a spread wider than the bound leaves it unresolved."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    if ma == 0:
        return "unresolved", 0.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0) / len(a)
    if sign * (ma - mb) / abs(ma) > bound:
        return "regressed", wins
    if len(a) >= MIN_GAIN_PAIRS and wins >= 0.9 and sign * (mb - ma) > iqr(a):
        return "improved", wins
    spread = max(iqr(a), iqr(b)) / abs(ma)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def pairs(args, bench):
    """Interleaved A/B: the same benchmark code built against two trees,
    alternating which side runs first, one seed per pair."""
    binaries = {
        side: build(tree, os.path.join(BUILD_DIR, "ab", side))
        for side, tree in (("a", args.a), ("b", args.b))
    }
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    values = {}  # (workload, side, metric) -> [values]
    failed = 0
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for w in workloads:
            for side in order:
                ok, result, _ = run_workload(binaries[side], w, i + 1,
                                             seconds, args.trace)
                if not ok:
                    failed += 1
                    print(f"pair {i} {w} {side}: FAILED", file=sys.stderr)
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault((w, side, name), []).append(m["value"])
    print(f"{'workload':<14} {'metric':<34} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'B wins':>7}  verdict")
    for w in workloads:
        for m in expected_metrics(bench, args.trace):
            a = values.get((w, "a", m["name"]), [])
            b = values.get((w, "b", m["name"]), [])
            if not a or len(a) != len(b):
                print(f"{w:<14} {m['name']:<34} incomplete")
                continue
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            if "bound" in m:
                v, wins = verdict(a, b, m["better"], m["bound"])
            else:
                v, wins = "-", 0.0
            print(f"{w:<14} {m['name']:<34} {fmt(quartiles(a)):>30} "
                  f"{fmt(quartiles(b)):>30} {wins:>7.2f}  {v}")
    print(json.dumps({"correct": failed == 0,
                      "attempted": max(1, 2 * args.pairs * len(workloads)),
                      "failed": failed, "metrics": {}}))
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="one workload (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="timed seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run with the layer ledger")
    p.add_argument("--quick", action="store_true",
                   help="2K-doc smoke of every workload")
    p.add_argument("--bin", help="a built bench_e2e (skips the build)")
    p.add_argument("--pairs", type=int, help="interleaved A/B pairs")
    p.add_argument("--a", help="A/B: the baseline source tree")
    p.add_argument("--b", help="A/B: the candidate source tree")
    args = p.parse_args()
    bench = load_benchmark()
    if args.pairs:
        if not (args.a and args.b):
            fail("--pairs needs --a and --b")
        return pairs(args, bench)
    if args.quick:
        return quick(args, bench)
    return measure(args, bench)


if __name__ == "__main__":
    sys.exit(main())
