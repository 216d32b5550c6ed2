#!/usr/bin/env python3
"""Serving latency with more connections than event loops.

Builds a 20,000-doc synthetic corpus, serves it with each given
`spatialkw_cli` binary (`serve --workers=2`, a default per-tenant rate
limit), and drives two concurrent `tools/loadgen` processes at it for a
fixed time:

  * quiet tenants: `--connections` connections, requests drawn Zipf(1)
    from a pool of 20,000 (a repeat-heavy mix the result cache answers
    in part), spread over 256 tenants that stay under the limit, traced
    so each ok response says whether it was a result-cache hit;
  * one noisy tenant: 2 connections sending as fast as they are answered,
    far over the limit, so nearly all of its requests are shed.

It reports p50/p99 client latency of hits, misses and sheds. Both
processes are closed loops, so a faster server also serves a costlier
mix (more quiet requests per shed); server CPU (utime + stime from
/proc/<pid>/stat) per request is therefore taken in a second phase that
sends the same fixed requests to both sides: 48,000 quiet ones split
over the connections plus 48,000 noisy ones. Sides alternate within
each repetition.

Usage:
  python3 tools/loop_fanout.py --loadgen build/tools/loadgen/loadgen \\
      --cli A=<tree A>/build/examples/spatialkw_cli \\
      --cli B=build/examples/spatialkw_cli \\
      [--connections 8,16] [--reps 3] [--seconds 5] [--out DIR]
"""

import argparse
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK  # utime + stime


def write_corpus(path, docs=20000, vocab=200, seed=7):
    rng = random.Random(seed)
    weights = [1.0 / (r + 1) for r in range(vocab)]
    with open(path, "w") as f:
        for i in range(docs):
            terms = set(rng.choices(range(vocab), weights,
                                    k=rng.randint(3, 8)))
            f.write("%d\t%.4f\t%.4f\t%s\n" % (
                i, rng.uniform(0, 100), rng.uniform(0, 100),
                " ".join("t%d" % t for t in sorted(terms))))


def start_server(cli, index, log_path):
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [cli, "serve", index, "--workers=2", "--rate=200", "--burst=20"],
            stdout=log, stderr=subprocess.STDOUT)
    for _ in range(200):
        with open(log_path) as f:
            m = re.search(r"serving on port (\d+)", f.read())
        if m:
            return proc, int(m.group(1))
        time.sleep(0.05)
    proc.kill()
    sys.exit("server did not start: see " + log_path)


def run_loadgens(cmds):
    runs = [subprocess.Popen(c, stdout=subprocess.PIPE, text=True)
            for c in cmds]
    outs = [r.communicate()[0] for r in runs]
    if any(r.returncode != 0 for r in runs):
        sys.exit("loadgen failed: " + " ".join(cmds[0]))
    return [json.loads(o) for o in outs]


def run_side(cli, loadgen, index, connections, seconds, seed, log_path):
    proc, port = start_server(cli, index, log_path)
    base = [loadgen, "--port=%d" % port, "--json", "--k=10", "--qn=2",
            "--max-term=200", "--seed=%d" % seed]
    quiet = base + ["--connections=%d" % connections, "--distinct=20000",
                    "--tenants=256", "--tenant-base=1", "--trace"]
    noisy = base + ["--connections=2", "--tenants=1", "--tenant-base=0"]
    try:
        # Warm-up: fills the result cache and the buffer pool.
        subprocess.run(quiet + ["--seconds=1"], check=True,
                       stdout=subprocess.DEVNULL)
        q, n = run_loadgens([c + ["--seconds=%g" % seconds]
                             for c in (quiet, noisy)])
        per_conn = 48000 // connections
        cpu0 = cpu_seconds(proc.pid)
        fixed = run_loadgens([quiet + ["--requests=%d" % per_conn],
                              noisy + ["--requests=24000"]])
        cpu1 = cpu_seconds(proc.pid)
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    return {
        "hit_p50": q["trace"]["hit_latency_us"]["p50"],
        "hit_p99": q["trace"]["hit_latency_us"]["p99"],
        "miss_p50": q["trace"]["miss_latency_us"]["p50"],
        "miss_p99": q["trace"]["miss_latency_us"]["p99"],
        "shed_p50": n["shed_latency_us"]["p50"],
        "shed_p99": n["shed_latency_us"]["p99"],
        "hit_frac": q["trace"]["hits"] / max(1, q["ok"]),
        "quiet_qps": q["qps"],
        "noisy_qps": n["qps"],
        "noisy_shed_frac": n["shed"] / max(1, n["ok"] + n["shed"]),
        "cpu_us_per_req": (cpu1 - cpu0) * 1e6 / (per_conn * connections
                                                  + 48000),
        "errors": sum(d["error"] for d in [q, n] + fixed),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cli", action="append", required=True,
                    help="NAME=path to spatialkw_cli (repeat per side)")
    ap.add_argument("--loadgen", required=True)
    ap.add_argument("--connections", default="8,16")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--out", default="loop_fanout_out")
    args = ap.parse_args()
    sides = [c.split("=", 1) for c in args.cli]
    os.makedirs(args.out, exist_ok=True)
    corpus = os.path.join(args.out, "corpus.tsv")
    write_corpus(corpus)
    for name, cli in sides:
        subprocess.run([cli, "build", corpus, os.path.join(args.out, name),
                        "0", "0", "100", "100"], check=True,
                       stdout=subprocess.DEVNULL)
    results = {}
    for rep in range(args.reps):
        for conns in map(int, args.connections.split(",")):
            order = sides if rep % 2 == 0 else sides[::-1]
            for name, cli in order:
                r = run_side(cli, args.loadgen, os.path.join(args.out, name),
                             conns, args.seconds, seed=rep + 1,
                             log_path=os.path.join(args.out, name + ".log"))
                results.setdefault((conns, name), []).append(r)
                print(json.dumps({"rep": rep, "connections": conns,
                                  "side": name, **r}), flush=True)
    keys = ["hit_p50", "hit_p99", "miss_p50", "miss_p99", "shed_p50",
            "shed_p99", "cpu_us_per_req", "hit_frac", "quiet_qps",
            "noisy_qps"]
    print("\nmedians over %d reps (latency in us)" % args.reps)
    print("conns side " + " ".join("%14s" % k for k in keys))
    for (conns, name), runs in sorted(results.items()):
        print("%5d %4s " % (conns, name) + " ".join(
            "%14.4g" % statistics.median(r[k] for r in runs) for k in keys))


if __name__ == "__main__":
    main()
