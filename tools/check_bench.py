#!/usr/bin/env python3
"""CI bench-regression gate: one comparator over declared gate entries.

``bench_hotpath`` and ``bench_serving`` write a flat list of gate entries
under "gates", each ``{"name", "value", "kind"}`` plus an optional
``"ref"`` (exact) or ``"slack"`` (budget). This script merges the entries
of the candidate files (fresh ``--smoke`` runs) and of the baseline files
(the committed ``BENCH_hotpath.json``, written by a full ``bench_hotpath``
run, and ``BENCH_serving.json``, written by ``bench_serving --smoke``) and
fails on every baseline entry the candidates lack or violate. The
baseline's declaration governs; by kind, the candidate's value must be

  exact    equal to the baseline value -- or, when the entry names a
           "ref", to the candidates' entry of that name (warm == cold
           checksum, wire == direct == the hot-path checksum, ...);
  budget   at most max(baseline * (1 + --max-regress), baseline + slack);
  nonzero  above zero: the counter moved;
  record   anything: printed beside the baseline, never gated (timings).

Candidate entries the baseline lacks are printed, not gated. Timing is
never gated: CI runners are noisy, checksums and counts are not. To
regenerate the baselines, re-run both benches at the repository root.

``--self-test`` derives its doctored inputs from the baselines: for every
entry it deletes the entry, applies the mutation the entry's kind must
reject and, for budget and record, one it must accept, and fails unless
each verdict is right -- so a gate added later is self-tested with no new
code.

Usage:
  check_bench.py --candidate BENCH_hotpath_smoke.json \\
                 BENCH_serving_smoke.json [--max-regress 0.10]
  check_bench.py --self-test
"""

import argparse
import copy
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = [str(ROOT / name)
             for name in ("BENCH_hotpath.json", "BENCH_serving.json")]


def load_entries(paths):
    """The "gates" entries of `paths`, merged into one dict by name."""
    entries = {}
    for path in paths:
        with open(path) as f:
            gates = json.load(f).get("gates")
        if gates is None:
            sys.exit(f"{path} has no 'gates' list; re-run the bench")
        for e in gates:
            if e["name"] in entries:
                sys.exit(f"{path}: gate entry {e['name']} appears twice")
            entries[e["name"]] = e
    return entries


def budget(entry, max_regress):
    base = entry["value"]
    return max(base * (1.0 + max_regress), base + entry.get("slack", 0.0))


def violation(base, cand, max_regress):
    """Why the candidate entries break baseline entry `base`, or None."""
    if base["name"] not in cand:
        return "missing from the candidate"
    got, kind = cand[base["name"]]["value"], base["kind"]
    if kind == "exact":
        ref = base.get("ref")
        if ref is None:
            want, what = base["value"], "the baseline"
        elif ref in cand:
            want, what = cand[ref]["value"], ref
        else:
            return f"its ref {ref} is missing from the candidate"
        if got != want:
            return f"{got} != {what} {want}"
    elif kind == "budget":
        limit = budget(base, max_regress)
        if got > limit:
            return (f"{got} exceeds the budget {limit:.3f} (baseline "
                    f"{base['value']})")
    elif kind == "nonzero":
        if not got > 0:
            return f"{got}: never moved"
    elif kind != "record":
        return f"unknown kind {kind!r}"
    return None


def compare(base, cand, max_regress):
    """The failures of the candidate entries, and a line per passed entry."""
    failures, passed = [], []
    for name, b in base.items():
        why = violation(b, cand, max_regress)
        if why is not None:
            failures.append(f"{name} ({b['kind']}): {why}")
        else:
            passed.append(f"  {b['kind']:8} {name}: {cand[name]['value']} "
                          f"(baseline {b['value']})")
    for name in sorted(cand.keys() - base.keys()):
        passed.append(f"  {'new':8} {name}: {cand[name]['value']} "
                      "(not gated)")
    return failures, passed


def mutations(name, entries, max_regress):
    """(what, doctored entries, must pass) for entry `name` of `entries`."""
    entry = entries[name]

    def doctored(value, moved=(name,)):
        out = copy.deepcopy(entries)
        for n in moved:
            out[n]["value"] = value
        return out

    missing = copy.deepcopy(entries)
    del missing[name]
    yield "deleted", missing, False
    kind, value = entry["kind"], entry["value"]
    if kind == "exact":
        yield "moved by one", doctored(value + 1), False
    elif kind == "budget":
        # The bound restated, not taken from budget(): a comparator that
        # drops a term must fail here.
        limit = max(value * (1.0 + max_regress),
                    value + entry.get("slack", 0.0))
        yield "at its budget", doctored(limit), True
        yield "past its budget", doctored(limit + 0.01), False
    elif kind == "nonzero":
        yield "zeroed", doctored(0), False
    elif kind == "record":
        # A record may move freely; entries pinned to it by a ref move too.
        pinned = [n for n, e in entries.items() if e.get("ref") == name]
        yield "changed", doctored(value * 2 + 1, [name] + pinned), True


def self_test(paths, max_regress):
    entries = load_entries(paths)
    failures, _ = compare(entries, entries, max_regress)
    if failures:
        sys.exit("self-test: the baseline fails against itself:\n  "
                 + "\n  ".join(failures))
    judged = 0
    for name in entries:
        for what, doctored, must_pass in mutations(name, entries,
                                                   max_regress):
            failures, _ = compare(entries, doctored, max_regress)
            if bool(failures) == must_pass:
                verdict = "rejected: " + failures[0] if failures else "passed"
                sys.exit(f"self-test: {entries[name]['kind']} entry {name} "
                         f"{what} was wrongly {verdict}")
            judged += 1
    print(f"self-test OK: {judged} inputs doctored from {len(entries)} "
          "baseline entries, each judged as its kind requires")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--candidate", nargs="+",
                    help="bench JSON files of fresh --smoke runs to gate")
    ap.add_argument("--baseline", nargs="+", default=BASELINES,
                    help="committed baseline JSON files (default: the "
                    "repository's BENCH_hotpath.json and BENCH_serving.json)")
    ap.add_argument("--max-regress", type=float, default=0.10,
                    help="budget entries' relative regression budget "
                    "(default 0.10 = 10%%)")
    ap.add_argument("--self-test", action="store_true",
                    help="judge inputs doctored from the baselines, then exit")
    args = ap.parse_args()

    if args.self_test:
        self_test(args.baseline, args.max_regress)
        return
    if not args.candidate:
        ap.error("--candidate is required (or use --self-test)")
    failures, passed = compare(load_entries(args.baseline),
                               load_entries(args.candidate), args.max_regress)
    print("\n".join(passed))
    for failure in failures:
        print(f"BENCH GATE FAILED: {failure}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print("bench gate OK")


if __name__ == "__main__":
    main()
