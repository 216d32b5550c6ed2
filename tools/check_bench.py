#!/usr/bin/env python3
"""CI bench-regression gate for the I3 hot path.

Compares a fresh ``bench_hotpath --smoke`` run against the smoke baseline
embedded in the committed ``BENCH_hotpath.json`` and fails when:

  * a result checksum differs -- the smoke workload is fully deterministic
    (same tier-0 dataset, same 20 queries, same seed), so any drift means
    query *answers* changed, which the compressed-format work promises
    never happens;
  * ``pages_per_query`` regresses more than the budget (default 10%)
    against the baseline -- the paper's own cost metric, and the figure
    the compressed-cell + block-max tentpole exists to shrink;
  * a search work count per query (``candidates_popped``,
    ``rows_joined``, ``docs_scored``, summed from each query's
    QueryStats) differs from the baseline at all -- the search is
    deterministic, so any change is a change in the work it does. The
    per-stage times recorded next to them are not gated;
  * a required metric series is missing from the run's "obs" snapshot:
    the query-latency histogram, buffer-pool and per-category I/O
    counters, the pruning counters ``i3_cells_skipped_total`` /
    ``i3_blockmax_prunes_total`` (which must also show the machinery
    actually fired), the striped-pool gauge ``i3_buffer_pool_stripes``,
    and ``i3_cell_cache_hits_total`` (the decoded-cell cache must have
    served the warm passes);
  * the "warm_smoke" section is missing, a warm checksum differs from the
    cold smoke checksum (a cache changed an answer), or warm
    ``pages_per_query`` regresses against the committed warm baseline --
    device reads with the hierarchy warm are the figure the cache
    tentpole exists to eliminate;
  * the "smoke_build" section (the write layer's ledger: building the
    smoke-tier index) is missing, or its data-file reads, data-file
    writes or head-file writes differ from the committed baseline at all
    -- the build is deterministic, so any change in what it charges is a
    change in the write path's I/O. Its ``us_per_tuple`` is recorded, not
    gated.

The serving stack has its own gate: ``--serving-candidate`` takes a
``bench_serving --smoke`` JSON and fails when:

  * a wire checksum differs from the in-process direct-search checksum
    (the server must serve byte-identical results, scores and order
    included);
  * a wire ``docsum_checksum`` differs from the committed hot-path
    smoke baseline's ``checksum`` -- the serving workload is the exact
    hot-path smoke workload, so the answers served over TCP must be the
    very answers the committed baseline records;
  * a ``warm_wire_checksum`` differs from ``wire_checksum`` -- the warm
    passes are served by the whole-query result cache, so a mismatch
    means a cached response was not byte-identical to the uncached one;
  * the forced-overload phase shed nothing, produced errors, or lost
    requests (``ok + shed != sent``);
  * a required serving metric series is missing or never moved:
    ``i3_requests_shed_total``, the ``i3_net_requests_total`` outcome
    counters, the ``i3_request_latency_us`` histogram, and
    ``i3_result_cache_hits_total`` (the result cache must have served
    the repeated warm passes);
  * the observability phase ("obs_phase") is missing, a traced request
    came back without a consistent span timeline, or the
    threshold-0 slow-query log failed to capture every request;
  * an observability metric series is missing or never moved:
    ``i3_net_traced_requests_total``, ``i3_slow_queries_total``, and the
    per-tenant rolling-window gauge ``i3_slo_window_requests``;
  * the replication phase ("replica_phase") is missing, any of its four
    wire checksums (all-healthy cold, warm, primary-killed failover,
    post-recovery) differs from the others -- failover and online
    recovery must be byte-invisible -- or the phase never failed over,
    never recovered, or never scrubbed a page;
  * a replication metric series is missing or never moved:
    ``i3_failover_total``, ``i3_replica_recoveries_total``,
    ``i3_scrub_pages_total``, and the ``i3_replica_healthy`` gauge
    (``i3_scrub_corrupt_total`` / ``i3_scrub_healed_total`` need only
    exist -- the bench plants no corruption).

Timing figures (qps, percentiles) are deliberately NOT gated: CI runners
are too noisy. Checksums, outcome counts, and page counts are
noise-free.

Usage:
  check_bench.py --candidate BENCH_hotpath_smoke.json \
                 --baseline BENCH_hotpath.json [--max-regress 0.10]
  check_bench.py --serving-candidate BENCH_serving_smoke.json \
                 --baseline BENCH_hotpath.json
  check_bench.py --self-test

``--self-test`` feeds the checker doctored inputs (checksum drift, page
regression, missing metric series) and fails unless every one is caught;
CI runs it before the real comparison so the gate itself is gated.
"""

import argparse
import copy
import json
import sys


class GateFailure(Exception):
    """A condition the gate must fail the build for."""


def load(path):
    with open(path) as f:
        return json.load(f)


def baseline_entries(baseline):
    """The per-semantics smoke figures of the committed baseline.

    A full-run BENCH_hotpath.json carries them under "smoke_baseline"; a
    smoke-run file's own "results" are accepted too, so two smoke runs
    can be compared directly.
    """
    if "smoke_baseline" in baseline:
        entries = baseline["smoke_baseline"]
    elif baseline.get("config", {}).get("smoke"):
        entries = baseline["results"]
    else:
        raise GateFailure(
            "baseline JSON has no 'smoke_baseline' section and is not a "
            "smoke run; regenerate BENCH_hotpath.json with a full "
            "bench_hotpath run"
        )
    return {e["semantics"]: e for e in entries}


# The search layer's deterministic work counts per query, gated exactly.
WORK_COUNTS = ("candidates_popped", "rows_joined", "docs_scored")


def require_equal(what, got, want, keys, meaning):
    """Fails unless `got` and `want` hold equal values under every key."""
    for key in keys:
        if got.get(key) != want.get(key):
            raise GateFailure(
                f"{what}: {key} {got.get(key)} != baseline {want.get(key)} "
                f"-- {meaning}"
            )


def check_results(candidate, baseline, max_regress):
    if not candidate.get("config", {}).get("smoke"):
        raise GateFailure("candidate JSON is not a --smoke run")
    base = baseline_entries(baseline)
    results = candidate.get("results", [])
    if not results:
        raise GateFailure("candidate JSON has no results")
    for r in results:
        sem = r["semantics"]
        if sem not in base:
            raise GateFailure(f"baseline has no {sem} entry")
        b = base[sem]
        if r["checksum"] != b["checksum"]:
            raise GateFailure(
                f"{sem}: result checksum {r['checksum']} != baseline "
                f"{b['checksum']} -- query answers changed"
            )
        budget = b["pages_per_query"] * (1.0 + max_regress)
        if r["pages_per_query"] > budget:
            raise GateFailure(
                f"{sem}: pages_per_query {r['pages_per_query']:.2f} "
                f"exceeds baseline {b['pages_per_query']:.2f} "
                f"+{max_regress:.0%} budget ({budget:.2f})"
            )
        require_equal(sem, r, b, WORK_COUNTS, "the search's work changed")
        delta = r["pages_per_query"] - b["pages_per_query"]
        print(
            f"  {sem}: checksum {r['checksum']} OK, pages/query "
            f"{r['pages_per_query']:.2f} vs baseline "
            f"{b['pages_per_query']:.2f} ({delta:+.2f}), work counts OK"
        )


def check_warm_smoke(candidate, baseline, max_regress):
    """Gates the repeated-query ("warm") smoke passes.

    Two promises: the cache hierarchy may only make answers *faster*,
    never *different* (warm checksum == cold smoke checksum), and it must
    actually absorb the working set (warm pages/query stays within
    budget of the committed warm baseline, which is ~0 when the
    hierarchy holds everything).
    """
    warm = {e["semantics"]: e for e in candidate.get("warm_smoke", [])}
    if not warm:
        raise GateFailure(
            "candidate JSON has no 'warm_smoke' section; bench_hotpath "
            "must emit warm repeated-query figures"
        )
    base = baseline_entries(baseline)
    base_warm = {
        e["semantics"]: e for e in baseline.get("warm_smoke", [])
    }
    for sem, r in sorted(warm.items()):
        if sem not in base:
            raise GateFailure(f"baseline has no {sem} smoke entry")
        if r["checksum"] != base[sem]["checksum"]:
            raise GateFailure(
                f"warm {sem}: checksum {r['checksum']} != cold smoke "
                f"baseline {base[sem]['checksum']} -- a cache changed "
                "an answer"
            )
        if sem not in base_warm:
            raise GateFailure(
                f"baseline has no warm_smoke {sem} entry; regenerate "
                "BENCH_hotpath.json with a full bench_hotpath run"
            )
        bp = base_warm[sem]["pages_per_query"]
        # Warm pages sit near zero, so a pure relative budget would
        # reject noise; allow the larger of the relative budget and a
        # half-page absolute slack.
        budget = max(bp * (1.0 + max_regress), bp + 0.5)
        if r["pages_per_query"] > budget:
            raise GateFailure(
                f"warm {sem}: pages_per_query {r['pages_per_query']:.3f} "
                f"exceeds warm baseline {bp:.3f} budget ({budget:.3f}) "
                "-- the cache hierarchy stopped absorbing the working set"
            )
        print(
            f"  warm {sem}: checksum {r['checksum']} OK, pages/query "
            f"{r['pages_per_query']:.3f} vs warm baseline {bp:.3f}"
        )


# The write layer's deterministic counts, gated exactly.
BUILD_COUNTS = ("docs", "tuples", "data_reads", "data_writes", "head_writes")


def check_smoke_build(candidate, baseline):
    """Gates the smoke-tier build's page I/O: equal to the baseline, or fail."""
    build = candidate.get("smoke_build")
    if build is None:
        raise GateFailure(
            "candidate JSON has no 'smoke_build' section; bench_hotpath "
            "must record the smoke-tier build's I/O"
        )
    base = baseline.get("smoke_build")
    if base is None:
        raise GateFailure(
            "baseline has no 'smoke_build' section; regenerate "
            "BENCH_hotpath.json with a full bench_hotpath run"
        )
    require_equal(
        "smoke build",
        build,
        base,
        BUILD_COUNTS,
        "the write path's I/O changed",
    )
    print(
        f"  smoke build: data r={build['data_reads']} "
        f"w={build['data_writes']}, head w={build['head_writes']} OK; "
        f"{build.get('us_per_tuple', 0.0):.2f} us/tuple (baseline "
        f"{base.get('us_per_tuple', 0.0):.2f}, not gated)"
    )


def check_metrics(candidate):
    for r in candidate.get("results", []):
        for field in ("p50_us", "p90_us", "p99_us", "max_us"):
            if field not in r:
                raise GateFailure(f"missing {field} in results")

    metrics = candidate["obs"]["metrics"]
    by_name = metric_index(candidate)

    def require(name, check, what):
        return require_metric(by_name, name, check, what)

    require(
        "i3_query_latency_us",
        lambda m: m["type"] == "histogram"
        and m["count"] > 0
        and m["labels"].get("index") == "I3",
        "non-empty I3 query latency histogram",
    )
    hits = require(
        "i3_buffer_pool_hits_total", lambda m: m["value"] > 0, "non-zero hits"
    )
    misses = require(
        "i3_buffer_pool_misses_total", lambda m: True, "misses series present"
    )
    total = hits[0]["value"] + misses[0]["value"]
    if total <= 0:
        raise GateFailure("buffer pool saw no traffic")
    print(f"  buffer pool hit rate: {hits[0]['value'] / total:.2%}")
    require(
        "i3_io_pages_total",
        lambda m: m["labels"].get("op") == "read" and m["value"] > 0,
        "non-zero per-category read counter",
    )
    # The block-max pruning series introduced with the compressed format:
    # both must exist, and together they must show the deferred-fetch
    # machinery actually killed work on the smoke workload.
    skipped = require(
        "i3_cells_skipped_total", lambda m: True, "series present"
    )
    pruned = require(
        "i3_blockmax_prunes_total", lambda m: True, "series present"
    )
    if skipped[0]["value"] + pruned[0]["value"] <= 0:
        raise GateFailure(
            "i3_cells_skipped_total + i3_blockmax_prunes_total is zero: "
            "block-max pruning never fired"
        )
    print(
        f"  pruning: {skipped[0]['value']:.0f} cells skipped, "
        f"{pruned[0]['value']:.0f} block-max prunes"
    )
    # The cache-hierarchy series: the warm passes must have been served
    # from the decoded-cell cache, and the buffer pool must report its
    # stripe layout (the striped rewrite registers the gauge at
    # construction, so a zero means the pool was never built striped).
    cell_hits = require(
        "i3_cell_cache_hits_total",
        lambda m: m["value"] > 0,
        "non-zero decoded-cell cache hits",
    )
    require(
        "i3_buffer_pool_stripes",
        lambda m: m["value"] > 0,
        "non-zero stripe-count gauge",
    )
    print(f"  cell cache: {cell_hits[0]['value']:.0f} decode hits")
    print(f"  metrics OK: {len(metrics)} series")


def metric_index(candidate):
    by_name = {}
    for m in candidate["obs"]["metrics"]:
        by_name.setdefault(m["name"], []).append(m)
    return by_name


def require_metric(by_name, name, check, what):
    if name not in by_name:
        raise GateFailure(f"missing metric family {name}")
    ok = [m for m in by_name[name] if check(m)]
    if not ok:
        raise GateFailure(f"{name}: no series satisfies: {what}")
    return ok


def check_serving(serving, baseline):
    """Gates a ``bench_serving --smoke`` run (see module docstring)."""
    if not serving.get("config", {}).get("smoke"):
        raise GateFailure("serving candidate JSON is not a --smoke run")
    base = baseline_entries(baseline)
    # qps / shed-latency in the embedded serving_smoke entry are reference
    # figures only (timing is never gated); its checksums are.
    serving_base = {
        e["semantics"]: e
        for e in baseline.get("serving_smoke", {}).get("results", [])
    }
    results = serving.get("results", [])
    if not results:
        raise GateFailure("serving candidate JSON has no results")
    for r in results:
        sem = r["semantics"]
        if r["wire_checksum"] != r["direct_checksum"]:
            raise GateFailure(
                f"serving {sem}: wire checksum {r['wire_checksum']} != "
                f"direct {r['direct_checksum']} -- the server returned "
                "different results than ShardedIndex::Search"
            )
        if "warm_wire_checksum" not in r:
            raise GateFailure(
                f"serving {sem}: no warm_wire_checksum; bench_serving "
                "must fold the cached warm passes"
            )
        if r["warm_wire_checksum"] != r["wire_checksum"]:
            raise GateFailure(
                f"serving {sem}: warm wire checksum "
                f"{r['warm_wire_checksum']} != cold {r['wire_checksum']} "
                "-- a result-cache hit was not byte-identical to the "
                "uncached response"
            )
        if sem not in base:
            raise GateFailure(f"baseline has no {sem} entry")
        if r["docsum_checksum"] != base[sem]["checksum"]:
            raise GateFailure(
                f"serving {sem}: wire docsum {r['docsum_checksum']} != "
                f"committed hot-path baseline {base[sem]['checksum']} -- "
                "answers served over the wire drifted from the baseline"
            )
        if sem in serving_base and (
            r["docsum_checksum"] != serving_base[sem]["checksum"]
        ):
            raise GateFailure(
                f"serving {sem}: wire docsum {r['docsum_checksum']} != "
                f"serving_smoke baseline {serving_base[sem]['checksum']}"
            )
        ref = (
            f", qps {r.get('qps', 0):.0f} vs baseline "
            f"{serving_base[sem]['qps']:.0f} (not gated)"
            if sem in serving_base
            else ""
        )
        print(
            f"  serving {sem}: wire == direct == committed baseline "
            f"({r['docsum_checksum']}){ref}"
        )

    shed = serving.get("shed", {})
    if shed.get("sent", 0) <= 0:
        raise GateFailure("serving shed phase sent no requests")
    if shed.get("shed", 0) <= 0:
        raise GateFailure(
            "serving shed phase shed nothing: admission control never "
            "fired under a starvation-level tenant budget"
        )
    if shed.get("error", 0) != 0:
        raise GateFailure(
            f"serving shed phase produced {shed['error']} errors; "
            "overload must shed cleanly, not fail"
        )
    if shed.get("ok", 0) + shed["shed"] != shed["sent"]:
        raise GateFailure(
            f"serving shed phase lost requests: ok {shed.get('ok', 0)} + "
            f"shed {shed['shed']} != sent {shed['sent']}"
        )
    print(
        f"  serving shed phase: {shed['shed']}/{shed['sent']} shed, "
        f"0 errors, shed p99 {shed.get('shed_p99_us', 0):.0f}us"
    )

    by_name = metric_index(serving)
    require_metric(
        by_name,
        "i3_requests_shed_total",
        lambda m: m["value"] > 0,
        "non-zero shed counter",
    )
    require_metric(
        by_name,
        "i3_net_requests_total",
        lambda m: m["labels"].get("outcome") == "ok" and m["value"] > 0,
        "non-zero ok outcome counter",
    )
    require_metric(
        by_name,
        "i3_request_latency_us",
        lambda m: m["type"] == "histogram" and m["count"] > 0,
        "non-empty request latency histogram",
    )
    require_metric(
        by_name, "i3_net_connections", lambda m: True, "series present"
    )
    # The warm timed passes repeat the exact same requests, so the
    # whole-query result cache must have answered most of them.
    require_metric(
        by_name,
        "i3_result_cache_hits_total",
        lambda m: m["value"] > 0,
        "non-zero result-cache hit counter",
    )

    # Observability phase: every traced request must return a timeline
    # whose stages fit inside the end-to-end time, and the threshold-0
    # slow-query log must have captured every request.
    obs_phase = serving.get("obs_phase", {})
    if obs_phase.get("sent", 0) <= 0:
        raise GateFailure(
            "serving obs phase sent no requests; bench_serving must "
            "exercise the tracing + slow-log path"
        )
    if obs_phase.get("traced_responses", 0) != obs_phase["sent"]:
        raise GateFailure(
            f"serving obs phase: {obs_phase.get('traced_responses', 0)}/"
            f"{obs_phase['sent']} responses carried a span timeline; "
            "every traced request must return one"
        )
    if obs_phase.get("timeline_consistent", 0) != obs_phase["sent"]:
        raise GateFailure(
            f"serving obs phase: {obs_phase.get('timeline_consistent', 0)}/"
            f"{obs_phase['sent']} timelines were consistent (a stage "
            "outran the request's end-to-end time)"
        )
    if obs_phase.get("slow_recorded", 0) < obs_phase["sent"]:
        raise GateFailure(
            f"serving obs phase: slow-query log captured "
            f"{obs_phase.get('slow_recorded', 0)} of {obs_phase['sent']} "
            "requests at threshold 0; the always-on log dropped records"
        )
    print(
        f"  serving obs phase: {obs_phase['traced_responses']}/"
        f"{obs_phase['sent']} traced+consistent, "
        f"{obs_phase['slow_recorded']} slow-log records"
    )
    require_metric(
        by_name,
        "i3_net_traced_requests_total",
        lambda m: m["value"] > 0,
        "non-zero traced-request counter",
    )
    require_metric(
        by_name,
        "i3_slow_queries_total",
        lambda m: m["value"] > 0,
        "non-zero slow-query counter",
    )
    require_metric(
        by_name,
        "i3_slo_window_requests",
        lambda m: m["value"] > 0,
        "non-zero rolling-window SLO request gauge",
    )

    check_replica_phase(serving, by_name)
    print(f"  serving metrics OK: {len(serving['obs']['metrics'])} series")


def check_replica_phase(serving, by_name):
    """Gates the replication phase of a ``bench_serving --smoke`` run."""
    rp = serving.get("replica_phase", {})
    if not rp:
        raise GateFailure(
            "serving candidate has no 'replica_phase' section; "
            "bench_serving must exercise the replicated shard"
        )
    checksums = {
        k: rp.get(k)
        for k in (
            "baseline_checksum",
            "warm_checksum",
            "failover_checksum",
            "recovered_checksum",
        )
    }
    missing = [k for k, v in checksums.items() if v is None]
    if missing:
        raise GateFailure(f"replica phase is missing {missing}")
    if len(set(checksums.values())) != 1:
        raise GateFailure(
            f"replica phase checksums diverged: {checksums} -- failover "
            "or recovery changed an answer"
        )
    if rp.get("failovers", 0) <= 0:
        raise GateFailure(
            "replica phase recorded no failovers: killing the primary "
            "never re-routed a read"
        )
    if rp.get("recoveries", 0) <= 0:
        raise GateFailure(
            "replica phase recorded no recoveries: the killed replica "
            "never rejoined"
        )
    if rp.get("scrub_pages_verified", 0) <= 0:
        raise GateFailure(
            "replica phase verified no pages: the scrubber never ran"
        )
    print(
        f"  serving replica phase: checksums identical "
        f"({rp['baseline_checksum']}), {rp['failovers']} failovers, "
        f"{rp['recoveries']} recoveries in {rp.get('recover_ms', 0):.0f}ms, "
        f"{rp['scrub_pages_verified']} pages scrubbed"
    )
    require_metric(
        by_name,
        "i3_failover_total",
        lambda m: m["value"] > 0,
        "non-zero failover counter",
    )
    require_metric(
        by_name,
        "i3_replica_recoveries_total",
        lambda m: m["value"] > 0,
        "non-zero replica-recovery counter",
    )
    require_metric(
        by_name,
        "i3_scrub_pages_total",
        lambda m: m["value"] > 0,
        "non-zero scrubbed-pages counter",
    )
    require_metric(
        by_name,
        "i3_replica_healthy",
        lambda m: m["value"] > 0,
        "non-zero healthy-replica gauge",
    )
    # The bench plants no corruption, so these only need to exist.
    require_metric(
        by_name, "i3_scrub_corrupt_total", lambda m: True, "series present"
    )
    require_metric(
        by_name, "i3_scrub_healed_total", lambda m: True, "series present"
    )


def run_gate(candidate, baseline, max_regress):
    check_results(candidate, baseline, max_regress)
    check_warm_smoke(candidate, baseline, max_regress)
    check_smoke_build(candidate, baseline)
    check_metrics(candidate)


def expect_failure(what, candidate, baseline, max_regress=0.10):
    try:
        run_gate(candidate, baseline, max_regress)
    except GateFailure as e:
        print(f"  correctly rejected {what}: {e}")
        return
    raise SystemExit(f"self-test: doctored input NOT caught: {what}")


def self_test():
    """The gate must fail on doctored JSON; prove it on synthetic inputs."""
    good = {
        "config": {"smoke": True},
        "results": [
            {
                "semantics": "AND",
                "pages_per_query": 20.0,
                "checksum": 111,
                "candidates_popped": 26.05,
                "rows_joined": 1234.5,
                "docs_scored": 40.1,
                "p50_us": 1,
                "p90_us": 1,
                "p99_us": 1,
                "max_us": 1,
            }
        ],
        "warm_smoke": [
            {
                "semantics": "AND",
                "qps": 1000.0,
                "pages_per_query": 0.0,
                "checksum": 111,
            }
        ],
        "smoke_build": {
            "docs": 100,
            "tuples": 650,
            "data_reads": 3,
            "data_writes": 700,
            "head_writes": 90,
            "us_per_tuple": 4.0,
        },
        "obs": {
            "metrics": [
                {
                    "name": "i3_query_latency_us",
                    "type": "histogram",
                    "count": 5,
                    "labels": {"index": "I3"},
                },
                {
                    "name": "i3_buffer_pool_hits_total",
                    "type": "counter",
                    "value": 10,
                    "labels": {},
                },
                {
                    "name": "i3_buffer_pool_misses_total",
                    "type": "counter",
                    "value": 2,
                    "labels": {},
                },
                {
                    "name": "i3_io_pages_total",
                    "type": "counter",
                    "value": 40,
                    "labels": {"op": "read"},
                },
                {
                    "name": "i3_cells_skipped_total",
                    "type": "counter",
                    "value": 7,
                    "labels": {},
                },
                {
                    "name": "i3_blockmax_prunes_total",
                    "type": "counter",
                    "value": 3,
                    "labels": {},
                },
                {
                    "name": "i3_cell_cache_hits_total",
                    "type": "counter",
                    "value": 30,
                    "labels": {},
                },
                {
                    "name": "i3_buffer_pool_stripes",
                    "type": "gauge",
                    "value": 8,
                    "labels": {},
                },
            ]
        },
    }
    baseline = {
        "smoke_baseline": [
            {
                "semantics": "AND",
                "pages_per_query": 20.0,
                "checksum": 111,
                "candidates_popped": 26.05,
                "rows_joined": 1234.5,
                "docs_scored": 40.1,
            }
        ],
        "warm_smoke": [
            {"semantics": "AND", "pages_per_query": 0.0, "checksum": 111}
        ],
        "smoke_build": {
            "docs": 100,
            "tuples": 650,
            "data_reads": 3,
            "data_writes": 700,
            "head_writes": 90,
            "us_per_tuple": 9.0,
        },
    }

    print("self-test: clean input passes")
    run_gate(copy.deepcopy(good), baseline, 0.10)

    doctored = copy.deepcopy(good)
    doctored["results"][0]["checksum"] = 222
    expect_failure("checksum drift", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["results"][0]["pages_per_query"] = 22.5  # +12.5% > 10% budget
    expect_failure("pages/query regression", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["results"][0]["docs_scored"] = 40.05  # fewer is a change too
    expect_failure("search work count drift", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["obs"]["metrics"] = [
        m
        for m in doctored["obs"]["metrics"]
        if m["name"] != "i3_blockmax_prunes_total"
    ]
    expect_failure("missing pruning metric series", doctored, baseline)

    doctored = copy.deepcopy(good)
    for m in doctored["obs"]["metrics"]:
        if m["name"] in ("i3_cells_skipped_total", "i3_blockmax_prunes_total"):
            m["value"] = 0
    expect_failure("pruning counters all zero", doctored, baseline)

    doctored = copy.deepcopy(good)
    del doctored["warm_smoke"]
    expect_failure("missing warm_smoke section", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["warm_smoke"][0]["checksum"] = 333
    expect_failure("warm checksum drift from cold smoke", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["warm_smoke"][0]["pages_per_query"] = 5.0  # > 0.0 + 0.5 slack
    expect_failure("warm pages/query regression", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["obs"]["metrics"] = [
        m
        for m in doctored["obs"]["metrics"]
        if m["name"] != "i3_cell_cache_hits_total"
    ]
    expect_failure("missing cell-cache metric series", doctored, baseline)

    doctored = copy.deepcopy(good)
    for m in doctored["obs"]["metrics"]:
        if m["name"] == "i3_buffer_pool_stripes":
            m["value"] = 0
    expect_failure("zero buffer-pool stripe gauge", doctored, baseline)

    doctored = copy.deepcopy(good)
    del doctored["smoke_build"]
    expect_failure("missing smoke_build section", doctored, baseline)

    for key in ("data_reads", "data_writes", "head_writes"):
        doctored = copy.deepcopy(good)
        doctored["smoke_build"][key] -= 1  # fewer is a change too
        expect_failure(f"doctored build {key}", doctored, baseline)

    # Within-budget drift must NOT fail; build time is recorded, not gated.
    tolerable = copy.deepcopy(good)
    tolerable["results"][0]["pages_per_query"] = 21.5  # +7.5%
    run_gate(tolerable, baseline, 0.10)
    print("self-test: tolerable drift passes")

    serving_self_test(baseline)
    print("self-test OK")


def expect_serving_failure(what, serving, baseline):
    try:
        check_serving(serving, baseline)
    except GateFailure as e:
        print(f"  correctly rejected {what}: {e}")
        return
    raise SystemExit(f"self-test: doctored serving input NOT caught: {what}")


def serving_self_test(baseline):
    good = {
        "config": {"smoke": True},
        "results": [
            {
                "semantics": "AND",
                "wire_checksum": 999,
                "direct_checksum": 999,
                "warm_wire_checksum": 999,
                "docsum_checksum": 111,
            }
        ],
        "shed": {"sent": 100, "ok": 5, "shed": 95, "error": 0,
                 "shed_p99_us": 20},
        "obs_phase": {
            "sent": 20,
            "traced_responses": 20,
            "timeline_consistent": 20,
            "slow_recorded": 20,
        },
        "replica_phase": {
            "baseline_checksum": 777,
            "warm_checksum": 777,
            "failover_checksum": 777,
            "recovered_checksum": 777,
            "failovers": 20,
            "recoveries": 1,
            "scrub_pages_verified": 1600,
            "recover_ms": 40.0,
        },
        "obs": {
            "metrics": [
                {
                    "name": "i3_requests_shed_total",
                    "type": "counter",
                    "value": 95,
                    "labels": {},
                },
                {
                    "name": "i3_net_requests_total",
                    "type": "counter",
                    "value": 45,
                    "labels": {"outcome": "ok"},
                },
                {
                    "name": "i3_request_latency_us",
                    "type": "histogram",
                    "count": 45,
                    "labels": {"outcome": "ok"},
                },
                {
                    "name": "i3_net_connections",
                    "type": "gauge",
                    "value": 0,
                    "labels": {},
                },
                {
                    "name": "i3_result_cache_hits_total",
                    "type": "counter",
                    "value": 80,
                    "labels": {},
                },
                {
                    "name": "i3_net_traced_requests_total",
                    "type": "counter",
                    "value": 20,
                    "labels": {},
                },
                {
                    "name": "i3_slow_queries_total",
                    "type": "counter",
                    "value": 20,
                    "labels": {},
                },
                {
                    "name": "i3_slo_window_requests",
                    "type": "gauge",
                    "value": 20,
                    "labels": {"tenant": "0"},
                },
                {
                    "name": "i3_failover_total",
                    "type": "counter",
                    "value": 20,
                    "labels": {"shard": "0"},
                },
                {
                    "name": "i3_replica_recoveries_total",
                    "type": "counter",
                    "value": 1,
                    "labels": {"shard": "0"},
                },
                {
                    "name": "i3_scrub_pages_total",
                    "type": "counter",
                    "value": 1600,
                    "labels": {"shard": "0"},
                },
                {
                    "name": "i3_scrub_corrupt_total",
                    "type": "counter",
                    "value": 0,
                    "labels": {"shard": "0"},
                },
                {
                    "name": "i3_scrub_healed_total",
                    "type": "counter",
                    "value": 0,
                    "labels": {"shard": "0"},
                },
                {
                    "name": "i3_replica_healthy",
                    "type": "gauge",
                    "value": 2,
                    "labels": {"shard": "0"},
                },
            ]
        },
    }

    print("self-test: clean serving input passes")
    check_serving(copy.deepcopy(good), baseline)

    doctored = copy.deepcopy(good)
    doctored["results"][0]["wire_checksum"] = 998
    expect_serving_failure("wire/direct checksum split", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["results"][0]["wire_checksum"] = 222
    doctored["results"][0]["direct_checksum"] = 222
    doctored["results"][0]["warm_wire_checksum"] = 222
    doctored["results"][0]["docsum_checksum"] = 222
    expect_serving_failure(
        "wire drift from committed baseline", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    doctored["shed"]["shed"] = 0
    doctored["shed"]["ok"] = 100
    expect_serving_failure("overload that never shed", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["shed"]["error"] = 3
    doctored["shed"]["ok"] = 2
    expect_serving_failure("errors under overload", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["shed"]["ok"] = 3  # 3 + 95 != 100
    expect_serving_failure("lost requests under overload", doctored,
                           baseline)

    doctored = copy.deepcopy(good)
    doctored["results"][0]["warm_wire_checksum"] = 997
    expect_serving_failure(
        "cached response diverged from uncached", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    del doctored["results"][0]["warm_wire_checksum"]
    expect_serving_failure("missing warm wire checksum", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["obs"]["metrics"] = [
        m
        for m in doctored["obs"]["metrics"]
        if m["name"] != "i3_requests_shed_total"
    ]
    expect_serving_failure("missing shed metric series", doctored, baseline)

    doctored = copy.deepcopy(good)
    for m in doctored["obs"]["metrics"]:
        if m["name"] == "i3_result_cache_hits_total":
            m["value"] = 0
    expect_serving_failure(
        "result cache never hit on warm passes", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    del doctored["obs_phase"]
    expect_serving_failure("missing obs phase", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["obs_phase"]["traced_responses"] = 19
    expect_serving_failure(
        "traced request without a timeline", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    doctored["obs_phase"]["timeline_consistent"] = 18
    expect_serving_failure(
        "stage outran the end-to-end time", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    doctored["obs_phase"]["slow_recorded"] = 7
    expect_serving_failure(
        "threshold-0 slow log dropped records", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    doctored["obs"]["metrics"] = [
        m
        for m in doctored["obs"]["metrics"]
        if m["name"] != "i3_slo_window_requests"
    ]
    expect_serving_failure("missing SLO window series", doctored, baseline)

    doctored = copy.deepcopy(good)
    for m in doctored["obs"]["metrics"]:
        if m["name"] == "i3_slow_queries_total":
            m["value"] = 0
    expect_serving_failure(
        "slow-query counter never moved", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    del doctored["replica_phase"]
    expect_serving_failure("missing replica phase", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["replica_phase"]["failover_checksum"] = 778
    expect_serving_failure(
        "failover served different bytes", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    doctored["replica_phase"]["recovered_checksum"] = 779
    expect_serving_failure(
        "recovered replica served different bytes", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    doctored["replica_phase"]["failovers"] = 0
    expect_serving_failure(
        "killed primary never failed over", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    doctored["replica_phase"]["scrub_pages_verified"] = 0
    expect_serving_failure("scrubber never ran", doctored, baseline)

    doctored = copy.deepcopy(good)
    doctored["obs"]["metrics"] = [
        m
        for m in doctored["obs"]["metrics"]
        if m["name"] != "i3_failover_total"
    ]
    expect_serving_failure("missing failover metric series", doctored,
                           baseline)

    doctored = copy.deepcopy(good)
    for m in doctored["obs"]["metrics"]:
        if m["name"] == "i3_scrub_pages_total":
            m["value"] = 0
    expect_serving_failure(
        "scrub-pages counter never moved", doctored, baseline
    )

    doctored = copy.deepcopy(good)
    doctored["obs"]["metrics"] = [
        m
        for m in doctored["obs"]["metrics"]
        if m["name"] != "i3_scrub_healed_total"
    ]
    expect_serving_failure("missing scrub-healed series", doctored, baseline)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--candidate", help="smoke-run JSON to gate")
    ap.add_argument(
        "--serving-candidate",
        help="bench_serving --smoke JSON to gate against the same baseline",
    )
    ap.add_argument(
        "--baseline",
        default="BENCH_hotpath.json",
        help="committed baseline JSON (default: BENCH_hotpath.json)",
    )
    ap.add_argument(
        "--max-regress",
        type=float,
        default=0.10,
        help="pages_per_query regression budget (default 0.10 = 10%%)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate rejects doctored inputs, then exit",
    )
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    if not args.candidate and not args.serving_candidate:
        ap.error(
            "--candidate and/or --serving-candidate is required "
            "(or use --self-test)"
        )

    try:
        baseline = load(args.baseline)
        if args.candidate:
            run_gate(load(args.candidate), baseline, args.max_regress)
        if args.serving_candidate:
            check_serving(load(args.serving_candidate), baseline)
    except GateFailure as e:
        print(f"BENCH GATE FAILED: {e}", file=sys.stderr)
        sys.exit(1)
    print("bench gate OK")


if __name__ == "__main__":
    main()
