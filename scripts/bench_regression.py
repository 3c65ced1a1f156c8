#!/usr/bin/env python3
"""Bench trajectory regression gate.

Compares a freshly produced BENCH_*.json against the committed copy and exits nonzero
when any metric has degraded beyond its tolerance. The committed files are the perf
trajectory of the repo: they are produced by the same `scripts/check.sh` smoke runs that
this gate re-runs, so fresh-vs-committed is an apples-to-apples comparison on whatever
machine is running the gate.

Usage:
    bench_regression.py BASELINE FRESH    # one bench file pair; exit 1 on regression
    bench_regression.py --self-test       # prove the gate fails on an injected regression

File format: one JSON object per line, {"bench": ..., "metric": ..., "value": ...}.

Policy: every metric is classified by name into a direction (higher-better,
lower-better, exact, or informational) with a tolerance wide enough for shared-runner
noise — the gate exists to catch trajectory-scale regressions (a lost optimization, an
accidentally quadratic path), not single-digit-percent jitter, which the paired
measurement inside each bench already handles. Only degradation fails; improvements
always pass (commit the fresh file to ratchet the trajectory).

An absolute timing whose bench also emits a paired in-process ratio over the same path
(PAIRED below) is printed but not gated: a busy shared host moves every absolute number
of a run at once, by more than any band, while the ratio of two timings taken moments
apart in one process holds. The ratio carries the gate for that path. micro_fabric's
thread-pool rows (HOST_BOUND below) are printed but not gated for a related reason: they
measure how many cores other tenants of the host leave free, not the code.
"""

import json
import sys

# (predicate on metric name) -> (direction, relative tolerance, absolute slack).
# First match wins. Directions:
#   "higher" — fresh may not fall below baseline*(1-tol) - slack   (throughput, speedups)
#   "lower"  — fresh may not rise above baseline*(1+tol) + slack   (latencies, overheads)
#   "exact"  — any change fails (configuration echoed into the file; changing it is a
#              deliberate act that must come with a baseline update)
#   "info"   — never fails (counters that legitimately change with workload shape)
POLICY = [
    (lambda m: m.endswith("_budget_pct"), ("exact", 0.0, 0.0)),
    # Workload-shape counters scale with the run length, and the committed seed is a
    # full-mode run while check.sh compares smoke-mode output against it.
    (lambda m: m == "sync_rounds", ("info", 0.0, 0.0)),
    # Wall-clock overhead percentages sit near zero and can be negative; relative
    # tolerance is meaningless there, so allow an absolute +10-point excursion.
    (lambda m: m.endswith("overhead_pct"), ("lower", 0.0, 10.0)),
    (lambda m: "speedup" in m, ("higher", 0.40, 0.0)),
    (lambda m: m.endswith("_per_sec"), ("higher", 0.40, 0.0)),
    # Time-per-op metrics: generous relative band plus a small absolute slack so
    # single-digit-ns floors (e.g. bare_ns_per_packet) aren't judged relatively.
    (lambda m: "ns_per" in m, ("lower", 0.60, 5.0)),
    (lambda m: m.endswith("_ms"), ("lower", 0.60, 0.5)),
]


# Absolute row -> the ratio the same bench emits over the same path. Only rows with such a
# ratio belong here; an absolute row without one stays gated. experiment_{off,on}_ms stay
# gated: overhead_pct is on/off - 1, which holds when the whole experiment slows down.
PAIRED = {
    # micro_event_queue: each case's wheel throughput and its speedup over the heap.
    "periodic_events_per_sec": "periodic_speedup",
    "completion_events_per_sec": "completion_speedup",
    "rto_rearm_events_per_sec": "rto_rearm_speedup",
    # micro_packet_path: legacy and arena packet paths, and the arena's speedup.
    "legacy_ns_per_packet": "arena_speedup_x",
    "arena_ns_per_packet": "arena_speedup_x",
    "legacy_packets_per_sec": "arena_speedup_x",
    "arena_packets_per_sec": "arena_speedup_x",
    # micro_report: each stage's time and its speedup over the std::map reference.
    "decode_ns_per_event": "decode_speedup",
    "histograms_ns_per_event": "histograms_speedup",
    "report_ns_per_event": "report_speedup",
}


# micro_fabric's thread-pool pass: the fabric at 2, 4 and 8 worker threads, and against one.
# On a shared host these read how many cores other tenants leave free (check.sh read
# jobs2_speedup 0.13 against a 0.139 floor on code they do not cover), so they are printed,
# not gated. Fabric --jobs is to be deleted (ROADMAP.md), and these rows with it.
HOST_BOUND = {f"jobs{n}_{kind}" for n in (2, 4, 8) for kind in ("speedup", "sim_ms_per_sec")}


def classify(metric):
    if metric in PAIRED or metric in HOST_BOUND:
        return ("info", 0.0, 0.0)
    for predicate, policy in POLICY:
        if predicate(metric):
            return policy
    return ("info", 0.0, 0.0)


def load(path):
    metrics = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            metrics[row["metric"]] = float(row["value"])
    return metrics


def compare(baseline, fresh, label="", notes=None):
    """Returns a list of failure strings (empty = gate passes). Appends one line per
    paired absolute row and per host-bound row to `notes`, when given."""
    failures = []
    for metric, base in sorted(baseline.items()):
        direction, tol, slack = classify(metric)
        if metric not in fresh:
            failures.append(f"{label}{metric}: missing from fresh results "
                            f"(baseline {base:g})")
            continue
        new = fresh[metric]
        if metric in PAIRED and notes is not None:
            notes.append(f"{label}{metric}: {base:g} -> {new:g} "
                         f"(not gated; {PAIRED[metric]} is)")
        if metric in HOST_BOUND and notes is not None:
            notes.append(f"{label}{metric}: {base:g} -> {new:g} "
                         f"(not gated; measures the host's free cores)")
        if direction == "info":
            continue
        if direction == "exact":
            if new != base:
                failures.append(f"{label}{metric}: changed {base:g} -> {new:g} "
                                f"(exact-match metric; update the baseline deliberately)")
        elif direction == "higher":
            floor = base * (1.0 - tol) - slack
            if new < floor:
                failures.append(f"{label}{metric}: {base:g} -> {new:g} "
                                f"(below floor {floor:g}; -{tol:.0%} tolerance)")
        elif direction == "lower":
            # A lower-is-better baseline can land below zero (overhead percentages are
            # noise around 0); clamp so the ceiling stays a meaningful bound.
            ceiling = max(base, 0.0) * (1.0 + tol) + slack
            if new > ceiling:
                failures.append(f"{label}{metric}: {base:g} -> {new:g} "
                                f"(above ceiling {ceiling:g}; +{tol:.0%} tolerance)")
        # bare_ns_per_packet's degenerate-timing failure mode (satellite of the same
        # bench): a zero floor means the loop was optimized away, which "improves" the
        # metric — catch it here where direction alone would pass it.
        if metric == "bare_ns_per_packet" and new <= 0.0:
            failures.append(f"{label}{metric}: {new:g} is not positive "
                            f"(bare loop optimized away; timing is degenerate)")
    return failures


def self_test():
    base = {
        "arena_speedup_x": 2.0,
        "arena_packets_per_sec": 15000000.0,
        "legacy_ns_per_packet": 145.0,
        "periodic_events_per_sec": 17000000.0,
        "periodic_speedup": 2.3,
        "shards1_sim_ms_per_sec": 1300000.0,
        "enabled_ns_per_journey": 130.0,
        "bare_ns_per_packet": 2.1,
        "overhead_pct": 0.2,
        "overhead_budget_pct": 15.0,
        "sync_rounds": 4000.0,
        "experiment_off_ms": 5.65,
        "experiment_on_ms": 6.02,
        "jobs1_speedup": 1.0,
        "jobs2_speedup": 0.232,
        "jobs4_sim_ms_per_sec": 17267.8,
    }
    cases = [
        ("identical passes", dict(base), 0),
        ("improvement passes", {**base, "arena_packets_per_sec": 30000000.0,
                                "legacy_ns_per_packet": 100.0}, 0),
        ("in-band noise passes", {**base, "arena_speedup_x": 1.7,
                                  "legacy_ns_per_packet": 180.0,
                                  "overhead_pct": 6.0}, 0),
        ("throughput collapse fails", {**base, "shards1_sim_ms_per_sec": 500000.0}, 1),
        ("speedup collapse fails", {**base, "arena_speedup_x": 1.0}, 1),
        ("ratio collapse under a steady absolute row fails",
         {**base, "periodic_speedup": 1.2}, 1),
        ("latency blowup fails", {**base, "enabled_ns_per_journey": 400.0}, 1),
        ("host slowdown of paired absolute rows passes",
         {**base, "arena_packets_per_sec": 7000000.0, "legacy_ns_per_packet": 400.0,
          "periodic_events_per_sec": 5000000.0}, 0),
        ("overhead blowup fails", {**base, "overhead_pct": 14.0}, 1),
        ("experiment slowdown under a steady overhead fails",
         {**base, "experiment_off_ms": 11.3, "experiment_on_ms": 12.04}, 1),
        ("zero bare floor fails", {**base, "bare_ns_per_packet": 0.0}, 1),
        ("budget change fails", {**base, "overhead_budget_pct": 25.0}, 1),
        ("workload-shape counter passes", {**base, "sync_rounds": 400.0}, 0),
        ("thread-pool rows on a busy host pass",
         {**base, "jobs2_speedup": 0.05, "jobs4_sim_ms_per_sec": 2000.0}, 0),
        ("jobs1 speedup still exact-ratio gated", {**base, "jobs1_speedup": 0.5}, 1),
    ]
    cases += [
        ("missing metric fails", {k: v for k, v in base.items()
                                  if k != "arena_speedup_x"}, None),
    ]
    # Negative-baseline cases (a seed can record a noise-negative overhead): the ceiling
    # must clamp to the zero line, not chase the baseline below it.
    neg_base = {"overhead_pct": -12.0}
    neg_cases = [
        ("negative-overhead baseline tolerates in-budget fresh", neg_base,
         {"overhead_pct": 5.0}, 0),
        ("negative-overhead baseline still fails blowup", neg_base,
         {"overhead_pct": 14.0}, 1),
    ]
    ok = True
    for name, baseline, fresh, want_fail in (
            [(n, base, f, w) for n, f, w in cases] + neg_cases):
        failures = compare(baseline, fresh)
        # want_fail None marks the missing-metric case, which must also fail.
        expected = True if want_fail is None else want_fail == 1
        got = bool(failures)
        status = "ok" if got == expected else "SELF-TEST FAILURE"
        print(f"  [{status}] {name}: {len(failures)} finding(s)")
        for f in failures:
            print(f"        {f}")
        if got != expected:
            ok = False
    if not ok:
        print("self-test: the gate does not behave as documented", file=sys.stderr)
        return 1
    print("self-test: all injected regressions caught, all passes clean")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, fresh_path = argv[1], argv[2]
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    notes = []
    failures = compare(baseline, fresh, notes=notes)
    for note in notes:
        print(f"  {note}")
    if failures:
        print(f"bench regression: {fresh_path} degrades the committed trajectory "
              f"{baseline_path}:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"bench trajectory ok: {fresh_path} within tolerance of {baseline_path} "
          f"({len(baseline)} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
