#!/usr/bin/env python3
"""End-to-end benchmark of the CTMS simulator: host time per simulated second.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_b --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload fabric_campus --trace 1
    python3 perfbench/run.py --compare base.jsonl change.jsonl
    python3 perfbench/run.py --self-test

A run builds perfbench/ (the simulator sources under src/ plus the e2e_bench program) into
.bench_build/, measures one workload in a fresh e2e_bench process, checks every simulated
run, prints each metric by name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json; --trace 1 reports its
per_layer metrics from a separate traced run. The full result also goes to
.bench_build/results/, and the traced run's Chrome trace to .bench_build/traces/.
--compare reads files of such result lines (one workload each) and fails when a metric's
median got worse by more than its bound. README.md explains workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
BINARY = BUILD / "e2e_bench"
DEFAULT_SEED = 1
# Host times of timed runs and set-ups are scaled to a host on which e2e_bench's reference
# loop takes this long (see README.md, "Noise").
REFERENCE_MS = 10.0
WORKLOADS = ("paper_b", "mediamix_overload", "fabric_campus", "purge_recovery")

# Per-layer metrics that must read non-zero: on every workload, and on the named ones.
NONZERO_EVERYWHERE = (
    "sim.events_per_pkt", "sim.host_ns_per_event", "sim.slice_ms.p50",
    "hw.cpu_steps_per_pkt", "hw.cpu_step_share", "hw.interrupts_per_pkt",
    "hw.dma_bytes_per_pkt", "kern.mbuf_allocs_per_pkt", "ring.frames_per_pkt",
    "ring.mac_frame_share", "measure.summary_ms", "telemetry.export_ms",
    "telemetry.metric_count", "base.pkts_delivered", "base.events_executed",
)
NONZERO_ON = {
    "mediamix_overload": ("kern.mbuf_fail_share", "dev.source_drop_share",
                          "dev.underruns_per_pkt", "hw.preemptions_per_pkt"),
    "fabric_campus": ("fabric.sync_rounds", "fabric.events_per_window",
                      "fabric.pool_speedup"),
    "purge_recovery": ("sim.cancel_share", "ring.purge_loss_share",
                       "proto.retransmits_per_pkt", "proto.nacks_per_pkt",
                       "proto.repair_share"),
}


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench", "-j", jobs])
    scratch = OUT / "tmp"  # compiler temporaries stay inside the checkout too
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, env=env, timeout=840).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))


def measure(workload, seed, seconds, trace):
    command = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", "--mode=" + ("traced" if trace else "timed")]
    if trace:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command.append(f"--trace-out={traces / f'{workload}-seed{seed}.json'}")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=seconds + 150)
    if done.returncode != 0:
        raise BenchError(f"e2e_bench exited with {done.returncode}")
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    if not lines or "peak_rss_kb" not in lines[-1]:
        raise BenchError("e2e_bench output ended early")
    return lines


def score(lines):
    """Marks every attempt 'failed' or not and returns the attempts.

    An attempt is one set-up sample or one run. It fails when it threw; a run also fails
    when it delivered more packets than it built, or when its fingerprint of simulated
    statistics differs from the one most runs of this workload and seed share.
    """
    attempts = [line for line in lines if "pass" in line]
    prints = Counter(a["fingerprint"] for a in attempts if "fingerprint" in a)
    reference = prints.most_common(1)[0][0] if prints else None
    for a in attempts:
        a["failed"] = "error" in a or (a["pass"] != "setup" and (
            a["delivered"] > a["built"] or a["fingerprint"] != reference))
    return attempts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def timing(values, unit):
    """Median with quartiles, the sample count and the highest percentile that still has
    at least ten samples above it."""
    q1, q3 = quartiles(values)
    text = f"median of n={len(values)}; q1 {q1:.6g}, q3 {q3:.6g} {unit}"
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        text += f"; p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g} {unit}"
    return statistics.median(values), text


def good(attempts, pass_name):
    return [a for a in attempts if a["pass"] == pass_name and not a["failed"]]


def pairs(attempts, first, second):
    """Adjacent (first, second) runs of one group, both successful."""
    return [(a, b) for a, b in zip((a for a in attempts if a["pass"] == first),
                                   (b for b in attempts if b["pass"] == second))
            if not a["failed"] and not b["failed"]]


def ms_per_sim_s(run):
    return run["run_ns"] / 1e6 / run["sim_s"]


def attach_references(lines):
    """Gives each timed run, and the set-up samples after it, the reference-loop time
    measured right after that run."""
    run, reference = None, None
    for line in lines:
        if "reference_ns" in line:
            reference = line["reference_ns"]
            if run is not None:
                run["reference_ns"] = reference
        elif line.get("pass") == "untraced":
            run = line
        elif line.get("pass") == "setup" and reference is not None:
            line["reference_ns"] = reference


def at_reference(value, line):
    """`value`, measured beside `line`'s reference loop, scaled to the reference host."""
    return value * REFERENCE_MS * 1e6 / line["reference_ns"]


def end_to_end(attempts, lines):
    attach_references(lines)
    runs = [r for r in good(attempts, "untraced") if "reference_ns" in r]
    setups = [s for s in good(attempts, "setup") if "reference_ns" in s]
    if not runs or not setups:
        raise BenchError("no successful run or set-up sample to time")
    failed = sum(a["failed"] for a in attempts)
    setup_attempts = sum(a["pass"] == "setup" for a in attempts)
    reference = runs[0]
    values = {}
    raw = statistics.median(ms_per_sim_s(r) for r in runs)
    loop = statistics.median(r["reference_ns"] / 1e6 for r in runs)
    value, detail = timing([at_reference(ms_per_sim_s(r), r) for r in runs], "ms")
    values["host_ms_per_sim_s"] = (value, f"{detail}; unscaled median {raw:.6g} ms, "
                                   f"reference loop median {loop:.6g} ms")
    value, detail = timing([at_reference(s["setup_ns"] / 1e9, s) for s in setups], "s")
    raw = statistics.median(s["setup_ns"] / 1e9 for s in setups)
    values["setup_s"] = (value, f"{detail}; unscaled median {raw:.6g} s")
    values["peak_rss_mb"] = (lines[-1]["peak_rss_kb"] / 1024,
                             "VmHWM after the first run, in the workload's own process")
    values["success_rate"] = (1 - failed / len(attempts),
                              f"error_rate {failed / len(attempts):.6g}: {failed} of "
                              f"{len(attempts)} attempts failed "
                              f"({len(attempts) - setup_attempts} runs, {setup_attempts} "
                              "set-ups)")
    values["delivered_ratio"] = (reference["delivered"] / reference["built"],
                                 f"delivered {reference['delivered']} / built "
                                 f"{reference['built']}")
    return values


def per_layer(attempts):
    traced = good(attempts, "traced")
    untraced = good(attempts, "untraced")
    if not traced or not untraced:
        raise BenchError("no successful traced and untraced run")
    run = traced[0]
    c = run["counts"]
    pkts = run["delivered"]
    values = {}

    def put(name, num, num_label, den, den_label):
        values[name] = (num / den if den else 0.0, f"{num_label} {num:.6g} / {den_label} {den:.6g}")

    events = c["events"]
    put("sim.events_per_pkt", events, "events", pkts, "pkts")
    put("sim.host_ns_per_event", statistics.median(r["run_ns"] for r in traced),
        "median traced run ns", events, "events")
    put("sim.far_heap_share", c["heap_pops"], "heap pops", c["wheel_pops"] + c["heap_pops"],
        "wheel+heap pops")
    put("sim.cancel_share", c["cancelled"], "cancelled", c["scheduled"], "scheduled")
    slices = [s for r in traced for s in r["slice_ms"]]
    p50 = statistics.median(slices)
    p90 = statistics.quantiles(slices, n=10)[8] if len(slices) >= 2 else p50
    values["sim.slice_ms.p50"] = (p50, f"{len(slices)} slices")
    values["sim.slice_ms.p90"] = (p90, f"{len(slices)} slices")
    put("hw.cpu_steps_per_pkt", c["cpu_steps"], "cpu steps", pkts, "pkts")
    put("hw.cpu_step_share", c["cpu_steps"], "cpu steps", events, "events")
    put("hw.interrupts_per_pkt", c["interrupts"], "interrupts", pkts, "pkts")
    put("hw.preemptions_per_pkt", c["preemptions"], "preemptions", pkts, "pkts")
    put("hw.dma_bytes_per_pkt", c["dma_bytes"], "dma bytes", pkts, "pkts")
    put("kern.mbuf_allocs_per_pkt", c["mbuf_allocs"], "mbuf allocs", pkts, "pkts")
    put("kern.mbuf_fail_share", c["mbuf_failures"], "mbuf failures",
        c["mbuf_allocs"] + c["mbuf_failures"], "mbuf attempts")
    put("kern.ifq_drop_share", c["ifq_drops"], "ifq drops", c["ifq_enqueues"] + c["ifq_drops"],
        "ifq offers")
    put("dev.source_drop_share", c["source_mbuf_drops"] + c["source_queue_drops"],
        "source drops", c["source_irqs"], "source irqs")
    put("dev.underruns_per_pkt", c["underruns"], "sink underruns", pkts, "pkts")
    put("ring.frames_per_pkt", c["frames"], "ring frames", pkts, "pkts")
    put("ring.mac_frame_share", c["mac_frames"], "mac frames", c["frames"], "ring frames")
    put("ring.purge_loss_share", c["purge_lost_frames"], "frames lost to purge", c["frames"],
        "ring frames")
    put("proto.retransmits_per_pkt", c["retransmits"], "ctmsp retransmits", pkts, "pkts")
    put("proto.nacks_per_pkt", c["nacks"], "nacks", pkts, "pkts")
    repairs = c["repaired"] + c["resends"]
    put("proto.repair_share", repairs, "fec repairs+resends", repairs + run["lost"],
        "repairs+residual losses")
    rounds = run["sync_rounds"]
    values["fabric.sync_rounds"] = (rounds, f"{run['shards']} shards")
    put("fabric.events_per_window", events, "events", rounds * run["shards"], "rounds x shards")
    pool = pairs(attempts, "untraced", "pool")
    if pool:
        speedups = [a["run_ns"] / b["run_ns"] for a, b in pool]
        values["fabric.pool_speedup"] = (statistics.median(speedups),
                                         "1-thread / pool run time, " + timing(speedups, "x")[1])
    else:
        values["fabric.pool_speedup"] = (0.0, "no shard pool in this workload")
    values["measure.summary_ms"] = timing([r["summary_ns"] / 1e6 for r in traced], "ms")
    values["telemetry.export_ms"] = timing([r["export_ns"] / 1e6 for r in traced], "ms")
    values["telemetry.metric_count"] = (run["metric_count"], "counters+gauges+summaries")
    overheads = [ms_per_sim_s(b) - ms_per_sim_s(a)
                 for a, b in pairs(attempts, "untraced", "traced")]
    base = statistics.median(ms_per_sim_s(a) for a in untraced)
    overhead = statistics.median(overheads)
    values["trace.overhead_ms_per_sim_s"] = (
        overhead, f"traced - untraced host ms/sim-s over {len(overheads)} adjacent pairs, "
        f"{100 * overhead / base:.3g}% of the untraced median {base:.6g}")
    values["base.pkts_delivered"] = (pkts, f"built {run['built']}")
    values["base.events_executed"] = (events, f"{run['sim_s']:g} simulated s")
    return values


def zero_problems(workload, values):
    """Named per-layer metrics that read zero where the workload must exercise them."""
    must = NONZERO_EVERYWHERE + NONZERO_ON.get(workload, ())
    return [name for name in must if not values[name][0]]


def regressions(spec, base, change):
    """Each end_to_end metric whose median in `change` is worse than in `base` by more than
    its bound (a share of the base median). `base` and `change` are lists of result objects."""
    found = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        before = statistics.median(r["metrics"][name]["value"] for r in base)
        after = statistics.median(r["metrics"][name]["value"] for r in change)
        worse = (after - before) if metric["better"] == "lower" else (before - after)
        if before and worse / before > metric["bound"]:
            found.append(f"{name}: {before:.6g} -> {after:.6g} "
                         f"({100 * worse / before:.1f}% worse, bound {100 * metric['bound']:g}%)")
    return found


def self_test():
    """Proves the failure paths: a perturbed fingerprint, a broken delivered <= built and a
    thrown run each count as failed, and a metric outside its bound fails the comparison."""
    problems = []
    run = {"pass": "untraced", "built": 10, "delivered": 9, "fingerprint": "aa"}
    lines = [dict(run), dict(run), dict(run, fingerprint="ab"), dict(run, delivered=11),
             {"pass": "untraced", "error": "boom"}, {"pass": "setup", "setup_ns": 5}]
    failed = [a["failed"] for a in score(lines)]
    if failed != [False, False, True, True, True, False]:
        problems.append(f"score marked {failed}")
    spec = {"end_to_end": [{"name": "t", "better": "lower", "bound": 0.1},
                           {"name": "r", "better": "higher", "bound": 0.1}]}

    def results(t, r):
        return [{"metrics": {"t": {"value": t}, "r": {"value": r}}}] * 3

    if regressions(spec, results(1.0, 1.0), results(1.05, 0.95)):
        problems.append("a change inside the bounds was flagged")
    found = regressions(spec, results(1.0, 1.0), results(1.2, 0.8))
    if len(found) != 2:
        problems.append(f"changes outside the bounds gave {found}")
    for problem in problems:
        print("self-test FAILED:", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def compare(base_path, change_path):
    spec = load_spec()

    def read(path):
        return [json.loads(line) for line in Path(path).read_text().splitlines()
                if line.startswith("{")]

    base, change = read(base_path), read(change_path)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for label, results in (("base", base), ("change", change)):
            values = [r["metrics"][name]["value"] for r in results]
            q1, q3 = quartiles(values)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:20s} {label:6s} median {median:.6g} {metric['unit']}, "
                  f"spread {100 * spread:.1f}% (bound {100 * metric['bound']:g}%), n={len(values)}")
    found = regressions(spec, base, change)
    for line in found:
        print("REGRESSION", line)
    print("no regression beyond the bounds" if not found else f"{len(found)} regression(s)")
    return 1 if found else 0


def run_benchmark(args):
    spec = load_spec()
    build()
    lines = measure(args.workload, args.seed, args.seconds, args.trace)
    attempts = score(lines)
    failed = sum(a["failed"] for a in attempts)
    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer(attempts) if args.trace else end_to_end(attempts, lines)
    correct = failed == 0
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'timed'}: closed loop, one client, one thread")
    for metric in spec[section]:
        value, detail = values[metric["name"]]
        print(f"  {metric['name']:30s} {value:14.6g} {metric['unit']:7s} {detail}")
    for a in attempts:
        if a["failed"]:
            print("  FAILED", json.dumps({k: a.get(k) for k in (
                "pass", "error", "built", "delivered", "fingerprint")}))
    if args.trace:
        for name in zero_problems(args.workload, values):
            print(f"  SELF-CHECK FAILED: {name} reads zero on {args.workload}")
            correct = False
    result = {"correct": correct, "attempted": len(attempts), "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                          for m in spec[section]}}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, details={k: v[1] for k, v in values.items()}), indent=1))
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.compare:
            return compare(*args.compare)
        if args.workload is None:
            parser.error("--workload is required")
        run_benchmark(args)
        return 0
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
