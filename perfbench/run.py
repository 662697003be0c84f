#!/usr/bin/env python3
"""The graphio benchmark: one seeded command, three workloads.

    python3 perfbench/run.py --workload cold-bound --seed 1 --seconds 30 \\
        --trace 0

Run from the root of a graphio checkout. It builds the load driver
(perfbench/CMakeLists.txt: the library in Release with its default
threading) into .bench_build/, generates the workload's inputs from the
seed (workloads.py), runs the driver, checks every output (checks.py),
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs a traced,
smaller variant of the workload and reports the per-layer metrics, with
the span file left in .bench_build/trace/. The exit code is 0 only when
every check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

BUILD = Path(".bench_build")
DRIVER_TIMEOUT_S = 170

END_TO_END = {
    # name: unit
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "restart_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run: name -> unit. Every traced run
# emits all of them; a layer a workload bypasses reports 0.
PER_LAYER = {
    "graph.build_s": "s",
    "la.dense_s": "s",
    "la.dense_solves": "count",
    "la.lanczos_s": "s",
    "la.lanczos_cycles": "count",
    "la.rescues": "count",
    "la.lobpcg_s": "s",
    "la.lobpcg_iterations": "count",
    "core.refresh_accept_ratio": "ratio",
    "core.warm_fallbacks": "count",
    "core.eigensolves_per_request": "count",
    "core.partition_s": "s",
    "sim.memsim_s": "s",
    "engine.evaluate_s": "s",
    "engine.overhead_s": "s",
    "engine.component_hit_ratio": "ratio",
    "engine.subgraph_extractions": "count",
    "engine.fingerprint_computes": "count",
    "store.spectrum_hit_ratio": "ratio",
    "store.eigenbasis_hit_ratio": "ratio",
    "store.open_s": "s",
    "store.disk_loaded": "count",
    "store.disk_bytes": "bytes",
    "store.result_hit_ratio": "ratio",
    "stream.apply_s": "s",
    "stream.evaluate_s": "s",
    "stream.dirty_components": "count",
    "stream.clean_components": "count",
    "stream.evicted": "count",
    "stream.bound_gap": "ratio",
    "stream.step_p50_s": "s",
    "stream.step_unaccounted_s": "s",
    "serve.run_s": "s",
    "serve.worker_busy_ratio": "ratio",
    "serve.steals": "count",
    "serve.job_p50_s": "s",
    "serve.job_p95_s": "s",
    "serve.retried": "count",
    "serve.failed": "count",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Tail percentile of latency_tail_s, per workload. stream-patch's p98
# sits inside its warm-fallback class (about 5% of steps), not on the
# edge of it.
TAIL = {"cold-bound": 0.90, "stream-patch": 0.98}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def median_of_means(xs, groups=3):
    """Median of the means of `groups` interleaved groups of samples.

    Set-up and restart samples are taken all through a run, and the
    machine runs them in fast and slow phases of seconds. A plain median
    jumps between the two modes as the phase mix of a run shifts; the
    mean of an interleaved group follows the mix smoothly, and the median
    over groups keeps one outlying sample from moving the result.
    """
    if not xs:
        raise ValueError("median_of_means of an empty sample")
    groups = min(groups, len(xs))
    return statistics.median(statistics.fmean(xs[g::groups])
                             for g in range(groups))


def percentile(xs, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(xs)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --------------------------------------------------------------- building

def build_driver():
    """Configures and builds the driver; returns its path."""
    tree = BUILD / "perfbench"
    tree.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    cmd = ["cmake", "-S", str(HERE), "-B", str(tree),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (tree / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    with open(build_log, "w") as out:
        for step in (cmd, ["cmake", "--build", str(tree), "--target",
                           "graphio_perfbench", "-j", str(os.cpu_count())]):
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                out.flush()
                log(build_log.read_text()[-3000:])
                raise SystemExit(f"perfbench: build failed (see {build_log})")
    return tree / "graphio_perfbench"


# ---------------------------------------------------------------- metrics

def end_to_end(workload, raw):
    ops = raw["ops"]
    if workload == "serve-batch":
        jobs = raw["counters"]["serve.jobs"] * raw["counters"]["serve.passes"]
        throughput = jobs / raw["measured"]
        p50 = statistics.median(ops)
        tail = statistics.median(raw["tail"])
    else:
        throughput = len(ops) / raw["measured"]
        p50 = percentile(ops, 0.50)
        tail = percentile(ops, TAIL[workload])
    return {
        "throughput_per_s": throughput,
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "restart_s": median_of_means(raw["restart"]),
        "setup_s": median_of_means(raw["setup"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def with_self_times(records):
    """Adds "dur" and "self" (dur minus direct children) to span records."""
    spans = {}
    for s in records:
        s = dict(s, dur=s["end"] - s["start"])
        s["self"] = s["dur"]
        spans[s["id"]] = s
    for s in spans.values():
        if s["parent"]:
            spans[s["parent"]]["self"] -= s["dur"]
    return list(spans.values())


def load_spans(path):
    with open(path) as f:
        return with_self_times(json.loads(line) for line in f)


def span_table(spans):
    """name -> {count, total, self, durations}."""
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"count": 0, "total": 0.0,
                                           "self": 0.0, "durations": []})
        row["count"] += 1
        row["total"] += s["dur"]
        row["self"] += s["self"]
        row["durations"].append(s["dur"])
    return table


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, raw, spans):
    c = raw["counters"]
    t = span_table(spans)

    def self_s(name):
        return t[name]["self"] if name in t else 0.0

    def total_s(name):
        return t[name]["total"] if name in t else 0.0

    def median_s(name):
        return statistics.median(t[name]["durations"]) if name in t else 0.0

    if workload == "serve-batch":
        ops = c["serve.jobs"] * c["serve.passes"]
    else:
        ops = raw["attempted"]
    m = {name: 0.0 for name in PER_LAYER}
    for name in ("graph.build", "la.dense", "la.lanczos", "la.lobpcg", "core.partition",
                 "sim.memsim"):
        m[name + "_s"] = self_s(name) / ops
    if workload == "serve-batch":
        # Worker-side layer time comes from the library's own spans.
        m["la.dense_s"] = c.get("lib.solve_self_s", 0.0) / ops
        m["core.partition_s"] = c.get("lib.partition_dp_self_s", 0.0) / ops
        m["sim.memsim_s"] = c.get("lib.memsim_self_s", 0.0) / ops
    for name in ("la.dense_solves", "la.lanczos_cycles", "la.rescues",
                 "la.lobpcg_iterations", "core.warm_fallbacks",
                 "engine.subgraph_extractions",
                 "engine.fingerprint_computes", "stream.dirty_components",
                 "stream.clean_components", "stream.evicted",
                 "store.disk_loaded", "store.disk_bytes", "serve.steals",
                 "serve.retried", "serve.failed", "serve.job_p50_s",
                 "serve.job_p95_s", "trace.span_cost_s"):
        m[name] = c.get(name, 0.0)
    m["core.refresh_accept_ratio"] = _ratio(c.get("core.refresh_accepted", 0),
                                            c.get("core.warm_seeded", 0))
    m["core.eigensolves_per_request"] = _ratio(c.get("engine.eigensolves", 0),
                                               ops)
    m["engine.evaluate_s"] = total_s("engine.evaluate") / ops
    m["engine.overhead_s"] = self_s("engine.evaluate") / ops
    m["engine.component_hit_ratio"] = _ratio(
        c.get("engine.component_hits", 0),
        c.get("engine.component_hits", 0) + c.get("engine.eigensolves", 0))
    m["store.spectrum_hit_ratio"] = _ratio(
        c.get("store.spectrum_hits", 0),
        c.get("store.spectrum_hits", 0) + c.get("store.spectrum_misses", 0))
    m["store.eigenbasis_hit_ratio"] = _ratio(
        c.get("store.eigenbasis_hits", 0),
        c.get("store.eigenbasis_hits", 0) + c.get("store.eigenbasis_misses",
                                                  0))
    m["store.result_hit_ratio"] = _ratio(
        c.get("store.result_hits", 0),
        c.get("store.result_hits", 0) + c.get("store.result_misses", 0))
    m["store.open_s"] = median_s("store.open")
    m["stream.apply_s"] = median_s("stream.apply")
    m["stream.evaluate_s"] = median_s("stream.evaluate")
    if workload == "stream-patch":
        final = raw["checks"]["final"]
        m["stream.bound_gap"] = checks.bound_gap(final["streamed"],
                                                 final["cold"])
        steps = {s["id"]: s for s in spans if s["name"] == "step"}
        unaccounted = {i: s["dur"] for i, s in steps.items()}
        for s in spans:
            if s["parent"] in unaccounted and s["name"] in (
                    "stream.apply", "stream.evaluate"):
                unaccounted[s["parent"]] -= s["dur"]
        m["stream.step_p50_s"] = median_s("step")
        m["stream.step_unaccounted_s"] = statistics.median(
            unaccounted.values())
    m["serve.run_s"] = median_s("serve.run")
    if workload == "serve-batch":
        m["serve.worker_busy_ratio"] = _ratio(
            c["serve.busy_s"], c["serve.threads"] * total_s("serve.run"))
    m["trace.spans"] = float(raw["spans"])
    m["trace.overhead_s"] = raw["spans"] * c["trace.span_cost_s"] / ops
    m["trace.overhead_ratio"] = _ratio(raw["spans"] * c["trace.span_cost_s"],
                                       raw["measured"])
    return m, t


# ------------------------------------------------------------------- main

def read_serve_lines(serve_checks):
    """Replaces the result-line file names the driver wrote with lines."""
    def lines(path):
        return [line for line in Path(path).read_text().splitlines() if line]
    for p in serve_checks["passes"]:
        p["cold_lines"] = lines(p["cold_lines"])
        for r in p["restarts"]:
            r["lines"] = lines(r["lines"])


def run(workload, seed, seconds, trace):
    driver = build_driver()
    tag = f"{workload}-s{seed}-t{int(trace)}"
    work = BUILD / "runs" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs.json"
    inputs.write_bytes(workloads.encode(
        workloads.generate(workload, seed, trace)))
    out = work / "out.json"
    try:
        proc = subprocess.run([str(driver), str(inputs), str(out),
                               str(work / "state"), str(seconds)],
                              stdin=subprocess.DEVNULL,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: driver exited {proc.returncode}")
    raw = json.loads(out.read_text())
    if workload == "serve-batch":
        read_serve_lines(raw["checks"])

    failures = checks.CHECKERS[workload](raw["checks"])
    failures += [f"operation threw: {e}" for e in raw["errors"]]
    failed_jobs = int(raw["counters"].get("serve.failed_jobs", 0))
    failures += [f"serve job failed ({failed_jobs} total)"] * failed_jobs
    for f in failures[:20]:
        log("CHECK FAILED:", f)

    if trace:
        spans_file = BUILD / "trace" / f"{tag}.spans.jsonl"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(work / "state" / "spans.jsonl", spans_file)
        values, table = per_layer(workload, raw, load_spans(spans_file))
        units = PER_LAYER
        print(f"# span self times ({spans_file}):")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self"]):
            print(f"#   {name:24s} n={row['count']:6d} "
                  f"total={row['total']:.6f}s self={row['self']:.6f}s")
    else:
        values = end_to_end(workload, raw)
        units = END_TO_END
    if workload == "stream-patch":
        c = raw["counters"]
        final = raw["checks"]["final"]
        gap = checks.bound_gap(final["streamed"], final["cold"])
        print(f"# bound_gap={gap} steps={int(c['stream.steps'])}"
              f" final={json.dumps(final)}")
        if trace:
            print(f"# remove_edge steps={int(c.get('stream.remove_steps', 0))}"
                  f" refresh-tier solves in them="
                  f"{int(c.get('stream.remove_refreshes', 0))}")
    print(f"# samples: ops={len(raw['ops'])} restart={len(raw['restart'])}"
          f" setup={len(raw['setup'])} measured={raw['measured']:.3f}s")
    shutil.rmtree(work / "state", ignore_errors=True)
    return {
        "correct": not failures,
        "attempted": int(raw["attempted"]),
        "failed": min(len(failures), int(raw["attempted"])),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
