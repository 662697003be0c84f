"""Seeded input generation for the graphio benchmark.

Every workload's inputs are a pure function of (workload, seed, trace):
the same arguments give byte-identical JSON (see ``encode``), different
seeds give different inputs. The driver program receives only what this
module generates.

Run-to-run stability comes from *stratified* draws: each workload has a
fixed mix of cost classes (so medians and tails sit inside a homogeneous
class, not on a boundary between two), and the seed chooses the
instances within a class (Erdos-Renyi seeds, component choices, edge
choices) and their order.
"""

import json
import os
import random

WORKLOADS = ("cold-bound", "stream-patch", "serve-batch")

# ------------------------------------------------------------ cold-bound
#
# One block is 25 requests with this exact class mix. The driver runs
# whole blocks, so every run has the same mix whatever its length:
#   small   9  (~0.04 s each)   below the median
#   medium 12  (~0.1 s)         holds p50
#   large   3  (~0.35 s)        holds p90
#   lanczos 1  (fft:8, 2,304 vertices, above dense_threshold)
# Memory sweeps start at or above each family's max in-degree, so the
# memsim upper bound applies at every M and each spectral row has a row
# to be checked against. "{s}" is replaced by a seeded ER seed.
FAMILY_SWEEP = [4, 8, 16, 32]
WIDE_SWEEP = [8, 16, 32, 64]
ER_SWEEP = [32, 48, 64, 96]

COLD_SMALL = [
    ("fft:6", FAMILY_SWEEP),
    ("bhk:8", WIDE_SWEEP),
    ("matmul:6", WIDE_SWEEP),
    ("strassen:4", WIDE_SWEEP),
    ("cholesky:10", FAMILY_SWEEP),
    ("stencil1d:16:16", FAMILY_SWEEP),
    ("scan:6", FAMILY_SWEEP),
    ("er:400:0.02:{s}", ER_SWEEP),
    ("er:300:0.03:{s}", ER_SWEEP),
]
COLD_MEDIUM = [
    ("bhk:9", [16, 24, 32, 64]),
    ("stencil1d:32:16", FAMILY_SWEEP),
    ("scan:7", FAMILY_SWEEP),
    ("matmul:7", WIDE_SWEEP),
    ("matmul:7", WIDE_SWEEP),
    ("cholesky:12", FAMILY_SWEEP),
    ("cholesky:12", FAMILY_SWEEP),
    ("fft:6", FAMILY_SWEEP),
    ("er:600:0.012:{s}", ER_SWEEP),
    ("er:600:0.012:{s}", ER_SWEEP),
    ("er:600:0.012:{s}", ER_SWEEP),
    ("er:500:0.015:{s}", ER_SWEEP),
]
COLD_LARGE = [
    ("er:800:0.01:{s}", ER_SWEEP),
    ("er:800:0.01:{s}", ER_SWEEP),
    ("er:800:0.01:{s}", ER_SWEEP),
]
COLD_LANCZOS = [("fft:8", FAMILY_SWEEP)]
COLD_BLOCK = COLD_SMALL + COLD_MEDIUM + COLD_LARGE + COLD_LANCZOS
COLD_METHODS = ["spectral", "memsim"]
COLD_MIN_BLOCKS = 4      # >= 100 requests, so p90 has 10 samples beyond it
COLD_MAX_BLOCKS = 24
COLD_TRACE_BLOCKS = 1
# Traced run only: a connected ER DAG just above dense_threshold, on
# which Lanczos does not converge and the dense rescue runs.
COLD_PROBE = ("er:2100:0.01:1", [64, 96, 128, 192])
# restart_s for cold-bound: the small and medium classes of one block,
# re-answered by fresh Engines over one warm artifact store.
COLD_RESTART_CLASSES = COLD_SMALL + COLD_MEDIUM
COLD_SAMPLE_EVERY = 3       # requests between set-up and restart samples

# ---------------------------------------------------------- stream-patch
STREAM_COMPONENTS = 8
STREAM_VERTICES = 300          # per component
STREAM_P = 0.04
STREAM_MEMORIES = [8, 16]
# SpectralOptions.initial_eigenvalues, the smallest h a query solves for:
# the components must be fewer, or every bound is the certified 0.
STREAM_MIN_EIGENVALUES = 16
STREAM_REMOVE_SHARE = 0.25
STREAM_MIN_STEPS = 200
STREAM_MAX_STEPS = 4000
STREAM_TRACE_STEPS = 200
STREAM_BASIS_MB = 64           # the CLI's default stream eigenbasis budget
STREAM_RESTART_EVERY = 20      # steps between restart samples
STREAM_SETUP_EVERY = 120       # steps between set-up samples

# ----------------------------------------------------------- serve-batch
# Pool of 30 graphs in fixed cost classes. The 10 "multi:" entries repeat
# one component (solved once, then a store hit), and 6 of them repeat a
# graph that is also a plain entry, so the artifact store is reused across
# jobs without every job being a hit.
SERVE_POOL_FIXED = [
    "fft:6", "fft:7", "bhk:8", "bhk:9", "matmul:6", "matmul:7",
    "cholesky:10", "cholesky:12", "scan:7", "scan:8", "stencil1d:32:16",
    "stencil1d:24:12", "grid:20:20", "tree:8",
    "multi:2:fft:6", "multi:3:fft:5", "multi:2:bhk:8", "multi:2:matmul:6",
    "multi:2:cholesky:10", "multi:3:scan:6", "multi:2:grid:20:20",
    "multi:2:stencil1d:24:12",
]
SERVE_POOL_ER = [           # 8 seeded ER graphs, two per shape
    "er:600:0.012:{s}", "er:600:0.012:{s}", "er:500:0.015:{s}",
    "er:500:0.015:{s}", "er:400:0.02:{s}", "er:400:0.02:{s}",
    "multi:2:er:300:0.03:{s}", "multi:2:er:300:0.03:{s}",
]
SERVE_METHODS = ["spectral", "spectral-plain", "partition-dp", "memsim"]
SERVE_SWEEPS = [[16, 32], [24, 48], [32, 64]]
SERVE_REPEATS = 2            # 30 graphs x 4 methods x 2 = 240 jobs
# nproc: the CPUs this process may run on.
SERVE_THREADS = len(os.sched_getaffinity(0))
SERVE_MIN_PASSES = 1
SERVE_MAX_PASSES = 24
SERVE_RESTARTS_PER_PASS = 2

# Opening a BatchSession (worker threads, both stores) takes about
# 20-60 us, too short to time once: a set-up sample is the mean of this
# many back-to-back opens.
SERVE_SETUP_OPENS = 50
SERVE_SETUP_SAMPLES_PER_PASS = 10


def _er_seed(rng):
    return rng.randrange(1, 1_000_000)


def _request(spec, memories, rng):
    return {"spec": spec.replace("{s}", str(_er_seed(rng))),
            "memories": list(memories), "methods": list(COLD_METHODS)}


def cold_bound(seed, trace):
    rng = random.Random(f"cold-bound/{seed}")
    blocks = []
    nblocks = COLD_TRACE_BLOCKS if trace else COLD_MAX_BLOCKS
    for _ in range(nblocks):
        block = [_request(spec, sweep, rng) for spec, sweep in COLD_BLOCK]
        rng.shuffle(block)
        blocks.append(block)
    restart = [_request(spec, sweep, rng) for spec, sweep in
               COLD_RESTART_CLASSES]
    return {
        "blocks": blocks,
        "min_blocks": COLD_TRACE_BLOCKS if trace else COLD_MIN_BLOCKS,
        "warmup": {"spec": "fft:5", "memories": FAMILY_SWEEP,
                   "methods": list(COLD_METHODS)},
        "restart": restart,
        "probe": ({"spec": COLD_PROBE[0], "memories": COLD_PROBE[1],
                   "methods": list(COLD_METHODS)} if trace else None),
        "sample_every": COLD_SAMPLE_EVERY,
    }


def _er_component(rng, n, p):
    """Edges (u < v) of one seeded G(n, p) DAG, in ascending order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def stream_patch(seed, trace):
    rng = random.Random(f"stream-patch/{seed}")
    n, c = STREAM_VERTICES, STREAM_COMPONENTS
    edges = []
    present = []
    for k in range(c):
        comp = _er_component(rng, n, STREAM_P)
        present.append(set(comp))
        edges.extend((u + k * n, v + k * n) for u, v in comp)
    steps = []
    nsteps = STREAM_TRACE_STEPS if trace else STREAM_MAX_STEPS
    for _ in range(nsteps):
        k = rng.randrange(c)
        comp = present[k]
        if rng.random() < STREAM_REMOVE_SHARE and comp:
            u, v = rng.choice(sorted(comp))
            comp.discard((u, v))
            op = "remove_edge"
        else:
            while True:
                u, v = sorted(rng.sample(range(n), 2))
                if (u, v) not in comp:
                    break
            comp.add((u, v))
            op = "add_edge"
        steps.append({"op": op, "u": u + k * n, "v": v + k * n})
    return {
        "vertices": n * c,
        "edges": edges,
        "memories": list(STREAM_MEMORIES),
        "steps": steps,
        "min_steps": STREAM_TRACE_STEPS if trace else STREAM_MIN_STEPS,
        "basis_mb": STREAM_BASIS_MB,
        "restart_every": STREAM_RESTART_EVERY,
        "setup_every": STREAM_SETUP_EVERY,
    }


def _job_line(job):
    return json.dumps(job, separators=(",", ":"), sort_keys=True)


def serve_batch(seed, trace):
    rng = random.Random(f"serve-batch/{seed}")
    pool = list(SERVE_POOL_FIXED)
    pool += [spec.replace("{s}", str(_er_seed(rng))) for spec in SERVE_POOL_ER]
    # Every (graph, method) pair appears SERVE_REPEATS times, each time
    # with a different sweep, so every seed does the same work; the seed
    # draws the ER pool seeds and the job orders. A repeat hits the stores
    # for its spectrum but computes its rows at the new sweep.
    jobs = [_job_line({"spec": g, "methods": [m],
                       "memories": SERVE_SWEEPS[(i + r) % len(SERVE_SWEEPS)]})
            for r in range(SERVE_REPEATS)
            for i, (g, m) in enumerate((g, m) for g in pool
                                       for m in SERVE_METHODS)]
    # Each pass runs the corpus in its own order. Which jobs meet on the
    # workers sets a pass's peak memory and wall time, so a run that
    # covers several orders depends less on any one of them.
    orders = []
    for _ in range(1 if trace else SERVE_MAX_PASSES):
        order = list(range(len(jobs)))
        rng.shuffle(order)
        orders.append(order)
    return {
        "jobs": jobs,
        "orders": orders,
        "threads": SERVE_THREADS,
        "min_passes": SERVE_MIN_PASSES,
        "setup_opens": SERVE_SETUP_OPENS,
        "setup_samples_per_pass": SERVE_SETUP_SAMPLES_PER_PASS,
        "restarts_per_pass": SERVE_RESTARTS_PER_PASS,
    }


GENERATORS = {
    "cold-bound": cold_bound,
    "stream-patch": stream_patch,
    "serve-batch": serve_batch,
}


def generate(workload, seed, trace):
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(known: {', '.join(WORKLOADS)})")
    body = GENERATORS[workload](seed, bool(trace))
    return {"workload": workload, "seed": seed, "trace": int(bool(trace)),
            workload.replace("-", "_"): body}


def encode(inputs):
    """Canonical bytes of a generated input document."""
    return json.dumps(inputs, separators=(",", ":"), sort_keys=True).encode()
