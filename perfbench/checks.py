"""Correctness checks of the graphio benchmark.

Each checker takes the "checks" object the driver wrote and returns a
list of failure strings, one per failed operation. An empty list means
every checked output was correct.

Rules (see README.md):
  cold-bound    every spectral row <= the memsim row at the same M, and
                the warm-store restart runs 0 eigensolves;
  stream-patch  the streamed bound <= a cold evaluation of the final
                graph at every M (traced runs: after every removal too),
                and the warm-store restart runs 0 eigensolves;
  serve-batch   every restart runs 0 eigensolves and its sorted result
                lines are byte-identical to those of the cold pass whose
                store directories it reopened.

The spectral value is a certified lower bound and memsim an achieved
schedule, so "<=" is exact for cold-bound. Streamed and cold spectra
come from different floating-point operation orders on the same
matrices; they are compared with a relative slack of REL_TOL, far below
the 1e-6 solver tolerance and any real overshoot.
"""

REL_TOL = 1e-9


def _exceeds(lower, upper):
    return lower > upper + REL_TOL * max(1.0, abs(upper))


def check_cold_bound(checks):
    failures = []
    for req in checks["rows"]:
        for memory, spectral, memsim in req["rows"]:
            if spectral is None or memsim is None:
                failures.append(f"{req['spec']} M={memory:g}: missing row "
                                f"(spectral={spectral}, memsim={memsim})")
            elif spectral > memsim:
                failures.append(f"{req['spec']} M={memory:g}: spectral "
                                f"{spectral!r} > memsim {memsim!r}")
    if checks["restart_eigensolves"] != 0:
        failures.append(f"restart ran {checks['restart_eigensolves']} "
                        "eigensolves over a warm store")
    return failures


def bound_gap(streamed, cold):
    """max over M of 1 - streamed/cold (0 where the cold bound is 0)."""
    cold_by_m = dict((m, v) for m, v in cold)
    gaps = [1.0 - v / cold_by_m[m] for m, v in streamed if cold_by_m[m] > 0]
    return max(gaps, default=0.0)


def _compare_stream(streamed, cold, where):
    failures = []
    cold_by_m = dict((m, v) for m, v in cold)
    if sorted(cold_by_m) != sorted(m for m, _ in streamed):
        return [f"{where}: streamed and cold sweeps differ"]
    for m, v in streamed:
        if _exceeds(v, cold_by_m[m]):
            failures.append(f"{where} M={m:g}: streamed {v!r} > cold "
                            f"{cold_by_m[m]!r}")
    return failures


def check_stream_patch(checks):
    final = checks["final"]
    failures = _compare_stream(final["streamed"], final["cold"], "final")
    for r in checks["removals"]:
        failures += _compare_stream(r["streamed"], r["cold"],
                                    f"remove step {r['step']}")
    if checks["restart_eigensolves"] != 0:
        failures.append(f"restart ran {checks['restart_eigensolves']} "
                        "eigensolves over a warm store")
    return failures


def check_serve_batch(checks):
    failures = []
    for k, p in enumerate(checks["passes"]):
        cold = sorted(p["cold_lines"])
        for i, restart in enumerate(p["restarts"]):
            where = f"pass {k} restart {i}"
            if restart["eigensolves"] != 0:
                failures.append(f"{where}: {restart['eigensolves']} "
                                "eigensolves")
            lines = sorted(restart["lines"])
            if len(lines) != len(cold):
                failures.append(f"{where}: {len(lines)} result lines, cold "
                                f"pass had {len(cold)}")
                continue
            for a, b in zip(cold, lines):
                if a != b:
                    failures.append(f"{where}: line differs: {b[:120]}")
    return failures


CHECKERS = {
    "cold-bound": check_cold_bound,
    "stream-patch": check_stream_patch,
    "serve-batch": check_serve_batch,
}
