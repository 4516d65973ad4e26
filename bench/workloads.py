"""The benchmark's workloads: fixed (g, n) point sets and the route-agreement
check run at each point.

A seed only shuffles the order of a workload's points, so every seed does
the same work while no call order can be relied on to warm the program's
caches.  Every call goes through a module attribute looked up at call time,
so the tracer's wrappers (and a test's monkeypatch) see it.
"""

import math
import random
import traceback

from confcoh import closedform, dga


def _sweep(limits):
    """Every (g, n) with 0 <= n <= N for each (g, N) in ``limits``."""
    return [(g, n) for g, top in limits for n in range(top + 1)]


# Sized so that one repetition takes a few seconds on a 2-core x86 box:
# long enough that interpreter start-up is noise, short enough that a run
# of the benchmark holds several fresh-process repetitions.  No point takes
# much more than half a second, so that the calibration slices the child
# times between points (see calib.py) follow the box's speed closely.
POINTS = {
    "verify_frontier": _sweep([(1, 24), (2, 12), (3, 9), (4, 7), (5, 6)]),
    "model_b": [(g, n) for g, low, top in [(1, 16, 22), (2, 8, 11), (3, 6, 8), (4, 4, 6)]
                for n in range(low, top + 1)],
    "closedform_tables": _sweep([(1, 48), (2, 40), (3, 32), (5, 28), (8, 24)]),
}

# Toy sizes for the self-tests: every code path, well under a second each.
TOY_POINTS = {
    "verify_frontier": _sweep([(1, 4), (2, 3), (3, 2)]),
    "model_b": [(1, 4), (2, 3)],
    "closedform_tables": _sweep([(1, 6), (3, 4)]),
}

WORKLOADS = tuple(POINTS)


def points(name, seed, toy=False):
    """The workload's points in the order the seed gives."""
    pts = list((TOY_POINTS if toy else POINTS)[name])
    random.Random(seed).shuffle(pts)
    return pts


def _regraded(dims):
    """Brute-force (deg1, deg2) dims regraded to table keys (k, h)."""
    return {(d1 + d2, d1 + 2 * d2): dim for (d1, d2), dim in dims.items()}


def _euler_coefficient(g, n):
    """[u^n] (1+u)^(2-2g), by the generalised binomial coefficient."""
    e = 2 - 2 * g
    return math.prod(e - i for i in range(n)) // math.factorial(n)


def _check_verify(g, n):
    """`confcoh verify --reps` at one point: dims, then decompositions."""
    table = closedform.mixed_table(g, n)
    dims_ok = _regraded(dga.cohomology_dims(g, n)) == table.dims()
    reps_ok = dga.cohomology_reps(g, n, max_genus=g).entries == table.entries
    return [dims_ok, reps_ok]


def _check_model_b(g, n):
    """The larger model B has the cohomology of model A."""
    return [dga.cohomology_dims(g, n, "B") == dga.cohomology_dims(g, n, "A")]


def _check_closedform(g, n):
    """The closed-form table's Euler characteristic against (1+u)^(2-2g)."""
    table = closedform.mixed_table(g, n)
    euler = sum((-1) ** k * dim for (k, _), dim in table.dims().items())
    return [euler == _euler_coefficient(g, n)]


CHECKS = {
    "verify_frontier": (_check_verify, 2),
    "model_b": (_check_model_b, 1),
    "closedform_tables": (_check_closedform, 1),
}


def run(name, pts):
    """Run the workload's check at every point.

    Returns (attempted, failed, errors).  A mismatch or an exception fails
    the point's checks; the run carries on so that every point is counted.
    """
    check, per_point = CHECKS[name]
    attempted = failed = 0
    errors = []
    for g, n in pts:
        attempted += per_point
        try:
            results = check(g, n)
        except Exception:
            failed += per_point
            errors.append(f"g={g} n={n}: {traceback.format_exc(limit=-1).strip()}")
            continue
        bad = results.count(False)
        if bad:
            failed += bad
            errors.append(f"g={g} n={n}: routes disagree")
    return attempted, failed, errors
