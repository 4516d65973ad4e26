"""A fixed slice of pure-Python work that gauges the box's current speed.

The benchmark runs on a shared virtual machine whose speed drifts by tens
of percent within seconds and by more than half over tens of minutes, with
CPU time drifting alike (no counters of retired instructions are exposed to
the guest).  So the child times this slice between the workload's points and
divides each stretch of program time by the speed the slices around it saw.
The slice does the kind of work the program does (sparse products over
tuple-keyed dicts, fraction-free integer elimination) on fixed inputs, and
never calls the program, so a change to the program cannot move it.

    REFERENCE_S * program_time / slice_time

is the program's time in reference seconds: how long it takes on a box
where one slice takes ``REFERENCE_S``.
"""

import random
from math import gcd
from time import perf_counter, process_time

#: The slice's nominal duration; its median on one vCPU of a 2-vCPU x86 VM
#: (Python 3.11) when the box was quiet.  Any fixed value would do: it only
#: sets the scale of the reference seconds.
REFERENCE_S = 0.02


def _inputs():
    rng = random.Random(20190512)
    poly = {}
    while len(poly) < 60:
        poly[rng.randrange(8), rng.randrange(8), rng.randrange(4)] = rng.randrange(1, 10)
    rows = [{rng.randrange(48): rng.randrange(1, 6) for _ in range(4)} for _ in range(56)]
    return poly, rows


_POLY, _ROWS = _inputs()


def _poly_mul(a, b):
    out = {}
    for (i, j, k), va in a.items():
        for (x, y, z), vb in b.items():
            key = (i + x, j + y, k + z)
            out[key] = out.get(key, 0) + va * vb
    return out


def _rank(rows):
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        pivot = min(rows, key=lambda row: (len(row), min(row)))
        rows.remove(pivot)
        col = min(pivot)
        pv = pivot[col]
        rest = []
        for row in rows:
            x = row.get(col)
            if x is None:
                rest.append(row)
                continue
            new = {}
            for c in row.keys() | pivot.keys():
                v = pv * row.get(c, 0) - x * pivot.get(c, 0)
                if v:
                    new[c] = v
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                rest.append({c: v // g for c, v in new.items()})
        rows = rest
        rank += 1
    return rank


def _work():
    return len(_poly_mul(_poly_mul(_POLY, _POLY), _POLY)), _rank(_ROWS)


EXPECTED = _work()


def measure():
    """Run one slice; return its (wall, cpu) seconds."""
    c0 = process_time()
    t0 = perf_counter()
    result = _work()
    wall = perf_counter() - t0
    cpu = process_time() - c0
    if result != EXPECTED:
        raise AssertionError(f"calibration slice computed {result}, not {EXPECTED}")
    return wall, cpu
