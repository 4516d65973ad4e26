"""One repetition of a workload, in the fresh interpreter run.py starts.

    child.py --setup                      import confcoh and report when done
    child.py WORKLOAD SEED TRACE TOY      run one repetition

Prints one JSON line.  ``imported_at`` is taken right after the program is
imported (the package and its command-line layer, as the ``confcoh`` command
loads them) on the system-wide monotonic clock, so the parent can subtract
the moment it started this process and get the set-up time.  Every record
carries the box's speed at the time, as calibration slices saw it (see
calib.py), so that the parent can report times in reference seconds.
"""

import time

import confcoh.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402  (after the set-up mark on purpose)
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEGMENT_S = 0.2  # program time between two calibration slices
SETUP_SLICES = 3  # slices after an import-only run, for its speed


def timed_run(name, pts):
    """Run the workload point by point, with a calibration slice before the
    first point and after every stretch of SEGMENT_S program time.

    Returns the raw (wall, cpu) seconds of the program, the same in reference
    seconds (each stretch scaled by the mean speed of the slices around it),
    and the route checks' (attempted, failed, errors).
    """
    raw = [0.0, 0.0]
    ref = [0.0, 0.0]
    stretch = [0.0, 0.0]
    attempted = failed = 0
    errors = []
    before = calib.measure()
    for i, pt in enumerate(pts):
        c0 = time.process_time()
        t0 = time.perf_counter()
        a, f, e = workloads.run(name, [pt])
        stretch[0] += time.perf_counter() - t0
        stretch[1] += time.process_time() - c0
        attempted += a
        failed += f
        errors += e
        if stretch[0] >= SEGMENT_S or i == len(pts) - 1:
            after = calib.measure()
            for k in (0, 1):
                raw[k] += stretch[k]
                ref[k] += stretch[k] * 2 * calib.REFERENCE_S / (before[k] + after[k])
            stretch = [0.0, 0.0]
            before = after
    return raw, ref, (attempted, failed, errors)


def main(argv):
    out = {"imported_at": IMPORTED_AT, "module": confcoh.__file__}
    if argv == ["--setup"]:
        out["slice_s"] = statistics.median(calib.measure()[0] for _ in range(SETUP_SLICES))
    else:
        name, seed, traced, toy = argv
        pts = workloads.points(name, int(seed), toy == "1")
        tracer = Tracer().install() if traced == "1" else None
        (wall, cpu), (ref_wall, ref_cpu), checks = timed_run(name, pts)
        out.update(raw_wall_s=wall, raw_cpu_s=cpu, wall_s=ref_wall, cpu_s=ref_cpu)
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(zip(("attempted", "failed", "errors"), checks))
        if tracer is not None:
            layers = tracer.report()
            # self times in reference seconds too, at the repetition's mean speed
            scale = ref_wall / wall if wall else 1.0
            out["layers"] = {k: v * scale if k.endswith(".self_s") else v
                             for k, v in layers.items()}
            out["absent"] = tracer.absent
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
