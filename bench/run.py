"""confcoh benchmark: time the proof that the two routes agree.

    python3 bench/run.py --workload verify_frontier --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each repetition runs the workload in a
fresh single-threaded interpreter that imports the checkout's ``src/``, so no
``lru_cache`` state carries over; repetitions run one at a time.  With
``--trace 0`` the run reports the end-to-end metrics (medians over the
repetitions, times in the reference seconds of calib.py); with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics and the tracing overhead.
Every repetition checks the two routes against each other; any failed check
makes the run exit 1.  The last line of stdout is the result as one JSON
object.
"""

import argparse
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))
import calib  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("verify_frontier", "model_b", "closedform_tables")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

SETUP_PROBES = 10  # extra import-only children per run, for a steady setup_s
MIN_REPS = 3  # repetitions of an untraced run, however short --seconds is
HARD_LIMIT_S = 170  # a run must end within 180 s; start no repetition past this


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("CONFCOH_THREADS", None)  # measure the program's default path
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, deadline):
    """Run child.py once; return its record with ``setup_s`` filled in."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except BaseException as exc:
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"repetition {args} overran the {HARD_LIMIT_S} s limit")
        raise
    if proc.returncode != 0:
        raise BenchError(f"repetition {args} exited {proc.returncode}:\n{err[-2000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    module = Path(record.pop("module")).resolve()
    if SRC.resolve() not in module.parents:
        raise BenchError(f"child imported confcoh from {module}, not from {SRC}")
    record["elapsed_s"] = time.monotonic() - started
    record["raw_setup_s"] = record.pop("imported_at") - started
    if "slice_s" in record:
        record["setup_s"] = record["raw_setup_s"] * calib.REFERENCE_S / record.pop("slice_s")
    return record


def measure(workload, seed, seconds, trace, toy):
    """All repetitions of one run: (setup probes, untraced reps, traced reps)."""
    deadline = time.monotonic() + HARD_LIMIT_S
    rng = random.Random(seed)
    spawn(["--setup"], deadline)  # warm-up: writes bytecode, not timed
    probes = [spawn(["--setup"], deadline) for _ in range(SETUP_PROBES)]
    # a traced run alternates untraced and traced repetitions, so that drift
    # in the box's speed cancels out of trace.overhead_frac
    kinds = itertools.cycle((False, True) if trace else (False,))
    at_least = 2 if trace else MIN_REPS
    until = time.monotonic() + seconds
    reps = []
    while True:
        if reps:
            # start one more only if it is expected to end by ``until``, so
            # that runs end on time whatever the box's speed
            typical = statistics.median(r["elapsed_s"] for r in reps)
            if time.monotonic() + 2 * typical > deadline:
                break
            if len(reps) >= at_least and time.monotonic() + typical > until:
                break
        traced = next(kinds)
        rep_seed = rng.randrange(2**32)
        record = spawn([workload, str(rep_seed), str(int(traced)), str(int(toy))], deadline)
        record["traced"] = traced
        reps.append(record)
    return probes, [r for r in reps if not r["traced"]], [r for r in reps if r["traced"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def report(workload, probes, plain, traced, trace):
    """Summary lines and the result object; the exit code is 1 on any failure."""
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    lines = [f"workload {workload}: {len(plain)} untraced and {len(traced)} traced repetitions"]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in probes],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        # the same times before scaling to reference seconds, for the record
        "raw_wall_s": [r["raw_wall_s"] for r in plain],
        "raw_cpu_s": [r["raw_cpu_s"] for r in plain],
        "raw_setup_s": [r["raw_setup_s"] for r in probes],
    }
    metrics = {}
    for name, values in samples.items():
        unit = END_TO_END.get(name, "s")
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        lines.append(f"  {name:<12} {med:.4f} {unit}  median of {len(values)}; q1 {q1:.4f}, q3 {q3:.4f}")
        if not trace and name in END_TO_END:
            metrics[name] = {"value": med, "unit": unit}
    fail_frac = failed / attempted if attempted else 1.0
    lines.append(f"  {'fail_frac':<12} {fail_frac:g} ratio  {failed} of {attempted} route checks failed")
    absent = sorted({a for r in traced for a in r["absent"]})
    if trace:
        for name, unit in LAYER_METRICS.items():
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            if values:
                # median_low: a count stays a whole number
                metrics[name] = {"value": statistics.median_low(values), "unit": unit}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        overhead = traced_wall / statistics.median(samples["wall_s"]) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        for name, m in metrics.items():
            lines.append(f"  {name:<40} {m['value']:.6g} {m['unit']}")
        if absent:
            lines.append(f"  absent (not in this version of confcoh): {', '.join(absent)}")
    for r in reps:
        for err in r["errors"][:5]:
            lines.append(f"  FAILED {err}")
    detail = {
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": git_commit(),
        },
        "samples": samples,
        "fail_frac": fail_frac,
        "absent": absent,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, detail, result, 0 if result["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def main(argv=None):
    args = parse_args(argv)
    # on SIGTERM, unwind through spawn() so the running child is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "confcoh" / "__init__.py").is_file():
        print(f"bench: no confcoh sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        probes, plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    lines, detail, result, code = report(args.workload, probes, plain, traced, bool(args.trace))
    print("\n".join(lines))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
