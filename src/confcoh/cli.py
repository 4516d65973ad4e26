"""Command-line surface: batch computation, verification, and export.

Exit codes: 0 success, 1 verification mismatch, 2 usage error.  Progress
notes go to stderr; the data stream (stdout or --out) stays clean.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import closedform, dga
from .reps import ZERO, VirtualRep, dim_irrep, rep_label


def _progress(msg):
    print(msg, file=sys.stderr)


def _write(args, payload, csv, text):
    """Write the result in the requested --format to --out or stdout,
    newline-ended.  ``payload`` (the JSON value), ``csv`` (its lines) and
    ``text`` are functions of no arguments, and only the requested one is
    called; a command without --format writes text."""
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        out = json.dumps(payload(), sort_keys=True)
    elif fmt == "csv":
        out = "\n".join(csv())
    else:
        out = text()
    if args.out:
        with open(args.out, "w") as f:
            print(out, file=f)
    else:
        print(out)


def _write_sequence(args, payload, header, values):
    """Write a sequence indexed from 0: space-separated as text, one
    ``index,value`` row per entry as CSV."""
    _write(
        args,
        lambda: payload,
        lambda: [header] + [f"{i},{x}" for i, x in enumerate(values)],
        lambda: " ".join(map(str, values)),
    )


def _write_table(args, n, cells, payload):
    """Write a table of (k, h) -> (dim, decomposition) cells; the text
    shows the decompositions under --reps, the CSV never."""
    rows = sorted(cells.items())

    def text():
        lines = ["k h dim decomposition" if args.reps else "k h dim"]
        for (k, h), (d, rep) in rows:
            lines.append(f"{k} {h} {d} {rep.text()}" if args.reps else f"{k} {h} {d}")
        return "\n".join(lines)

    csv = lambda: ["n,k,h,dim"] + [f"{n},{k},{h},{d}" for (k, h), (d, _) in rows]
    _write(args, payload, csv, text)


def _write_mixed(args, table, **extra):
    """Write a MixedTable; ``extra`` keys join its JSON."""
    cells = {kh: (dim, table.entries[kh]) for kh, dim in table.dims().items()}
    _write_table(args, table.n, cells, lambda: {**table.to_json(), **extra})


def _regrade(dims):
    """Brute-force (deg1, deg2) -> dim as (k, h) = (deg1 + deg2, deg1 + 2*deg2)."""
    return {(d1 + d2, d1 + 2 * d2): dim for (d1, d2), dim in dims.items()}


_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _power(var, e):
    if e == 0:
        return ""
    return var if e == 1 else var + str(e).translate(_SUPERSCRIPT)


def _term_text(rep, t, s, u=0):
    """One term of a q-series, like ``2t·u`` or ``[V(1,1)]·t²s·u³``: a
    scalar coefficient written as a number, any other in brackets.  Every
    coefficient of the master series is a genuine representation, so none
    is negative, and only its u^0 term, which is 1, has no monomial."""
    ts, up = _power("t", t) + _power("s", s), _power("u", u)
    mono = f"{ts}·{up}" if ts and up else ts or up
    if not rep.is_scalar():
        return f"[{rep.text()}]·{mono}"
    c = rep.scalar_value()
    if not mono:
        return str(c)
    return mono if c == 1 else f"{c}{mono}"


def _series_text(terms):
    """The (key, rep) terms, sorted by (u, t, s), as one sum."""
    return " + ".join(_term_text(rep, t, s, u) for (t, s, u), rep in terms)


def _grouped_u_text(terms):
    """Scalar (key, rep) terms, sorted by (u, t, s), with the u-slices
    grouped, e.g. ``1 + (1 + 2t + t²)u``."""
    groups = {}
    for (t, s, u), rep in terms:
        groups.setdefault(u, []).append(_term_text(rep, t, s))
    parts = []
    for u, group in groups.items():
        inner, up = " + ".join(group), _power("u", u)
        if not up:
            parts.append(inner)
        elif len(group) > 1:
            parts.append(f"({inner}){up}")
        else:
            parts.append(up if inner == "1" else f"{inner}{up}")
    return " + ".join(parts)


def cmd_q_series(args, parser):
    if args.genus < 1:
        parser.error("q-series needs genus >= 1; use `betti --genus 0` instead")
    g = args.genus
    q = closedform.build_Q(g, args.max_n).items()
    terms = sorted(q, key=lambda item: (item[0][2], item[0][:2]))  # by (u, t, s)
    if args.dims:
        terms = [(key, VirtualRep.unit(rep.dim(g))) for key, rep in terms]
    payload = lambda: [
        {"t": t, "s": s, "u": u, "rep": rep.to_json()} for (t, s, u), rep in terms
    ]
    csv = lambda: ["t,s,u,dim"] + [
        f"{t},{s},{u},{rep.dim(g)}" for (t, s, u), rep in terms
    ]
    text = _grouped_u_text if args.dims else _series_text
    _write(args, payload, csv, lambda: text(terms))
    return 0


def cmd_table(args, parser):
    if args.genus < 1:
        parser.error("table needs genus >= 1; use `betti --genus 0` instead")
    _write_mixed(args, closedform.mixed_table(args.genus, args.n))
    return 0


def cmd_betti(args, parser):
    b = closedform.betti(args.genus, args.n)
    payload = {"genus": args.genus, "n": args.n, "betti": list(b)}
    _write_sequence(args, payload, "k,dim", b)
    return 0


def cmd_dim(args, parser):
    if args.genus < 1:
        parser.error("dim needs genus >= 1")
    label = rep_label(args.genus, args.i, args.j)
    if label == ZERO:
        parser.error(f"label ({args.i}, {args.j}) is not dominant for genus {args.genus}")
    d = dim_irrep(args.genus, label)
    payload = {"genus": args.genus, "i": args.i, "j": args.j, "dim": d}
    csv = lambda: ["genus,i,j,dim", f"{args.genus},{args.i},{args.j},{d}"]
    _write(args, lambda: payload, csv, lambda: str(d))
    return 0


def cmd_euler(args, parser):
    chi = closedform.euler_series(args.genus, args.max_n)
    _write_sequence(args, {"genus": args.genus, "euler": chi}, "n,chi", chi)
    return 0


def _check_oracle_budget(args, parser, n):
    budget = dga.ORACLE_BUDGET.get(args.genus)
    if budget is None:
        parser.error(
            f"brute-force route budgeted to genus <= {max(dga.ORACLE_BUDGET)}"
        )
    if n > budget:
        parser.error(
            f"brute-force route budgeted to n <= {budget} at genus {args.genus}"
        )


def cmd_oracle(args, parser):
    _check_oracle_budget(args, parser, args.n)
    if args.genus == 0 and args.n == 1:
        parser.error("genus 0 with one point: use `betti --genus 0 --n 1`")
    if args.reps and args.genus == 0:
        parser.error("--reps needs genus >= 1; use `oracle --genus 0` for dimensions")
    if args.reps and args.model != "A":
        parser.error("--reps requires model A")
    if args.debug_dir:
        written = dga.dump_blocks(args.genus, args.n, args.model, args.debug_dir)
        _progress(f"wrote {len(written)} ranked group matrices to {args.debug_dir}")
    _progress(f"computing model {args.model} cohomology: genus {args.genus} n={args.n}")
    if args.reps:
        _write_mixed(args, dga.cohomology_reps(args.genus, args.n), model="A")
        return 0
    dims = _regrade(dga.cohomology_dims(args.genus, args.n, args.model))
    rows = [{"degree": k, "weight": h, "dim": d} for (k, h), d in sorted(dims.items())]
    payload = {"genus": args.genus, "n": args.n, "model": args.model, "table": rows}
    cells = {kh: (d, None) for kh, d in dims.items()}
    _write_table(args, args.n, cells, lambda: payload)
    return 0


def _mismatches(n, want, got, cell, show):
    """One line per cell where the closed form ``want`` and the brute
    force ``got`` differ; ``show`` renders a cell's value, and is given
    None for an absent (zero) cell."""
    return [
        f"mismatch n={n} {cell(key)}: closed form {show(want.get(key))} "
        f"!= brute force {show(got.get(key))}"
        for key in sorted(want.keys() | got.keys())
        if want.get(key) != got.get(key)
    ]


def _verify_point(g, n, reps):
    """Mismatch lines for n points: dims, then, with ``reps`` and once the
    dims agree, decompositions; genus 0 compares Betti numbers only."""
    got = _regrade(dga.cohomology_dims(g, n, "A"))
    count = lambda d: d or 0
    if g == 0:
        betti = {}
        for (k, _), dim in got.items():
            betti[k] = betti.get(k, 0) + dim
        want = {k: d for k, d in enumerate(closedform.genus0_betti(n)) if d}
        return _mismatches(n, want, betti, lambda k: f"k={k}", count)
    table = closedform.mixed_table(g, n)
    cell = lambda kh: f"k={kh[0]} h={kh[1]}"
    lines = _mismatches(n, table.dims(), got, cell, count)
    if reps and not lines:
        oracle = dga.cohomology_reps(g, n).entries
        show = lambda rep: rep.text() if rep else "0"
        lines = _mismatches(n, table.entries, oracle, cell, show)
    return lines


def cmd_verify(args, parser):
    _check_oracle_budget(args, parser, args.max_n)
    lines = []
    for n in range(args.max_n + 1):
        if args.genus == 0 and n == 1:
            continue  # outside the model's range; closed form covers it
        _progress(f"verify: genus {args.genus} n={n}")
        lines += _verify_point(args.genus, n, args.reps)
    ok = not lines
    if ok:
        what = "dims and representations" if args.reps else "dims"
        lines.append(
            f"verify: genus {args.genus} n <= {args.max_n}: all tables agree ({what})"
        )
    _write(args, None, None, lambda: "\n".join(lines))
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confcoh",
        description=(
            "Exact weight-graded cohomology of unordered configuration "
            "spaces of closed orientable surfaces, by closed-form series "
            "and by a brute-force differential-algebra route."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_flag=None, fmt=True):
        p.add_argument("--genus", type=int, required=True, help="genus g >= 0")
        if n_flag == "n":
            p.add_argument("--n", type=int, required=True, help="number of points")
        elif n_flag == "max-n":
            p.add_argument(
                "--max-n", dest="max_n", type=int, required=True,
                help="largest number of points",
            )
        if fmt:
            p.add_argument(
                "--format", choices=("text", "json", "csv"), default="text"
            )
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("q-series", help="print the master series")
    common(p, "max-n")
    p.add_argument("--dims", action="store_true", help="coefficient dimensions only")
    p.set_defaults(fn=cmd_q_series)

    p = sub.add_parser("table", help="mixed table for fixed genus and n")
    common(p, "n")
    p.add_argument("--reps", action="store_true", help="include decompositions")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("betti", help="Betti numbers for fixed genus and n")
    common(p, "n")
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("dim", help="dimension of one irreducible")
    common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("euler", help="Euler characteristics through max n")
    common(p, "max-n")
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("oracle", help="brute-force cohomology table")
    common(p, "n")
    p.add_argument("--model", choices=("A", "B"), default="A")
    p.add_argument("--reps", action="store_true", help="include decompositions")
    p.add_argument("--debug-dir", default=None, help="write the ranked matrices here")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="closed form against brute force")
    common(p, "max-n", fmt=False)
    p.add_argument("--reps", action="store_true", help="compare decompositions too")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for attr in ("genus", "n", "max_n", "i"):
        if getattr(args, attr, 0) is not None and getattr(args, attr, 0) < 0:
            parser.error(f"--{attr.replace('_', '-')} must be >= 0")
    return args.fn(args, parser)


if __name__ == "__main__":
    sys.exit(main())
