"""Command-line surface: batch computation, verification, and export.

Exit codes: 0 success, 1 verification mismatch, 2 usage error.  Progress
notes go to stderr; the data stream (stdout or --out) stays clean.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import closedform, dga
from .series import TriSeries


def _progress(msg):
    print(msg, file=sys.stderr)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _dims_series(q, g):
    return TriSeries(
        q.u_trunc, {key: rep.dim(g) for key, rep in q.coeffs()}
    )


def _table_lines(table, reps):
    lines = ["k h dim decomposition" if reps else "k h dim"]
    for (k, h), rep in sorted(table.entries.items()):
        row = f"{k} {h} {rep.dim(table.genus)}"
        if reps:
            row += f" {rep.text()}"
        lines.append(row)
    return "\n".join(lines)


def _table_csv(table):
    lines = ["n,k,h,dim"]
    for (k, h), rep in sorted(table.entries.items()):
        lines.append(f"{table.n},{k},{h},{rep.dim(table.genus)}")
    return "\n".join(lines)


def _render_table(table, args):
    if args.format == "json":
        return json.dumps(table.to_json(), sort_keys=True)
    if args.format == "csv":
        return _table_csv(table)
    return _table_lines(table, getattr(args, "reps", False))


def cmd_q_series(args, parser):
    if args.genus < 1:
        parser.error("q-series needs genus >= 1; use `betti --genus 0` instead")
    q = closedform.build_Q(args.genus, args.max_n)
    if args.format == "json":
        payload = (
            _dims_series(q, args.genus).to_json() if args.dims else q.to_json()
        )
        _emit(json.dumps(payload, sort_keys=True), args.out)
    elif args.format == "csv":
        lines = ["t,s,u,dim"]
        for (t, s, u), rep in q.coeffs():
            lines.append(f"{t},{s},{u},{rep.dim(args.genus)}")
        _emit("\n".join(lines), args.out)
    elif args.dims:
        _emit(_dims_series(q, args.genus).grouped_u_text(), args.out)
    else:
        _emit(q.text(), args.out)
    return 0


def cmd_table(args, parser):
    if args.genus < 1:
        parser.error("table needs genus >= 1; use `betti --genus 0` instead")
    table = closedform.mixed_table(args.genus, args.n)
    _emit(_render_table(table, args), args.out)
    return 0


def cmd_betti(args, parser):
    b = closedform.betti(args.genus, args.n)
    if args.format == "json":
        payload = {"genus": args.genus, "n": args.n, "betti": list(b)}
        _emit(json.dumps(payload, sort_keys=True), args.out)
    elif args.format == "csv":
        lines = ["k,dim"] + [f"{k},{d}" for k, d in enumerate(b)]
        _emit("\n".join(lines), args.out)
    else:
        _emit(" ".join(map(str, b)), args.out)
    return 0


def cmd_dim(args, parser):
    from .reps import dim_irrep, rep_label, ZERO

    if args.genus < 1:
        parser.error("dim needs genus >= 1")
    label = rep_label(args.genus, args.i, args.j)
    if label == ZERO:
        parser.error(f"label ({args.i}, {args.j}) is not dominant for genus {args.genus}")
    d = dim_irrep(args.genus, label)
    if args.format == "json":
        _emit(
            json.dumps(
                {"genus": args.genus, "i": args.i, "j": args.j, "dim": d},
                sort_keys=True,
            ),
            args.out,
        )
    else:
        _emit(str(d), args.out)
    return 0


def cmd_euler(args, parser):
    chi = closedform.euler_series(args.genus, args.max_n)
    if args.format == "json":
        payload = {"genus": args.genus, "euler": chi}
        _emit(json.dumps(payload, sort_keys=True), args.out)
    elif args.format == "csv":
        lines = ["n,chi"] + [f"{n},{x}" for n, x in enumerate(chi)]
        _emit("\n".join(lines), args.out)
    else:
        _emit(" ".join(map(str, chi)), args.out)
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
        _progress(f"wrote {len(written)} block matrices to {args.debug_dir}")
    _progress(f"computing model {args.model} cohomology: genus {args.genus} n={args.n}")
    if args.reps:
        table = dga.cohomology_reps(args.genus, args.n)
        _emit(_render_table(table, args), args.out)
        return 0
    dims = dga.cohomology_dims(args.genus, args.n, args.model)
    regraded = {}
    for (d1, d2), dim in dims.items():
        regraded[(d1 + d2, d1 + 2 * d2)] = dim
    if args.format == "json":
        payload = {
            "genus": args.genus,
            "n": args.n,
            "model": args.model,
            "table": [
                {"degree": k, "weight": h, "dim": d}
                for (k, h), d in sorted(regraded.items())
            ],
        }
        _emit(json.dumps(payload, sort_keys=True), args.out)
    elif args.format == "csv":
        lines = ["n,k,h,dim"]
        lines += [f"{args.n},{k},{h},{d}" for (k, h), d in sorted(regraded.items())]
        _emit("\n".join(lines), args.out)
    else:
        lines = ["k h dim"] + [f"{k} {h} {d}" for (k, h), d in sorted(regraded.items())]
        _emit("\n".join(lines), args.out)
    return 0


def _verify_genus0(max_n, lines):
    ok = True
    for n in range(max_n + 1):
        if n == 1:
            continue  # outside the model's range; closed form covers it
        _progress(f"verify: genus 0 n={n}")
        dims = dga.cohomology_dims(0, n, "A")
        got = {}
        for (d1, d2), dim in dims.items():
            k = d1 + d2
            got[k] = got.get(k, 0) + dim
        want = {k: d for k, d in enumerate(closedform.genus0_betti(n)) if d}
        if got != want:
            ok = False
            for k in sorted(set(got) | set(want)):
                if got.get(k, 0) != want.get(k, 0):
                    lines.append(
                        f"mismatch n={n} k={k}: closed form {want.get(k, 0)} "
                        f"!= brute force {got.get(k, 0)}"
                    )
    return ok


def _verify_positive_genus(g, max_n, check_reps, lines):
    ok = True
    for n in range(max_n + 1):
        _progress(f"verify: genus {g} n={n}")
        table = closedform.mixed_table(g, n)
        want = table.dims()
        dims = dga.cohomology_dims(g, n, "A")
        got = {(d1 + d2, d1 + 2 * d2): dim for (d1, d2), dim in dims.items()}
        if got != want:
            ok = False
            for kh in sorted(set(got) | set(want)):
                if got.get(kh, 0) != want.get(kh, 0):
                    k, h = kh
                    lines.append(
                        f"mismatch n={n} k={k} h={h}: closed form "
                        f"{want.get(kh, 0)} != brute force {got.get(kh, 0)}"
                    )
            continue
        if check_reps:
            oracle_table = dga.cohomology_reps(g, n)
            if oracle_table.entries != table.entries:
                ok = False
                keys = set(oracle_table.entries) | set(table.entries)
                for kh in sorted(keys):
                    a = table.entries.get(kh)
                    b = oracle_table.entries.get(kh)
                    if a != b:
                        k, h = kh
                        lines.append(
                            f"mismatch n={n} k={k} h={h}: closed form "
                            f"{a.text() if a else '0'} != brute force "
                            f"{b.text() if b else '0'}"
                        )
    return ok


def cmd_verify(args, parser):
    _check_oracle_budget(args, parser, args.max_n)
    lines = []
    if args.genus == 0:
        ok = _verify_genus0(args.max_n, lines)
    else:
        ok = _verify_positive_genus(args.genus, args.max_n, args.reps, lines)
    what = "dims and representations" if args.reps else "dims"
    if ok:
        lines.append(
            f"verify: genus {args.genus} n <= {args.max_n}: all tables agree ({what})"
        )
    _emit("\n".join(lines), args.out)
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
    p.add_argument("--debug-dir", default=None, help="dump block matrices here")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="closed form against brute force")
    common(p, "max-n")
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
