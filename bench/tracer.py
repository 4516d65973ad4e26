"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions and methods of the confcoh modules
in place.  Each wrapper records a span: its call count, its self time (its
own duration minus the time spent in nested wrapped calls, kept on a span
stack so that ``mixed_table -> build_Q -> TriSeries.__mul__`` is not counted
twice) and, for some spans, work counts taken from the arguments or the
result.  The wrapper's own bookkeeping is charged to no span, so it shows
only in the traced run's wall time, that is, in ``trace.overhead_frac``.

A target that no longer exists (after a refactor of the program) is
reported as absent and its metrics are left out; tracing the rest goes on.
"""

import functools
import importlib
from time import perf_counter

PACKAGE = "confcoh"
MODULES = ("closedform", "dga", "linalg", "reps", "series", "cli")


def _count_len(key):
    def count(work, args, result):
        work[key] = work.get(key, 0) + len(result)

    return count


def _count_rank(work, args, result):
    m = args[0]
    nnz = m.nnz()
    work["nnz"] = work.get("nnz", 0) + nnz
    work["max_rows"] = max(work.get("max_rows", 0), m.n_rows)
    work["rank_sum"] = work.get("rank_sum", 0) + result
    work["nonempty"] = work.get("nonempty", 0) + (nnz > 0)


def _count_mul(work, args, result):
    # coefficient pairs the product visits: the inner loop's trip count
    a, b = args
    work["terms"] = work.get("terms", 0) + len(a.coeffs()) * len(b.coeffs())


# (span name, module, attribute path, work counter).  Targets that share a
# span name add up: "dga.other" is the dga entry points' self time, the glue
# around the named dga spans (weight split, matrix assembly).
SPANS = (
    ("dga.differential_monomial", "dga", "differential_monomial", _count_len("terms")),
    ("dga.enumerate_basis", "dga", "enumerate_basis", _count_len("monomials")),
    ("dga.mono_degrees", "dga", "mono_degrees", None),
    ("dga.mono_weight", "dga", "mono_weight", None),
    ("dga.other", "dga", "cohomology_dims", None),
    ("dga.other", "dga", "cohomology_weights", None),
    ("dga.other", "dga", "cohomology_reps", None),
    ("linalg.rank", "linalg", "rank", _count_rank),
    ("reps.peel_character", "reps", "peel_character", None),
    ("reps.irreducible_character", "reps", "irreducible_character", None),
    ("reps.VirtualRep.dim", "reps", "VirtualRep.dim", None),
    ("series.TriSeries.mul", "series", "TriSeries.__mul__", _count_mul),
    ("series.TriSeries.add", "series", "TriSeries.__add__", None),
    ("closedform.build_Q", "closedform", "build_Q", None),
    ("closedform.q_bracket", "closedform", "q_bracket", None),
    ("closedform.mixed_table", "closedform", "mixed_table", None),
    ("closedform.MixedTable.validate", "closedform", "MixedTable.validate", None),
)


#: The per-layer metrics a traced repetition reports, with their units.
LAYER_METRICS = {
    "dga.differential_monomial.calls": "count",
    "dga.differential_monomial.self_s": "s",
    "dga.differential_monomial.terms": "count",
    "dga.enumerate_basis.calls": "count",
    "dga.enumerate_basis.self_s": "s",
    "dga.enumerate_basis.monomials": "count",
    "dga.mono_degrees.calls": "count",
    "dga.mono_degrees.self_s": "s",
    "dga.mono_weight.self_s": "s",
    "dga.other.self_s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.self_s": "s",
    "linalg.rank.nnz": "count",
    "linalg.rank.max_rows": "count",
    "linalg.rank.rank_sum": "count",
    "linalg.rank.nonempty_frac": "ratio",
    "reps.peel_character.calls": "count",
    "reps.peel_character.self_s": "s",
    "reps.irreducible_character.calls": "count",
    "reps.irreducible_character.self_s": "s",
    "reps.VirtualRep.dim.calls": "count",
    "series.TriSeries.mul.calls": "count",
    "series.TriSeries.mul.self_s": "s",
    "series.TriSeries.mul.terms": "count",
    "series.TriSeries.add.calls": "count",
    "series.TriSeries.add.self_s": "s",
    "closedform.build_Q.calls": "count",
    "closedform.build_Q.self_s": "s",
    "closedform.q_bracket.self_s": "s",
    "closedform.mixed_table.calls": "count",
    "closedform.mixed_table.self_s": "s",
    "closedform.MixedTable.validate.self_s": "s",
}


class Span:
    __slots__ = ("calls", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = {}


class Tracer:
    """Wraps the ``spans`` targets of the confcoh package.

    Single-threaded use only: one span stack serves every wrapper.
    """

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.stats = {}
        self.absent = []
        self._stack = []
        self._undo = []

    def install(self):
        namespaces = [importlib.import_module(PACKAGE)]
        for mod in MODULES:
            try:
                namespaces.append(importlib.import_module(f"{PACKAGE}.{mod}"))
            except ImportError:
                pass
        for name, mod, path, count in self.spans:
            owner, attr, original = self._resolve(mod, path)
            if original is None or not callable(original):
                self.absent.append(f"{mod}.{path}")
                continue
            span = self.stats.setdefault(name, Span())
            wrapper = self._wrap(original, span, count)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
            else:
                # a function is also bound wherever another module imported
                # it by name, and is replaced there too
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._replace(ns, key, wrapper)
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _resolve(self, mod, path):
        try:
            obj = importlib.import_module(f"{PACKAGE}.{mod}")
        except ImportError:
            return None, None, None
        owner = attr = None
        for part in path.split("."):
            owner, attr = obj, part
            obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
            if obj is None:
                return None, None, None
        return owner, attr, obj

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, span, count):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            stack.append(0.0)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                stop = perf_counter()
                nested = stack.pop()
                span.calls += 1
                span.self_s += stop - start - nested
                if ok and count is not None:
                    count(span.work, args, result)
                if stack:
                    stack[-1] += perf_counter() - enter
            return result

        return traced

    def report(self):
        """{metric: value} for every LAYER_METRICS entry whose span was
        installed; a span that was never called reports zeros."""
        out = {}
        for metric in LAYER_METRICS:
            name, stat = metric.rsplit(".", 1)
            span = self.stats.get(name)
            if span is None:
                continue
            if stat == "calls":
                out[metric] = span.calls
            elif stat == "self_s":
                out[metric] = span.self_s
            elif stat == "nonempty_frac":
                out[metric] = span.work.get("nonempty", 0) / span.calls if span.calls else 0.0
            else:
                out[metric] = span.work.get(stat, 0)
        return out
