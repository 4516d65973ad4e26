"""Closed-form route to the weight-graded cohomology of UConf_n of a
closed orientable genus-g surface.

The master series lives in t, s, u with coefficients in the representation
ring of sp(2g); the coefficient of u^n, reindexed by cohomological degree
k = t_exp + s_exp and weight h = t_exp + 2*s_exp, is the mixed table for n
points.  The reindexing is pinned by n = 1: the surface itself has its
degree-one classes in weight 1 and the point class in weight 2.

The master series is a bracket times 1/(1-u), and 1/(1-u) is a running
sum over u.  ``q_bracket`` writes the bracket from its formula, truncated
at u^n, as one checked flat list of (t, s, u, label) terms of multiplicity
one, and each consumer aggregates that list as it needs: a table sums each
(t, s) column over u <= n, and builds no series; ``build_Q`` keeps the
running sum of each column at every u, as a {(t, s, u): VirtualRep} dict,
for the q-series; ``euler_series`` sums alternating dimensions per u.

Genus 0 is served by its own closed form; the symplectic machinery
requires g >= 1.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from types import MappingProxyType

from .reps import TRIVIAL, VirtualRep, dim_irrep, rep_label

__all__ = [
    "q_bracket",
    "build_Q",
    "MixedTable",
    "mixed_table",
    "betti",
    "euler_series",
    "euler_binomials",
    "genus0_betti",
    "stabilization_bound",
]


def _check_genus(g):
    if g < 1:
        raise ValueError("genus must be >= 1 here; genus 0 has its own closed form")


def _bracket_terms(g, N):
    """The bracket of ``q_bracket`` up to u^N, unchecked.  Its scalar
    factors, expanded, give 8 shifts per j, and each label V(i, j) is
    listed once at each shift."""
    # (1+t^2 s u^3)(1+t^2 u) + (1+t^2 s u^2) t^(2g) s u^(2g+2), expanded
    scalar = [(0, 0, 0), (2, 0, 1), (2, 1, 3), (4, 1, 4)]
    scalar += [(2 * g, 1, 2 * g + 2), (2 * g + 2, 2, 2 * g + 4)]
    terms = [(t, s, u, TRIVIAL) for t, s, u in scalar if u <= N]
    pre = [(0, 0, 0), (2, 1, 2), (2, 1, 3), (4, 2, 5)]  # (1+t^2 s u^2)(1+t^2 s u^3)
    for j in range(1, g + 1):
        m = g - j
        labels = [rep_label(g, i, j) for i in range((N - j) // 2 + 1)]
        for dt, ds, du in pre + [(t + 2 * m, s + 1, u + 2 * m + 2) for t, s, u in pre]:
            terms += [
                (j + i + dt, i + ds, j + 2 * i + du, labels[i])
                for i in range((N - du - j) // 2 + 1)
            ]
    return terms


def q_bracket(g, N):
    """The bracket whose product with 1/(1-u) is the master series, to u^N:

        (1+t^2 s u^3)(1 + t^2 u) + (1+t^2 s u^2) t^(2g) s u^(2g+2)
        + (1+t^2 s u^2)(1+t^2 s u^3)
          * sum [V(i,j)] t^(j+i) s^i u^(j+2i) (1 + t^(2(g-j)) s u^(2(g-j+1))),

    as a flat list of (t, s, u, label) terms, each of multiplicity one; a
    label that occurs twice at one (t, s, u) is listed twice.  Labels come
    from ``rep_label`` or are TRIVIAL, never ZERO.

    Its invariants are checked: the u^0 coefficient is 1, and every term
    has t <= u + 2g + 2, u <= t + s + 1 and u <= t + 2s, the last two in
    one test, u <= t + s + min(s, 1).  1/(1-u) keeps the u^0 coefficient
    and only carries terms to higher u, so the master series meets the
    first two as well.
    """
    _check_genus(g)
    if N < 0:
        raise ValueError("truncation must be >= 0")
    terms = _bracket_terms(g, N)
    u0 = [(t, s, label) for t, s, u, label in terms if u == 0]
    if u0 != [(0, 0, TRIVIAL)]:
        raise ArithmeticError(
            f"u^0 coefficient must be 1 at g={g}, got the (t, s, label) terms {u0}"
        )
    top = 2 * g + 2
    for t, s, u, _ in terms:
        if t > u + top or u > t + s + (s > 0):  # s > 0 is min(s, 1), for s >= 0
            if t > u + top:
                bound = "t <= u + 2g + 2"
            else:
                bound = "u <= t + s + 1" if u > t + s + 1 else "u <= t + 2s"
            raise ArithmeticError(
                f"exponent bound {bound} violated at {(t, s, u)}, g={g}"
            )
    return terms


def build_Q(g, N):
    """Master series truncated at u^N, as {(t, s, u): VirtualRep}: the
    bracket times 1/(1-u), which is the running sum of each (t, s) column
    of the bracket over u.  Every coefficient is nonzero, and one that does
    not change from u to u+1 is the same (immutable) VirtualRep."""
    columns = {}
    for t, s, u, label in q_bracket(g, N):
        columns.setdefault((t, s), []).append((u, label))
    series = {}
    for (t, s), column in columns.items():
        column.sort()
        ends = [u for u, _ in column[1:]] + [N + 1]
        counts = {}
        for (u, label), end in zip(column, ends):
            counts[label] = counts.get(label, 0) + 1
            if end > u:
                rep = VirtualRep.from_counts(counts)
                counts = dict(counts)
                for v in range(u, end):
                    series[(t, s, v)] = rep
    return series


# ---------------------------------------------------------------------------
# tables


class MixedTable:
    """Per-(degree, weight) decomposition of the cohomology of UConf_n.

    ``entries`` maps (k, h) to an effective VirtualRep; k is the
    cohomological degree and h the weight.  Each cell's dimension is
    computed once, at construction, in the same pass that rejects a
    negative multiplicity (ValueError), and every method that reports a
    dimension reads it from there; so that it cannot go stale, ``entries``
    is a read-only mapping (``dict(table.entries)`` gives a copy to edit
    and build a new table from).
    """

    __slots__ = ("genus", "n", "entries", "_dims")

    def __init__(self, genus, n, entries):
        self.genus = genus
        self.n = n
        kept = {k: v for k, v in entries.items() if v}
        self.entries = MappingProxyType(kept)
        self._dims = {}
        for (k, h), rep in kept.items():
            dim = rep.effective_dim(genus)
            if dim is None:
                raise ValueError(f"negative multiplicity at (k={k}, h={h})")
            self._dims[(k, h)] = dim

    def validate(self):
        g, n = self.genus, self.n
        for k, h in self._dims:
            if not (h >= k and 0 <= 3 * k - 2 * h <= 2 * g + 2):
                raise ArithmeticError(
                    f"weight band violated at genus {g}, n={n}, (k={k}, h={h})"
                )
        if self.euler() != euler_binomials(g, n)[n]:
            raise ValueError(
                f"Euler characteristic mismatch for genus {g}, n={n}"
            )
        return self

    def dims(self):
        return dict(sorted(self._dims.items()))

    def max_degree(self):
        return max((k for k, _ in self.entries), default=0)

    def betti(self):
        b = [0] * (self.max_degree() + 1)
        for (k, _), dim in self._dims.items():
            b[k] += dim
        return tuple(b)

    def euler(self):
        return sum((-1) ** k * dim for (k, _), dim in self._dims.items())

    def __eq__(self, other):
        if not isinstance(other, MixedTable):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.n == other.n
            and self.entries == other.entries
        )

    def to_json(self):
        return {
            "genus": self.genus,
            "n": self.n,
            "table": [
                {
                    "degree": k,
                    "weight": h,
                    "dim": self._dims[(k, h)],
                    "decomposition": rep.to_json(),
                }
                for (k, h), rep in sorted(self.entries.items())
            ],
        }

    def __repr__(self):
        cells = ", ".join(
            f"({k},{h}): {rep.text()}" for (k, h), rep in sorted(self.entries.items())
        )
        return f"MixedTable(g={self.genus}, n={self.n}, {{{cells}}})"


def _slice(g, n):
    """The master series' u^n coefficient as (t, s) -> VirtualRep: each
    (t, s) column of the bracket truncated at u^n, summed over u."""
    columns = {}
    for t, s, _, label in q_bracket(g, n):
        column = columns.setdefault((t, s), {})
        column[label] = column.get(label, 0) + 1
    return {ts: VirtualRep.from_counts(column) for ts, column in columns.items()}


def mixed_table(g, n):
    """Table of gr-pieces of H^*(UConf_n) for genus g >= 1: the u^n
    coefficient of the master series (``_slice``), whose series key (t, s)
    becomes (k, h) = (t+s, t+2s)."""
    _check_genus(g)
    if n < 0:
        raise ValueError("n must be >= 0")
    entries = {(t + s, t + 2 * s): rep for (t, s), rep in _slice(g, n).items()}
    return MixedTable(g, n, entries).validate()


def genus0_betti(n):
    """Betti numbers of UConf_n of the sphere.

    The n-point space is rationally a point in positive degrees except for
    the sphere itself (n = 1) and the single degree-3 class for n >= 3.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return (1,)
    if n == 1:
        return (1, 0, 1)
    if n == 2:
        return (1, 0, 0)
    return (1, 0, 0, 1)


def betti(g, n):
    """Betti numbers of UConf_n; genus 0 is routed to its closed form."""
    if g == 0:
        return genus0_betti(n)
    return mixed_table(g, n).betti()


def euler_binomials(g, N):
    """Coefficients of (1+u)^(2-2g) through u^N."""
    e = 2 - 2 * g
    if e >= 0:
        return [comb(e, n) if n <= e else 0 for n in range(N + 1)]
    m = -e
    return [(-1) ** n * comb(m + n - 1, n) for n in range(N + 1)]


def euler_series(g, N):
    """Euler characteristics of UConf_n for n <= N.  The master series is
    the bracket times 1/(1-u), so each is a running sum over u of the
    bracket's alternating dimensions, taken in one pass over its terms."""
    if g == 0:
        out = []
        for n in range(N + 1):
            b = genus0_betti(n)
            out.append(sum((-1) ** k * d for k, d in enumerate(b)))
        return out
    per_u = [0] * (N + 1)
    for t, s, u, label in q_bracket(g, N):
        per_u[u] += (-1) ** (t + s) * dim_irrep(g, label)
    return list(accumulate(per_u))


def stabilization_bound(g, k, h):
    """Least n0 such that the (k, h) table entry is constant for n >= n0.

    The 1/(1-u) prefactor only accumulates, so the entry stabilizes at the
    largest u-exponent with which the bracket meets (k, h).  Every bracket
    term satisfies u <= t + s + 1 = k + 1 and u <= t + 2s = h (q_bracket
    checks both), so scanning up to k + 2 is exhaustive and the bound is at
    most h.
    """
    _check_genus(g)
    t, s = 2 * k - h, h - k
    if t < 0 or s < 0:
        return 0
    terms = q_bracket(g, k + 2)
    return max((u for tt, ss, u, _ in terms if (tt, ss) == (t, s)), default=0)
