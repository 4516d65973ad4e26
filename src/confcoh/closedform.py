"""Closed-form route to the weight-graded cohomology of UConf_n of a
closed orientable genus-g surface.

The master series lives in t, s, u with coefficients in the representation
ring of sp(2g); the coefficient of u^n, reindexed by cohomological degree
k = t_exp + s_exp and weight h = t_exp + 2*s_exp, is the mixed table for n
points.  The reindexing is pinned by n = 1: the surface itself has its
degree-one classes in weight 1 and the point class in weight 2.

The master series is a bracket times 1/(1-u), and 1/(1-u) is a running
sum over u.  ``q_bracket`` writes the bracket from its formula, for a
window lo < u <= N, as one checked flat list of (t, s, u, label) terms of
multiplicity one.  One store per genus (``_bracket``) keeps the running
sum of each (t, s) column at each u where it changes, and grows by the
window above the largest u it holds, so each term is written and checked
once per process.  The store keys each column by its table cell (k, h) =
(t + s, t + 2s), keeps the columns in cell order, and keeps each change
point's dimension next to its VirtualRep, added up from ``dim_irrep`` once
per change point.  It checks a cell's weight band once, when its column
joins, and each change point's dimension as it is added.  A table is then
one pass over the columns: it bisects each at u = n, skipping the columns
that start above n, so its cells arrive sorted with their dimensions, and
it checks its Euler characteristic and builds no series; ``build_Q`` walks
each column's change points once for the q-series, as a
{(t, s, u): VirtualRep} dict; ``stabilization_bound`` reads the last u at
which a column changes; ``euler_series`` sums the alternating dimensions
of a whole bracket per u.

The bracket needs g >= 1.  Genus 0, whose sp(0) is the zero Lie algebra
with the trivial representation as its only irreducible, has its own
table of multiples of V(0,0), checked and served like every other, and
its stabilization bounds are read off that table.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
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
    "stabilization_bound",
]


def _check_genus(g):
    if g < 1:
        raise ValueError("the master series needs genus >= 1")


def _bracket_terms(g, N, lo=-1):
    """The terms of ``q_bracket`` with lo < u <= N, unchecked.  Its scalar
    factors, expanded, give 8 shifts per j, and each label V(i, j) is
    listed once at each shift."""
    # (1+t^2 s u^3)(1+t^2 u) + (1+t^2 s u^2) t^(2g) s u^(2g+2), expanded
    scalar = [(0, 0, 0), (2, 0, 1), (2, 1, 3), (4, 1, 4)]
    scalar += [(2 * g, 1, 2 * g + 2), (2 * g + 2, 2, 2 * g + 4)]
    terms = [(t, s, u, TRIVIAL) for t, s, u in scalar if lo < u <= N]
    pre = [(0, 0, 0), (2, 1, 2), (2, 1, 3), (4, 2, 5)]  # (1+t^2 s u^2)(1+t^2 s u^3)
    for j in range(1, g + 1):
        m = g - j
        shifts = pre + [(t + 2 * m, s + 1, u + 2 * m + 2) for t, s, u in pre]
        # V(i, j) sits at u = j + 2i + du: lo < u needs i > (lo - du - j) / 2
        first = max(0, (lo - j - max(du for _, _, du in shifts)) // 2 + 1)
        labels = [rep_label(g, i, j) for i in range(first, (N - j) // 2 + 1)]
        for dt, ds, du in shifts:
            terms += [
                (j + i + dt, i + ds, j + 2 * i + du, labels[i - first])
                for i in range(max(0, (lo - du - j) // 2 + 1), (N - du - j) // 2 + 1)
            ]
    return terms


def q_bracket(g, N, lo=-1):
    """The bracket whose product with 1/(1-u) is the master series, its
    terms with lo < u <= N (the whole bracket to u^N by default):

        (1+t^2 s u^3)(1 + t^2 u) + (1+t^2 s u^2) t^(2g) s u^(2g+2)
        + (1+t^2 s u^2)(1+t^2 s u^3)
          * sum [V(i,j)] t^(j+i) s^i u^(j+2i) (1 + t^(2(g-j)) s u^(2(g-j+1))),

    as a flat list of (t, s, u, label) terms, each of multiplicity one; a
    label that occurs twice at one (t, s, u) is listed twice.  Labels come
    from ``rep_label`` or are TRIVIAL, never ZERO.

    Its invariants are checked on the window's terms: the u^0 coefficient
    is 1 (when the window holds u = 0), and every term has t >= s,
    t <= u + 2g + 2, u <= t + s + 1 and u <= t + 2s, the last two in one
    test, u <= t + s + min(s, 1).  1/(1-u) keeps the u^0 coefficient and
    each term's (t, s), and only carries terms to higher u, so the master
    series meets the first three as well: each of its cells of degree
    k = t + s has weight h = t + 2s <= 3k/2.
    """
    _check_genus(g)
    if N < 0:
        raise ValueError("truncation must be >= 0")
    terms = _bracket_terms(g, N, lo)
    if lo < 0:
        u0 = [(t, s, label) for t, s, u, label in terms if u == 0]
        if u0 != [(0, 0, TRIVIAL)]:
            raise ArithmeticError(
                f"u^0 coefficient must be 1 at g={g}, got the (t, s, label) terms {u0}"
            )
    top = 2 * g + 2
    for t, s, u, _ in terms:
        if t > u + top or u > t + s + (s > 0) or t < s:  # s > 0 is min(s, 1), for s >= 0
            if t > u + top:
                bound = "t <= u + 2g + 2"
            elif t < s:
                bound = "t >= s"
            else:
                bound = "u <= t + s + 1" if u > t + s + 1 else "u <= t + 2s"
            raise ArithmeticError(
                f"exponent bound {bound} violated at {(t, s, u)}, g={g}"
            )
    return terms


class _Bracket:
    """The running sums of the bracket's columns over u <= top, for one
    genus.

    ``columns`` maps the table cell (k, h) = (t + s, t + 2s) of each (t, s)
    column with a term at u <= top to three lists: the u at which its
    running sum changes, in increasing order, the VirtualRep that it sums
    to from that u on, shared by every n up to the next change, and that
    rep's dimension.  The columns are kept in cell order, so that a read at
    n <= top, which takes each column by bisection and skips the columns
    that start above n, gives a table's cells sorted, each with its
    dimension.

    Every cell in the store has been checked once: its weight band when its
    column joined, and its dimension, positive, at each change point.
    """

    __slots__ = ("top", "columns")

    def __init__(self):
        self.top = -1
        self.columns = {}

    def cover(self, g, n):
        """Grow to top = n: ask ``q_bracket`` only for the terms with
        top < u <= n, and extend each column from its last sum and
        dimension, adding the ``dim_irrep`` of each new term.

        A column new to the store must have its cell (k, h) in the weight
        band, h >= k and 0 <= 3k - 2h <= 2g + 2 (ArithmeticError), and each
        new change point a positive dimension (ValueError): a sum of
        multiplicity-one terms is an effective rep that is not zero.  Both
        errors name the cell and the n from which it holds, and leave the
        store as it was.  A column new to the store puts the columns out of
        cell order, so they are sorted again when one is added.
        """
        fresh = {}
        for t, s, u, label in q_bracket(g, n, self.top):
            fresh.setdefault((t + s, t + 2 * s), []).append((u, label))
        columns = self.columns
        grown = []
        for (k, h), column in fresh.items():
            column.sort()
            old = columns.get((k, h))
            if old is not None:
                counts, dim = dict(old[1][-1].items()), old[2][-1]
            elif h >= k and 0 <= 3 * k - 2 * h <= 2 * g + 2:
                counts, dim = {}, 0
            else:
                raise ArithmeticError(
                    f"weight band violated at genus {g}, n={column[0][0]}, (k={k}, h={h})"
                )
            us, reps, dims = [], [], []
            ends = [u for u, _ in column[1:]] + [n + 1]
            for (u, label), end in zip(column, ends):
                counts[label] = counts.get(label, 0) + 1
                dim += dim_irrep(g, label)
                if end > u:
                    if dim <= 0:
                        raise ValueError(
                            f"dimension {dim} at genus {g}, n={u}, (k={k}, h={h})"
                        )
                    us.append(u)
                    reps.append(VirtualRep.from_counts(counts))
                    dims.append(dim)
                    counts = dict(counts)
            grown.append(((k, h), us, reps, dims))
        added = not fresh.keys() <= columns.keys()
        for cell, us, reps, dims in grown:
            column = columns.setdefault(cell, ([], [], []))
            column[0].extend(us)
            column[1].extend(reps)
            column[2].extend(dims)
        if added:
            self.columns = dict(sorted(columns.items()))
        self.top = n


@lru_cache(maxsize=None)
def _bracket(g):
    """The one ``_Bracket`` of a genus, grown as calls reach a larger n."""
    return _Bracket()


def _covering(g, n):
    """The store of genus g >= 1, grown to hold u^n."""
    _check_genus(g)
    if n < 0:
        raise ValueError("truncation must be >= 0")
    store = _bracket(g)
    if n > store.top:
        store.cover(g, n)
    return store


def build_Q(g, N):
    """Master series truncated at u^N, as {(t, s, u): VirtualRep}: the
    bracket times 1/(1-u), whose u^n coefficient is the column sums at n
    off the genus' store.  Each column's change points are walked once,
    and the sum from each one fills every u up to the next, or to N, at
    (t, s) = (2k - h, h - k).  Every coefficient is nonzero, and one that
    does not change from u to u+1 is the same (immutable) VirtualRep."""
    q = {}
    for (k, h), (us, reps, _) in _covering(g, N).columns.items():
        t, s = 2 * k - h, h - k
        for u, end, rep in zip(us, us[1:] + [N + 1], reps):
            if u > N:
                break
            for v in range(u, min(end, N + 1)):
                q[(t, s, v)] = rep
    return q


# ---------------------------------------------------------------------------
# tables


class MixedTable:
    """Per-(degree, weight) decomposition of the cohomology of UConf_n.

    ``entries`` maps (k, h) to an effective, nonzero VirtualRep; k is the
    cohomological degree and h the weight.  The cells are always kept in
    (k, h) order, each with its dimension, which every method that reports
    a dimension reads; so that it cannot go stale, ``entries`` is a
    read-only mapping (``dict(table.entries)`` gives a copy to edit and
    build a new table from).

    The constructor takes cells in any order, as the brute force and
    hand-built tables give them, and makes one pass over them sorted: it
    computes each cell's dimension once, rejects a negative multiplicity
    (ValueError, naming the cell) and drops a cell of dimension 0, which
    for an effective rep is the zero rep.  ``validate`` then checks the
    weight band and the Euler characteristic.  A closed-form table is
    built by ``mixed_table`` from its genus' store instead, whose cells
    come sorted with their dimensions and already checked.
    """

    __slots__ = ("genus", "n", "entries", "_dims")

    def __init__(self, genus, n, entries):
        kept, dims = {}, {}
        for (k, h), rep in sorted(entries.items()):
            dim = rep.effective_dim(genus)
            if dim is None:
                raise ValueError(f"negative multiplicity at (k={k}, h={h})")
            if dim:
                kept[(k, h)] = rep
                dims[(k, h)] = dim
        self._set(genus, n, kept, dims)

    @classmethod
    def _checked(cls, genus, n, entries, dims):
        """The table of cells that are checked already and given in (k, h)
        order, with their dimensions, as {(k, h): VirtualRep} and
        {(k, h): dim}; both dicts are taken over, not copied."""
        self = cls.__new__(cls)
        self._set(genus, n, entries, dims)
        return self

    def _set(self, genus, n, entries, dims):
        self.genus = genus
        self.n = n
        self.entries = MappingProxyType(entries)
        self._dims = dims

    def validate(self):
        """Checks, in one pass over the cells, that each lies in the weight
        band (ArithmeticError) and that their Euler characteristic is that
        of UConf_n (ValueError)."""
        g, n = self.genus, self.n
        euler = 0
        for (k, h), dim in self._dims.items():
            if not (h >= k and 0 <= 3 * k - 2 * h <= 2 * g + 2):
                raise ArithmeticError(
                    f"weight band violated at genus {g}, n={n}, (k={k}, h={h})"
                )
            euler += -dim if k % 2 else dim
        _check_euler(g, n, euler)
        return self

    def dims(self):
        return dict(self._dims)

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
                for (k, h), rep in self.entries.items()
            ],
        }

    def __repr__(self):
        cells = ", ".join(
            f"({k},{h}): {rep.text()}" for (k, h), rep in self.entries.items()
        )
        return f"MixedTable(g={self.genus}, n={self.n}, {{{cells}}})"


def _euler_coefficient(g, n):
    """[u^n] (1+u)^(2-2g), the Euler characteristic of UConf_n."""
    e = 2 - 2 * g
    if e >= 0:
        return comb(e, n)
    return (-1) ** n * comb(n - e - 1, n)


def _check_euler(g, n, euler):
    """Raises ValueError unless ``euler`` is the Euler characteristic of
    UConf_n."""
    if euler != _euler_coefficient(g, n):
        raise ValueError(f"Euler characteristic mismatch for genus {g}, n={n}")


def mixed_table(g, n):
    """Table of gr-pieces of H^*(UConf_n) for genus g >= 0.

    For g >= 1 it is the u^n coefficient of the master series, read off
    the genus' store in one pass: each column whose first change point is
    at most n is bisected once, which gives the cell's VirtualRep and its
    dimension, computed by the store once per change point.  The store's
    columns are keyed by cell (k, h) = (t+s, t+2s) and come in cell order,
    and it has checked each cell's weight band and dimension, so the pass
    only adds up the Euler characteristic and checks it (ValueError).  For
    the sphere it is one V(0,0) at (0, 0), the sphere itself at (2, 2) when
    n = 1, and for n >= 3 one class at (3, 4), of the weight of
    H^3(PGL_2(C)), built and checked like any table of given cells.
    """
    if g < 0 or n < 0:
        raise ValueError("need g >= 0 and n >= 0")
    if g == 0:
        cells = [(0, 0)] + [(2, 2)] * (n == 1) + [(3, 4)] * (n >= 3)
        return MixedTable(0, n, {kh: VirtualRep.unit() for kh in cells}).validate()
    entries, dims = {}, {}
    euler = 0
    for cell, (us, reps, ds) in _covering(g, n).columns.items():
        if us[0] <= n:
            i = bisect_right(us, n) - 1
            entries[cell] = reps[i]
            dim = dims[cell] = ds[i]
            euler += -dim if cell[0] % 2 else dim
    _check_euler(g, n, euler)
    return MixedTable._checked(g, n, entries, dims)


def betti(g, n):
    """Betti numbers of UConf_n."""
    return mixed_table(g, n).betti()


def euler_binomials(g, N):
    """Coefficients of (1+u)^(2-2g) through u^N."""
    return [_euler_coefficient(g, n) for n in range(N + 1)]


def euler_series(g, N):
    """Euler characteristics of UConf_n for n <= N.  The master series is
    the bracket times 1/(1-u), so each is a running sum over u of the
    bracket's alternating dimensions, taken in one pass over its terms."""
    if N < 0:
        raise ValueError("truncation must be >= 0")
    if g == 0:
        return [mixed_table(0, n).euler() for n in range(N + 1)]
    per_u = [0] * (N + 1)
    for t, s, u, label in q_bracket(g, N):
        per_u[u] += (-1) ** (t + s) * dim_irrep(g, label)
    return list(accumulate(per_u))


def stabilization_bound(g, k, h):
    """Least n0 such that the (k, h) table entry is constant for n >= n0.

    The 1/(1-u) prefactor only accumulates, so the entry stabilizes at the
    largest u-exponent with which the bracket meets (k, h): the last point
    at which the store's (k, h) column changes, or 0 when the bracket has
    no such column.  Every bracket term satisfies u <= t + s + 1 = k + 1
    and u <= t + 2s = h (q_bracket checks both), so a store grown to k + 1
    holds the whole column and the bound is at most h.  For the sphere it
    is read off its table: (2, 2) is gone from n = 2 on, (3, 4) is there
    from n = 3 on, and every other cell is constant from n = 0.
    """
    if g < 0:
        raise ValueError("need g >= 0")
    if g == 0:
        return {(2, 2): 2, (3, 4): 3}.get((k, h), 0)
    if not k <= h <= 2 * k:  # the (t, s) = (2k - h, h - k) column has t, s >= 0
        return 0
    column = _covering(g, k + 1).columns.get((k, h))
    return column[0][-1] if column else 0
