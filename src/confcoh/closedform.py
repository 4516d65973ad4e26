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
multiplicity one.  Every term of table cell (k, h) = (t + s, t + 2s) has
k - 1 <= u <= k + 1, so a cell changes only at those three u: it is absent
below n = k - 1 and final from n = k + 1 on.  One store per genus
(``_bracket``) keeps three fixed slots per cell, one per u, each empty or
the running sum from that u on with its dimension, added up from
``dim_irrep`` once per change point.  It grows by the window above the
largest u it holds, filing each term straight into its slot, so each term
is written and checked once per process.  It checks a cell's weight band
once, when the cell joins, and each change point's dimension as it is
added.

The store lists its cells in cell order and keeps the final value,
dimension and running Euler sum of each settled cell, of degree
k <= top - 1.  A table at n is then the settled cells of degree
k <= n - 1, one slice, and the cells of degree n and n + 1, each read off
one slot; its cells arrive sorted with their dimensions, it checks its
Euler characteristic and builds no series.  ``build_Q`` walks each cell's
slots once for the q-series, as a {(t, s, u): VirtualRep} dict;
``stabilization_bound`` reads a cell's last filled slot; ``euler_series``
sums the alternating dimensions of a whole bracket per u.

The bracket needs g >= 1.  Genus 0, whose sp(0) is the zero Lie algebra
with the trivial representation as its only irreducible, has its own
table of multiples of V(0,0), checked and served like every other, and
its stabilization bounds are read off that table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from types import MappingProxyType

from .reps import TRIVIAL, RepLabel, VirtualRep, dim_irrep

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
        labels = [RepLabel(i, j) for i in range(first, (N - j) // 2 + 1)]
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
    label that occurs twice at one (t, s, u) is listed twice.  Labels are
    TRIVIAL or RepLabel(i, j) with i >= 0 and 1 <= j <= g, built directly:
    that is already ``rep_label``'s normal form, and never ZERO.

    Its invariants are checked on the window's terms: the u^0 coefficient
    is 1 (when the window holds u = 0), and every term has t <= u + 2g + 2,
    t >= s, u <= t + s + 1, u <= t + 2s and u >= t + s - 1, the third and
    fourth in one test, u <= t + s + min(s, 1).  The error names the first
    of these bounds, in this order, that a term breaks.
    1/(1-u) keeps the u^0 coefficient and each term's (t, s), and only
    carries terms to higher u, so the master series meets the first three
    as well: each of its cells of degree k = t + s has weight
    h = t + 2s <= 3k/2.  The two bounds on u put every term of a cell of
    degree k at k - 1 <= u <= k + 1, which the store's three slots per
    cell and its settled prefix rest on.
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
        # s > 0 is min(s, 1), for s >= 0
        if t > u + top or t < s or not t + s - 1 <= u <= t + s + (s > 0):
            if t > u + top:
                bound = "t <= u + 2g + 2"
            elif t < s:
                bound = "t >= s"
            elif u > t + s + 1:
                bound = "u <= t + s + 1"
            elif u > t + 2 * s:
                bound = "u <= t + 2s"
            else:
                bound = "u >= t + s - 1"
            raise ArithmeticError(
                f"exponent bound {bound} violated at {(t, s, u)}, g={g}"
            )
    return terms


class _Bracket:
    """The running sums of the bracket's columns over u <= top, for one
    genus.

    ``columns`` maps the table cell (k, h) = (t + s, t + 2s) of each (t, s)
    column with a term at u <= top to a list of three slots, for
    u = k - 1, k and k + 1 (slot u - k + 1).  A slot is None when the
    column has no term at its u, and otherwise (VirtualRep, dim): the sum
    of the column's terms up to that u, shared by every n up to the next
    filled slot, and its dimension.  Every term of a column has
    k - 1 <= u <= k + 1 (``q_bracket`` checks both bounds), which is what
    makes the slot index valid.  ``cells`` lists the same cells in cell
    order, and ``starts[m]``, for m <= top + 2, counts its cells of degree
    k < m.

    The store holds no cell of degree k > top + 1, and a cell of degree
    k <= top - 1 has all its slots: it is settled, the same at every
    n >= k + 1.  ``finals`` and ``final_dims`` hold the last filled slot of
    each of the first ``starts[top]`` cells, the settled ones, and
    ``eulers[i]`` the Euler sum of the first i.  A table at n <= top is the
    first ``starts[n]`` cells, of degree k <= n - 1, at their final values,
    then the cells of degree n, at slot 1 or else slot 0, and of degree
    n + 1, at slot 0: no higher cell has a term at u <= n.

    Every cell in the store has been checked once: its weight band when it
    joined, and its dimension, positive, at each filled slot.
    """

    __slots__ = ("top", "columns", "cells", "starts", "finals", "final_dims", "eulers")

    def __init__(self):
        self.top = -1
        self.columns = {}
        self.cells = []
        self.starts = [0]
        self.finals = []
        self.final_dims = []
        self.eulers = [0]

    def cover(self, g, n):
        """Grow to top = n: ask ``q_bracket`` only for the terms with
        top < u <= n, file each one straight into its cell's slot u - k + 1,
        and extend each cell from its last sum and dimension, adding the
        ``dim_irrep`` of each new term, looked up once per label.

        A cell new to the store must be in the weight band, h >= k and
        0 <= 3k - 2h <= 2g + 2 (ArithmeticError), and each new change point
        have a positive dimension (ValueError): a sum of multiplicity-one
        terms is an effective rep that is not zero.  Both errors name the
        cell and the n from which it holds.  The grown slots are written to
        new lists and put in the store only once the whole window has
        passed, so a failed cover leaves the store as it was.  A new term
        has u > top, so each slot it fills lies above every slot its cell
        already holds, and its cell has degree k >= u - 1 >= top: only the
        cells from ``starts[top]`` on are put in order again, and the
        settled prefix grows at its end, by the cells of degree
        top <= k <= n - 1.
        """
        terms = q_bracket(g, n, self.top)
        dim_of = {label: dim_irrep(g, label) for label in {term[3] for term in terms}}
        fresh = {}
        for t, s, u, label in terms:
            k = t + s
            cell = (k, k + s)
            new = fresh.get(cell)
            if new is None:
                new = fresh[cell] = ([], [], [])
            new[u - k + 1].append(label)
        columns = self.columns
        grown = {}
        for (k, h), new in fresh.items():
            old = columns.get((k, h))
            if old is not None:
                rep, dim = old[2] or old[1] or old[0]
                counts, slots = rep.counts(), old.copy()
            elif h >= k and 0 <= 3 * k - 2 * h <= 2 * g + 2:
                counts, dim, slots = {}, 0, [None, None, None]
            else:
                u = k - 1 + next(i for i, labels in enumerate(new) if labels)
                raise ArithmeticError(
                    f"weight band violated at genus {g}, n={u}, (k={k}, h={h})"
                )
            taken = False
            for i, labels in enumerate(new):
                if not labels:
                    continue
                if taken:
                    counts = dict(counts)
                for label in labels:
                    counts[label] = counts.get(label, 0) + 1
                    dim += dim_of[label]
                if dim <= 0:
                    raise ValueError(
                        f"dimension {dim} at genus {g}, n={k - 1 + i}, (k={k}, h={h})"
                    )
                slots[i] = (VirtualRep.from_counts(counts), dim)
                taken = True
            grown[(k, h)] = slots
        added = [cell for cell in grown if cell not in columns]
        columns.update(grown)
        self._settle(n, added)

    def _settle(self, n, added):
        """Put the ``added`` cells in order, count ``starts`` up to n + 2
        and settle the cells of degree k <= n - 1, for top = n."""
        cells, starts = self.cells, self.starts
        del starts[max(self.top, 0) + 1:]
        cut = starts[-1]
        if added:
            cells[cut:] = sorted(cells[cut:] + added)
        for m in range(len(starts), n + 3):
            while cut < len(cells) and cells[cut][0] < m:
                cut += 1
            starts.append(cut)
        euler = self.eulers[-1]
        for cell in cells[len(self.finals):starts[n]]:
            slots = self.columns[cell]
            rep, dim = slots[2] or slots[1] or slots[0]
            self.finals.append(rep)
            self.final_dims.append(dim)
            euler += -dim if cell[0] % 2 else dim
            self.eulers.append(euler)
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
    off the genus' store.  Each cell (k, h) is walked once over
    k - 1 <= u <= N, at (t, s) = (2k - h, h - k): the sum of a filled slot
    fills every u up to the next filled one, or to N.  Every coefficient is
    nonzero, and one that does not change from u to u+1 is the same
    (immutable) VirtualRep."""
    q = {}
    for (k, h), slots in _covering(g, N).columns.items():
        t, s = 2 * k - h, h - k
        rep = None
        for u in range(k - 1, N + 1):
            if u <= k + 1 and slots[u - k + 1] is not None:
                rep = slots[u - k + 1][0]
            if rep is not None:
                q[(t, s, u)] = rep
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
    the genus' store.  Its cells of degree k <= n - 1 are settled, so their
    VirtualReps, dimensions and Euler sum are slices of the store's prefix;
    each cell of degree n is read off its slot 1 (u = n), or else slot 0,
    and each of degree n + 1 off its slot 0, which gives the cell's
    VirtualRep and its dimension, computed by the store once per change
    point; no cell of higher degree has a term at u <= n.  The store's cells are keyed (k, h) =
    (t+s, t+2s) and come in cell order, and it has checked each cell's
    weight band and dimension, so the read only adds up the Euler
    characteristic and checks it (ValueError).  For the sphere it is one
    V(0,0) at (0, 0), the sphere itself at (2, 2) when n = 1, and for
    n >= 3 one class at (3, 4), of the weight of H^3(PGL_2(C)), built and
    checked like any table of given cells.
    """
    if g < 0 or n < 0:
        raise ValueError("need g >= 0 and n >= 0")
    if g == 0:
        cells = [(0, 0)] + [(2, 2)] * (n == 1) + [(3, 4)] * (n >= 3)
        return MixedTable(0, n, {kh: VirtualRep.unit() for kh in cells}).validate()
    store = _covering(g, n)
    cells, columns, settled = store.cells, store.columns, store.starts[n]
    entries = dict(zip(cells, store.finals[:settled]))
    dims = dict(zip(cells, store.final_dims[:settled]))
    euler = store.eulers[settled]
    for cell in cells[settled:store.starts[n + 2]]:
        slots = columns[cell]
        # slot 1, else slot 0, at degree k = n; slot 0 at k = n + 1
        slot = slots[n - cell[0] + 1] or slots[0]
        if slot is not None:
            entries[cell], dim = slot
            dims[cell] = dim
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
    if g < 0:
        raise ValueError("need g >= 0")
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
    largest u-exponent with which the bracket meets (k, h): the u of the
    last filled slot of the store's (k, h) cell, or 0 when the bracket has
    no such column.  Every bracket term satisfies u <= t + s + 1 = k + 1
    and u <= t + 2s = h (q_bracket checks both), so a store grown to k + 1
    holds the whole column and the bound is at most min(h, k + 1).  For
    the sphere it is read off its table: (2, 2) is gone from n = 2 on,
    (3, 4) is there from n = 3 on, and every other cell is constant from
    n = 0.
    """
    if g < 0:
        raise ValueError("need g >= 0")
    if g == 0:
        return {(2, 2): 2, (3, 4): 3}.get((k, h), 0)
    if not k <= h <= 2 * k:  # the (t, s) = (2k - h, h - k) column has t, s >= 0
        return 0
    slots = _covering(g, k + 1).columns.get((k, h))
    return max(k - 1 + i for i, slot in enumerate(slots) if slot) if slots else 0
