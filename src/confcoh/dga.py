"""Brute-force route: filtered differential graded models and their exact
bigraded cohomology.

Model B is the free graded-commutative algebra on generators

    a_1..a_g, b_1..b_g   of degree (1, 0, 1),
    p                    of degree (2, 0, 1),
    s1                   of degree (0, 1, 2),
    sa_1..sa_g, sb_1..sb_g of degree (1, 1, 2),
    sp                   of degree (2, 1, 2),

with differential d(s1) = p - sum a_i b_i, d(sa_i) = a_i p,
d(sb_i) = b_i p, d(sp) = p^2 and d = 0 on the degree-(.,0) generators.
Model A is the quotient by the acyclic ideal (sp, p^2).  The third degree
cuts out the filtration stage F_n (monomials of deg3 <= n), whose
cohomology gives the weight-graded cohomology of the n-point unordered
configuration space after the regrading
(k, h) = (deg1 + deg2, deg1 + 2*deg2).

A monomial is a plain 5-tuple (ext, s1, p, sp, sym), read by position: a
bitmask of the exterior generators a_1..a_g, b_1..b_g, the s1 flag, the p
exponent, the sp flag and the tuple of exponents of sa_1..sa_g,
sb_1..sb_g.  The rank loop codes each monomial of F_n as one int under a
``_Layout``: the fields sit at fixed bit offsets, ext highest, then s1, p,
sp and sym_1 .. sym_2g, each wide enough for F_n, so int order is basis
(tuple) order.  deg3 sits above the code, so sorting a group's ints sorts
it by (deg3, basis order).  Every term of d is the source's code plus an
offset, and its Koszul sign a parity of exterior bits: ``_Layout.write``,
the one statement of the Leibniz rule, writes a group's terms as one
column per member, keyed by each image's code with its deg3 above it, so
the row keys sort as the target group does.  Blocks are split by torus
weight before the exact rank computation, which is valid because d
preserves the weight.
Only dominant weights are ranked: d also commutes with the Weyl group, so
every weight has the cohomology of its dominant representative, and each
dominant weight counts once per member of its orbit.  The dominant-weight
monomials are enumerated directly, coordinate by coordinate, never by
filtering the whole basis.

F_n is a subcomplex of F_N for n <= N, since d never raises deg3.  The
rank loop therefore keeps one store per genus and model, built by one
column reduction per group, carried to the largest n reached so far, top:
with each group's members sorted by deg3, the rank of d on F_n's part of
the group is a prefix rank of that reduction, for every n <= top.
``_columns`` checks a group's columns, which go straight to
``linalg.reduce_columns``; only ``dump_blocks`` has ``_matrix`` transpose
a group's whole columns into a ``SparseIntMatrix`` to write them.  A call
at n <= top only reads the store.  A call at n > top grows it, and does
only the work that the members of deg3 > top add.  It enumerates only the
groups of deg1 + deg2 >= top, since deg3 = deg1 + deg2 - p - sp + s1 <=
deg1 + deg2 + 1 keeps every other group inside F_top.  A group whose
members all have deg3 <= top is a group of F_top with the same members,
and their images lie in F_top too, so its F_n matrix is its F_top matrix
plus zero rows: the store already holds its tuple.  A group with new
members resumes its column reduction when the store kept its pivots: a
new member sorts after every old one, and no old column has an entry in
a new row, so only the new columns are written and reduced, and the old
prefix ranks stand.  The store keeps the pivots of the groups that can
still gain a member and have none below top - 1: in model A every such
group, in model B all but the deep powers of p, which are rebuilt whole
(``_Store`` says why).  The pivots hold codes, so they are dropped when a grow lays the
fields out wider, and ``dump_blocks`` replaces the whole store, pivots
included.

d maps the group of ((deg1, deg2), w) to that of ((deg1 + 2, deg2 - 1),
w), so the groups of one torus weight w and one h = deg1 + 2*deg2 form a
chain, each a filtered cochain complex with filtration deg3, and a grow
reduces each chain in increasing deg1 with clearing (the twist of
Chen-Kerber, "Persistent homology computation with a twist", EuroCG 2011;
Bauer-Kerber-Reininghaus, "Clear and compress: computing persistent
homology in chunks", arXiv 1303.0477).  If a reduced column of the
source's matrix S = d(v) ends at row r, its low, then d(d(v)) = 0 puts
d of the target's r-th member in the span of the target's earlier
members' images: that member's column reduces to zero.  So every low of
S is a column of the target's matrix that is passed empty, neither
written nor reduced, and that adds nothing to the rank.  One walk over
the store at n
gives the per-block characters {(deg1, deg2): {dominant weight: dim}},
which every reader shares: ``cohomology_weights`` returns them,
``cohomology_dims`` sums each over the Weyl orbits, ``cohomology_reps``
peels them."""

from __future__ import annotations

import os
from bisect import bisect_right
from functools import lru_cache
from itertools import chain
from operator import gt, itemgetter

from .closedform import MixedTable
from .linalg import SparseIntMatrix, reduce_columns, write_matrix_market
from .reps import orbit_size, peel_character

__all__ = [
    "enumerate_basis",
    "differential_monomial",
    "cohomology_dims",
    "cohomology_weights",
    "cohomology_reps",
    "dump_blocks",
    "ORACLE_BUDGET",
]

#: Largest n per genus at which one model A point with characters
#: (``cohomology_reps``) and one model B point (``cohomology_dims(g, n,
#: "B")``) each took at most 1 s, timed in fresh processes on a 2-core x86
#: box before the rank loop reduced columns with clearing; at genus 0
#: model B sets it, and ``oracle --reps`` at n = 23000 took 0.06-0.07 s
#: (3 fresh processes).  With clearing each of these points took at most
#: 0.5 s (model B at genus 0: 0.42-0.48 s; at g >= 1 at most 0.22 s, 3
#: fresh processes each); the values stay until a measured frontier
#: replaces them.  The budget covers the computation only: a whole
#: ``oracle --model B --debug-dir`` run at the budget (3 fresh processes)
#: took 0.1-0.2 s at 3 <= g <= 7, 0.25-0.27 s at g = 2, and is still
#: bound by creating one file per group at g = 1 (1.7-3.5 s, 10 595
#: files) and genus 0 (2.1-9.8 s, 45 997 files).
ORACLE_BUDGET = {0: 23000, 1: 60, 2: 19, 3: 12, 4: 10, 5: 9, 6: 8, 7: 8}


def mono_degrees(g, m):
    """(deg1, deg2, deg3) of a monomial."""
    ext, s1, p, sp, sym = m
    ext = ext.bit_count()
    sym = sum(sym)
    return (
        ext + 2 * p + 2 * sp + sym,
        s1 + sp + sym,
        ext + p + 2 * s1 + 2 * sp + 2 * sym,
    )


def mono_weight(g, m):
    """Torus weight as a g-tuple."""
    ext, _, _, _, sym = m
    w = [0] * g
    for i in range(g):
        if ext >> i & 1:
            w[i] += 1
        if ext >> (g + i) & 1:
            w[i] -= 1
        w[i] += sym[i] - sym[g + i]
    return tuple(w)


class _Layout:
    """The int codes of the monomials of F_n, for one genus and model.

    A code holds the fields at fixed bit offsets, lowest first: sym_2g ..
    sym_1 of (n // 2).bit_length() bits each, the sp flag, p of
    n.bit_length() bits, the s1 flag and the 2g exterior bits, so int order
    is basis order.  Every field of a monomial of F_n fits, and so does
    every field of its images, which lie in F_n: p <= deg3 and 2 sym_j <=
    deg3.  ``encode`` raises ValueError, naming the field, on a value that
    does not fit, so that no carry lands on another monomial; the bits from
    ``width`` up are free, and the rank loop keeps deg3 there.

    A layout holds field offsets and masks only, no terms: ``write``
    derives every term of d from them, for each code it writes.
    """

    __slots__ = ("g", "sym_bits", "p_bits", "sym_at", "sp_at", "p_at",
                 "s1_at", "ext_at", "width", "mask", "p_field", "raise_p",
                 "s1_to_p", "sp_to_p2", "s1_pairs", "sym_digits")

    def __init__(self, g, n, model):
        self.g = g
        self.sym_bits = (n // 2).bit_length()
        self.p_bits = n.bit_length()
        self.sym_at = tuple((2 * g - 1 - j) * self.sym_bits for j in range(2 * g))
        self.sp_at = 2 * g * self.sym_bits
        self.p_at = self.sp_at + 1
        self.s1_at = self.p_at + self.p_bits
        self.ext_at = self.s1_at + 1
        self.width = self.ext_at + 2 * g
        self.mask = (1 << self.width) - 1
        self.p_field = ((1 << self.p_bits) - 1) << self.p_at
        # model B raises p on every term, model A only at p = 0, as p^2 = 0
        self.raise_p = model == "B"
        # p has deg3 1 and s1 deg3 2: the one offset that lowers deg3
        self.s1_to_p = (1 << self.p_at) - (1 << self.s1_at) - (1 << self.width)
        self.sp_to_p2 = (2 << self.p_at) - (1 << self.sp_at)
        # per i: the bits of a_i b_i, the ext bits a_(i+1) .. b_(i-1) between
        # them, and the offset that trades s1 for a_i b_i
        self.s1_pairs = tuple(
            (pair, (1 << (g + i)) - (2 << i), (pair << self.ext_at) - (1 << self.s1_at))
            for i in range(g) for pair in [1 << i | 1 << (g + i)])
        # per j: the digit of sym_j, the bit of its a_i or b_i in ext, the
        # ext bits below that, and the offset that trades sym_j for it and p
        self.sym_digits = tuple(
            (at, 1 << j, (1 << j) - 1, (1 << (self.ext_at + j)) + (1 << self.p_at) - (1 << at))
            for j, at in enumerate(self.sym_at))

    def encode(self, m):
        """The code of a monomial, fields in (ext, s1, p, sp, sym) order."""
        ext, s1, p, sp, sym = m
        if len(sym) != 2 * self.g:
            raise ValueError(f"sym has {len(sym)} exponents, not {2 * self.g}")
        fields = [
            ("ext", ext, 2 * self.g, self.ext_at),
            ("s1", s1, 1, self.s1_at),
            ("p", p, self.p_bits, self.p_at),
            ("sp", sp, 1, self.sp_at),
        ]
        fields += [(f"sym_{j + 1}", e, self.sym_bits, at)
                   for j, (e, at) in enumerate(zip(sym, self.sym_at))]
        code = 0
        for name, value, bits, at in fields:
            if not 0 <= value < 1 << bits:
                raise ValueError(f"{name} = {value} does not fit in {bits} bits")
            code |= value << at
        return code

    def decode(self, code):
        """The monomial of a code as a plain tuple in (ext, s1, p, sp, sym)
        order; the bits from ``width`` up are ignored."""
        sym_mask = (1 << self.sym_bits) - 1
        return (
            code >> self.ext_at & (1 << 2 * self.g) - 1,
            code >> self.s1_at & 1,
            code >> self.p_at & (1 << self.p_bits) - 1,
            code >> self.sp_at & 1,
            tuple(code >> at & sym_mask for at in self.sym_at),
        )

    def write(self, source, cleared=()):
        """d of the ``source`` codes, each with its deg3 above ``width``, by
        the Leibniz rule, as (columns, written): one {row key: coeff}
        column per code, in order, and the number of terms written.  A row
        key is the image's code with the image's deg3 above it, so keys sort
        as the target group does.  A code in ``cleared`` gets an empty
        column, and none of its terms is written.  The layout's fields are
        read once per call, so a group costs one call.

        In the canonical order a < b < s1 < p < sp < sa < sb each Koszul
        sign is a parity of exterior bits: d(s1) and d(sp) sit behind ext
        (and s1), and the a_i or b_i brought in by d(sa_i), d(sb_i) or d(s1)
        is sorted into ext.  The index j of sa_1..sa_g, sb_1..sb_g in sym is
        also the bit of the matching a_i or b_i.  Each code's terms come in
        the order d(s1) (its p term first), d(sp), then d(sa_1) .. d(sb_g),
        and model A drops every term with p >= 2.  Only the p term of d(s1)
        lowers deg3, by one; every other term keeps it.  No offset carries
        out of a field for a monomial whose images lie in F_n."""
        ext_at, s1_at, sp_at, raise_all = self.ext_at, self.s1_at, self.sp_at, self.raise_p
        ext_mask, p_field = self.mask >> ext_at, self.p_field
        pairs, digits = self.s1_pairs, self.sym_digits
        s1_to_p, sp_to_p2, sym_mask = self.s1_to_p, self.sp_to_p2, (1 << self.sym_bits) - 1
        columns, written = [], 0
        for code in source:
            column = {}
            columns.append(column)
            if code in cleared:
                continue
            ext = code >> ext_at & ext_mask
            sign = -1 if ext.bit_count() & 1 else 1
            s1 = code >> s1_at & 1
            raise_p = raise_all or not code & p_field
            if s1:
                if raise_p:
                    column[code + s1_to_p] = sign
                    written += 1
                for pair, mid, offset in pairs:
                    if not ext & pair:
                        column[code + offset] = sign if (ext & mid).bit_count() & 1 else -sign
                        written += 1
            if code >> sp_at & 1:
                column[code + sp_to_p2] = -sign if s1 else sign
                written += 1
            if raise_p:
                for at, bit, below, offset in digits:
                    e = code >> at & sym_mask
                    if e and not ext & bit:
                        column[code + offset] = -e if (ext & below).bit_count() & 1 else e
                        written += 1
        return columns, written

    def leibniz(self, code):
        """d of the monomial ``code`` as a list of (coeff, offset), each
        image's code ``code + offset``: the one column that ``write`` writes
        for this code alone, in write order; the bits from ``width`` up are
        ignored."""
        code &= self.mask
        (column,), _ = self.write([code])
        return [(coeff, (key & self.mask) - code) for key, coeff in column.items()]


def differential_monomial(g, model, m):
    """d of a monomial of the model by the Leibniz rule, as a list of
    (coeff, image), each image a plain tuple in (ext, s1, p, sp, sym) order.

    ``_Layout.leibniz``, the rank loop's writer on one monomial: ``m`` is
    coded under the layout of F_deg3(m), which holds its images too, and
    each term decoded."""
    ext, s1, p, sp, sym = m
    layout = _Layout(g, ext.bit_count() + p + 2 * (s1 + sp + sum(sym)), model)
    code = layout.encode(m)
    return [(coeff, layout.decode(code + offset)) for coeff, offset in layout.leibniz(code)]


@lru_cache(maxsize=None)
def _sym_exponents(length, budget):
    """All tuples of ``length`` nonnegative integers with sum <= budget."""
    if length == 0:
        return ((),)
    return tuple(
        (v,) + rest
        for v in range(budget + 1)
        for rest in _sym_exponents(length - 1, budget - v)
    )


def _check_point(g, n, model):
    if g < 0 or n < 0:
        raise ValueError("need g >= 0 and n >= 0")
    if model not in ("A", "B"):
        raise ValueError(f"model must be 'A' or 'B', got {model!r}")


def enumerate_basis(g, n, model="A"):
    """All monomials of third degree <= n, in a deterministic order."""
    _check_point(g, n, model)
    out = []
    for ext in range(1 << (2 * g)):
        for s1 in (0, 1):
            for p in range(2 if model == "A" else n + 1):
                for sp in (0, 1) if model == "B" else (0,):
                    used = ext.bit_count() + 2 * s1 + p + 2 * sp
                    if used <= n:
                        for sym in _sym_exponents(2 * g, (n - used) // 2):
                            out.append((ext, s1, p, sp, sym))
    out.sort()
    return tuple(out)


def _columns(layout, source, target, cleared=()):
    """The columns of the matrix of d from the ``source`` codes, in the
    order given, to the ``target`` codes: ``layout.write``'s one {row key:
    coeff} dict per source member, each code with its deg3 above the
    layout's ``width``.  A member in ``cleared`` gets an empty column, and
    no term of it is written.

    A repeated target member raises ValueError, and an image missing from
    ``target`` KeyError.  Once the columns are written, a zero coefficient
    raises ValueError, and so does a duplicate term, which overwrites an
    entry: the entries kept are compared with the terms written."""
    members = set(target)
    if len(members) != len(target):
        raise ValueError("repeated target monomial")
    columns, written = layout.write(source, cleared)
    if not members.issuperset(chain.from_iterable(columns)):
        raise KeyError(min(set().union(*columns) - members))
    if not all(map(all, map(dict.values, columns))):
        raise ValueError("zero coefficient in d")
    kept = sum(map(len, columns))
    if kept != written:
        raise ValueError(f"{kept} entries written for {written} terms")
    return columns


def _matrix(layout, source, target):
    """The dump's matrix of d from the ``source`` codes to the ``target``
    codes: every column from ``_columns``, none cleared, transposed into a
    ``SparseIntMatrix`` with one row per target member, in basis order."""
    row_at = {code: r for r, code in enumerate(sorted(target, key=layout.mask.__and__))}
    rows = {}
    for col, column in enumerate(_columns(layout, source, target)):
        for key, coeff in column.items():
            rows.setdefault(row_at[key], {})[col] = coeff
    return SparseIntMatrix(len(target), len(source), rows)


def _coordinate_states(n):
    """The parts (a_i, b_i, sa_i, sb_i) of one coordinate i of a monomial of
    deg3 <= n with weight a - b + sa - sb >= 0, as lists indexed by that
    weight of (deg3, deg1, deg2, a, b, sa, sb), each sorted by deg3.  A
    part's weight never exceeds its deg3 a + b + 2 sa + 2 sb."""
    by_weight = [[] for _ in range(n + 1)]
    for sa in range(n // 2 + 1):
        for sb in range((n - 2 * sa) // 2 + 1):
            for a in (0, 1):
                for b in (0, 1):
                    d3 = a + b + 2 * (sa + sb)
                    w = a - b + sa - sb
                    if d3 <= n and w >= 0:
                        by_weight[w].append((d3, a + b + sa + sb, sa + sb, a, b, sa, sb))
    for parts in by_weight:
        parts.sort()
    return by_weight


def _dominant_groups(g, n, model, floor):
    """The monomials of F_n whose torus weight is dominant, grouped by
    ((deg1, deg2), weight), for the groups with deg1 + deg2 >= floor
    only; floor 0 gives every group.  Each member is its code under
    ``_Layout(g, n, model)`` with deg3 above the layout's width, so each
    group, sorted, is in (deg3, basis) order.

    Built one coordinate at a time: coordinate i takes a part of weight
    w_i <= w_(i-1) from ``_coordinate_states``, and s1, p and sp come last,
    so no monomial of another weight is ever made.  The part table has
    O(n^2) entries; genus 0 has no coordinates and never builds it.

    A part of a coordinate adds as much to deg1 + deg2 as to deg3, and the
    factor s1 p^p sp adds 2p + 3sp + s1 to deg1 + deg2.  So a prefix of all
    g coordinates below the floor takes only the factors that lift it
    there, listed once per deg3, and a group is made whole or not at all.
    With floor = top, a grow from top makes only the groups that can hold
    a member of deg3 > top: deg3 = deg1 + deg2 - p - sp + s1 <= deg1 +
    deg2 + 1.

    Members go into one {(deg1, deg2): members} bucket per weight, fetched
    once per prefix, so each member costs one lookup and one append, and a
    list is made only for a new group.  The order of the returned keys
    carries no meaning.
    """
    _check_point(g, n, model)
    layout = _Layout(g, n, model)
    # (deg3, deg1, deg2, code of ext and sym, weight)
    prefixes = [(0, 0, 0, 0, ())]
    if g:
        by_weight = _coordinate_states(n)
        for i in range(g):
            a, b = 1 << (layout.ext_at + i), 1 << (layout.ext_at + g + i)
            sa_at, sb_at = layout.sym_at[i], layout.sym_at[g + i]
            # (deg3, deg1, deg2, code) of each part at coordinate i
            parts = [
                [(c3, c1, c2, ai * a | bi * b | x << sa_at | y << sb_at)
                 for c3, c1, c2, ai, bi, x, y in states]
                for states in by_weight
            ]
            grown = []
            for d3, d1, d2, code, w in prefixes:
                room = n - d3
                for wi in range(min(w[-1] if w else n, room) + 1):
                    for c3, c1, c2, part in parts[wi]:
                        if c3 > room:
                            break
                        grown.append((d3 + c3, d1 + c1, d2 + c2, code | part, w + (wi,)))
            prefixes = grown
    # (deg3, deg1, deg2, code with deg3 above it) of the s1 p^p sp factor
    width = layout.width
    tails = []
    for s1 in (0, 1):
        for p in range(2 if model == "A" else n + 1):
            for sp in (0, 1) if model == "B" else (0,):
                t3 = 2 * s1 + p + 2 * sp
                code = t3 << width | s1 << layout.s1_at | p << layout.p_at | sp << layout.sp_at
                tails.append((t3, 2 * p + 2 * sp, s1 + sp, code))
    tails.sort()
    lifted = {}  # deg3 below the floor -> the factors that lift a prefix to it
    buckets = {}  # weight -> {(deg1, deg2): members}
    for d3, d1, d2, code, w in prefixes:
        factors = tails
        if d3 < floor:
            factors = lifted.get(d3)
            if factors is None:
                factors = lifted[d3] = [tail for tail in tails if d3 + tail[1] + tail[2] >= floor]
            if not factors:
                continue
        bucket = buckets.setdefault(w, {})
        code |= d3 << width
        for t3, t1, t2, tail in factors:
            if d3 + t3 > n:
                break
            members = bucket.get((d1 + t1, d2 + t2))
            if members is None:
                members = bucket[d1 + t1, d2 + t2] = []
            members.append(code + tail)
    groups = {}
    for w, bucket in buckets.items():
        for block, members in bucket.items():
            members.sort()
            groups[block, w] = members
    return groups


class _Store:
    """The step functions of one genus and model: for every
    ((deg1, deg2), dominant weight) group of F_top, one flat tuple that
    holds the deg3 of its k members in increasing order, then, for each
    j < k, the rank of d on the first j + 1 of them, read off one column
    reduction of the group's matrix.

    F_n holds the members of deg3 <= n, and d never raises deg3, so the F_n
    matrix of d on a group is the column prefix of deg3 <= n of its F_top
    matrix, whose other rows are zero there.  A call at any n <= top reads
    each group's count and rank off its tuple by bisection.  The groups are
    kept in order of their least deg3, so that a call at n stops at the
    first group with no member in F_n.  ``last`` holds the (n, result) of
    the latest read, which a repeat call at the same n returns as is.

    ``pivots`` holds, for a group that can still gain a member and has no
    member below top - 1, the {low: pivot column} of its reduction, under
    the layout of field width ``width``, so that a grow reduces only the
    columns of its new members.  A group of deg1 + deg2 = k has members of
    deg3 <= k + 1, so it can gain one above top only when k >= top.  In
    model A, where deg3 >= k - 1, that is every such group.  Model B's
    powers of p reach down to deg3 near top / 2, and those deeper groups
    are rebuilt instead: on the benchmark's model B points, keeping their
    pivots too raised the peak memory by 5 %, and saved 0.4 % of the
    columns.
    """

    __slots__ = ("top", "steps", "last", "pivots", "width")

    def __init__(self):
        self.top = -1
        self.steps = {}
        self.last = (-1, None)
        self.pivots = {}
        self.width = -1

    def grow(self, g, n, model, write=None):
        """Cover F_n: enumerate the groups of deg1 + deg2 >= top, the only
        ones that can hold a member of deg3 > top, and reduce the columns
        of each group's members of deg3 > top.  Every other group keeps its
        tuple.  Its members all lie in F_top, and so do their images, since
        d never raises deg3, so its F_n matrix is its F_top matrix plus
        zero rows for the members its target gains; and it is a group of
        F_top with the same members.  On an empty store (top = -1) every
        group is built.  Each group's columns from ``_columns`` go straight
        to ``reduce_columns``, with no matrix object between them.  Only
        when ``write`` is given does ``_matrix`` build each group's whole
        matrix, which ``write(key, matrix)`` receives before the reduction.

        A group with kept pivots resumes its reduction: only its new
        members' columns are written and reduced, into those pivots, and
        its old prefix ranks are read off its tuple.  This is exact.  A new
        member sorts after every old one, since deg3 sits above the code.
        An old member's image lies in F_top, so no old column has an entry
        in a new row, and the old ranks stand.  Any other group with a new
        member is rebuilt whole, from no pivots.  The kept pivots are
        dropped when the layout's field widths change, since they hold
        codes, and when the group can no longer gain a member or has one
        below n - 1.

        The groups are reduced in increasing deg1, so a group's source
        comes before it in its chain.  A group's new columns are cleared
        at the lows of its source when that source was reduced in this
        grow: those members get empty columns.  Otherwise it gets no
        clearing.  An old low of a resumed source is an old member of the
        group, whose column is not written again.

        The groups come as codes under this call's ``_Layout`` with deg3
        above them, sorted, so a member's deg3 is one shift and the columns
        are already in (deg3, basis) order.

        A rebuilt group of deg2 > deg1 + 1 raises ArithmeticError: deg2 -
        deg1 = s1 - |ext| - 2p - sp <= 1, since s1 is exterior, which puts
        every cell of degree k at weight h <= (3k + 1) / 2."""
        layout = _Layout(g, n, model)
        width, top = layout.width, self.top
        if width != self.width:
            self.pivots = {}
        kept = self.pivots

        def keeps(key):
            # can still gain a member, and has none below n - 1
            return sum(key[0]) >= n and self.steps[key][0] >= n - 1

        fresh = _dominant_groups(g, n, model, top)
        lows = {}  # target key -> the pivots of its source, reduced in this grow
        for key in sorted(fresh):
            source = fresh[key]
            if source[-1] >> width <= top:
                continue
            (d1, d2), w = key
            if d2 > d1 + 1:
                raise ArithmeticError(
                    f"bidegree bound deg2 <= deg1 + 1 violated at (block, weight) = {key}"
                )
            pivots = kept.pop(key, None)
            if pivots is None:
                pivots, old, new = {}, 0, source
            else:
                old = len(self.steps[key]) // 2
                new = source[old:]
            target_key = (d1 + 2, d2 - 1), w
            target = fresh.get(target_key)
            if target:
                if write:
                    write(key, _matrix(layout, source, target))
                columns = _columns(layout, new, target, lows.pop(key, ()))
                ranks, lows[target_key] = reduce_columns(columns, len(target), pivots)
            else:
                ranks = [0] * len(new)
            deg3 = [m >> width for m in new]
            if old:
                step = self.steps[key]
                deg3[:0], ranks[:0] = step[:old], step[old:]
            self.steps[key] = (*deg3, *ranks)
            if keeps(key):
                kept[key] = pivots
        # a group new to the store joins at the end: restore the order of
        # least deg3, all that the walk needs
        least = list(map(itemgetter(0), self.steps.values()))
        if any(map(gt, least, least[1:])):
            self.steps = dict(sorted(self.steps.items(), key=lambda item: item[1][0]))
        self.pivots = {key: pivots for key, pivots in kept.items() if keeps(key)}
        self.top, self.width = n, width


@lru_cache(maxsize=None)
def _store(g, model):
    """The one ``_Store`` of a genus and model, grown as calls reach a
    larger n."""
    return _Store()


def _cohomology_by_weight(g, n, model="A"):
    """The per-block characters {(deg1, deg2): {dominant weight: dim}} of
    H(F_n), blocks sorted and zero dims dropped: a group's members, minus
    the rank of d on them, minus the rank of d into them.

    A call at n <= top reads every group off the store in one walk; a call
    at n > top first grows the store to n.  A repeat call at the same n
    returns the same dict, which every reader shares: do not mutate it."""
    _check_point(g, n, model)
    store = _store(g, model)
    if store.last[0] == n:
        return store.last[1]
    if n > store.top:
        store.grow(g, n, model)
    dims, images = {}, []
    for key, step in store.steps.items():
        if step[0] > n:
            break
        k = len(step) // 2
        count = bisect_right(step, n, 0, k)
        image = step[k + count - 1]
        dims[key] = count - image
        if image:
            images.append((key, image))
    # d maps a group into the group of (deg1 + 2, deg2 - 1) and its weight,
    # which has a member in F_n whenever the image is not zero
    for ((d1, d2), w), image in images:
        dims[(d1 + 2, d2 - 1), w] -= image
    if dims and min(dims.values()) < 0:
        key = min(dims, key=dims.get)
        raise ArithmeticError(
            f"negative cohomology dimension {dims[key]} at (block, weight) = "
            f"{key}: ranks exceed its monomials"
        )
    chars = {}
    for (block, w), dim in dims.items():
        if dim:
            chars.setdefault(block, {})[w] = dim
    result = dict(sorted(chars.items()))
    store.last = (n, result)
    return result


def cohomology_dims(g, n, model="A"):
    """Bigraded cohomology dimensions of F_n as a map (deg1, deg2) -> dim,
    each dominant weight of a block counted once per member of its orbit."""
    return {
        block: sum(orbit_size(w) * dim for w, dim in char.items())
        for block, char in _cohomology_by_weight(g, n, model).items()
    }


def cohomology_weights(g, n):
    """Per-block characters of the cohomology of F_n (model A): each block's
    torus character as a {dominant weight: dim} dict, the dominant part
    that stands for every weight of its Weyl orbit.  The dict is the
    store's own, shared by every call at this n: do not change it."""
    return _cohomology_by_weight(g, n, "A")


@lru_cache(maxsize=None)
def _peel(g, items):
    """``peel_character`` of the character with the given (weight, mult)
    items, once per process for each (genus, items)."""
    return peel_character(g, dict(items))


def cohomology_reps(g, n, max_genus=None):
    """MixedTable of the brute-force cohomology: regrade each block by
    (k, h) = (deg1 + deg2, deg1 + 2*deg2) and peel its character.

    A block of weight h is the same for every n >= h, so a sweep meets each
    character many times.  Peels are kept for the life of the process, keyed
    by (genus, frozenset of the character's (weight, mult) items): each
    distinct character is peeled once, and every table holding it shares
    that one VirtualRep, which never changes, so its dimension is summed
    once too.  A peel that raises is not kept and raises again on the next
    call.

    ``max_genus`` is accepted and ignored; characters have no genus limit.
    """
    entries = {}
    for (d1, d2), char in cohomology_weights(g, n).items():
        entries[(d1 + d2, d1 + 2 * d2)] = _peel(g, frozenset(char.items()))
    return MixedTable(g, n, entries).validate()


def dump_blocks(g, n, model, dirpath):
    """Write the matrix of d on every ((deg1, deg2), dominant weight) group
    of F_n that has a target, one Matrix Market file per group, named
    ``g{g}_n{n}_{model}_d{deg1}_{deg2}_w{w1.w2...}.mtx``, rows in basis
    order and columns sorted by deg3, then in basis order; a dominant
    weight's matrix stands for its whole Weyl orbit.  The files are the
    whole matrices that a fresh store reduces as it grows to n, cleared
    columns included; it then serves the genus and model.  Returns the
    paths written, in key order."""
    os.makedirs(dirpath, exist_ok=True)
    paths = {}

    def write(key, matrix):
        (d1, d2), w = key
        name = f"g{g}_n{n}_{model}_d{d1}_{d2}_w{'.'.join(map(str, w))}.mtx"
        paths[key] = path = os.path.join(dirpath, name)
        write_matrix_market(matrix, path)

    fresh = _Store()
    fresh.grow(g, n, model, write)
    store = _store(g, model)
    for name in _Store.__slots__:
        setattr(store, name, getattr(fresh, name))
    return [paths[key] for key in sorted(paths)]
