"""Exact ranks of sparse integer matrices, and their Matrix Market output.

``reduce_columns`` is the one elimination: the column reduction of
persistent homology.  It takes the columns as plain {row: value} dicts,
with no matrix object around them, reduces them left to right, and gives
the rank of every leading block of columns at once, with the pivot
columns keyed by their lows, the rows at which the reduced columns end.
It extends the pivot dict it is given, so a reduction can resume where an
earlier one stopped: ``dga`` keeps a group's pivots and later reduces only
the columns that its new members add.  ``dga`` also passes a column that
is known to reduce to zero as an empty one (clearing), which adds nothing
to the rank.  ``rank`` reduces the rows of a ``SparseIntMatrix``, the
checked matrix that the dump writes and the tests build, as columns,
since a matrix and its transpose have the same rank.  The reduction is
fraction-free, so every intermediate value is an integer and the result
is exact.  Each column is reduced at its low, its largest row, by the
pivot column that ends there, as piv*col - f*pcol scaled down by
gcd(piv, f).  The multiplier is made positive, so only a column scaled by
a factor above 1 is divided by its content, the gcd of its entries, which
keeps the entries small.  The order is deterministic, and neither the
ranks nor the lows depend on the order of the rows within a column.

>>> pivots = {}
>>> reduce_columns([{0: 2, 1: 1}, {0: 4, 1: 2}], 3, pivots)[0]
[1, 1]
>>> ranks, pivots = reduce_columns([{2: 1}, {1: 1}], 3, pivots)
>>> ranks, sorted(pivots)
([2, 3], [0, 1, 2])
"""

from math import gcd


class SparseIntMatrix:
    """Integer matrix stored as row -> {col: value}; zeros and empty rows
    are never stored.

    ``SparseIntMatrix(n_rows, n_cols, rows)`` takes a {row: {col: value}}
    dict and takes its row dicts over, not copied, dropping the empty ones.
    It raises ValueError on a negative shape, a row or column index outside
    it or a zero value, each checked over whole rows at once.  The rank
    path never builds one: ``dga`` reduces the columns ``dga._columns``
    returns as they are, and ``dga._matrix`` transposes them into one only
    for ``dump_blocks``; the tests build the rest.
    """

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, n_rows, n_cols, rows=None):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative matrix dimensions")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.rows = rows = {r: row for r, row in rows.items() if row} if rows else {}
        if rows and not (0 <= min(rows) and max(rows) < n_rows):
            raise ValueError(f"a row index falls outside {n_rows}x{n_cols}")
        if rows and not (
            0 <= min(map(min, rows.values())) and max(map(max, rows.values())) < n_cols
        ):
            raise ValueError(f"a column index falls outside {n_rows}x{n_cols}")
        if not all(map(all, map(dict.values, rows.values()))):
            raise ValueError("zero entry")

    def entries(self):
        """Yield (row, col, value) sorted by (row, col)."""
        for r in sorted(self.rows):
            row = self.rows[r]
            for c in sorted(row):
                yield r, c, row[c]

    def nnz(self):
        return sum(map(len, self.rows.values()))

    @classmethod
    def from_dense(cls, dense):
        n_rows = len(dense)
        n_cols = len(dense[0]) if n_rows else 0
        rows = {r: {c: v for c, v in enumerate(row) if v} for r, row in enumerate(dense)}
        return cls(n_rows, n_cols, rows)

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"SparseIntMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz()})"


def reduce_columns(columns, n_rows, pivots):
    """Reduce the given columns, each a {row: value} dict with at most
    ``n_rows`` distinct rows among them all, left to right over the
    rationals, against ``pivots``, a {low: pivot column} dict that the
    reduction extends, and return (ranks, pivots): entry k of ranks is the
    rank of the pivots passed in and columns 0..k together, and the keys
    of pivots are the lows, the rows at which the reduced columns end.
    Empty columns add nothing, and no column is modified; a column kept as
    a pivot unreduced is the caller's own dict.

    Reducing columns [0, k) into an empty dict, then [k, m) into the same
    dict, gives the ranks and the pivots of one reduction of [0, m): each
    column is reduced against the pivots of the columns before it only,
    whichever call reduced them.

    Each column is reduced at its low, its largest row, against the pivot
    column that ends there, until it is zero or ends at a free row, where
    it is kept as a new pivot.  Column operations keep the span of every
    column prefix, and the pivot columns end at distinct rows, so the rank
    of columns 0..k is the number of pivots kept among them.  Once the
    pivots fill all ``n_rows`` rows, every later column lies in their span
    and is passed over.  Each reduction is a*col - b*pcol, and the
    multiplier a is made positive, so only a column scaled by a factor
    above 1 is divided by its content.

    >>> reduce_columns([{0: 1, 1: 2}, {}, {0: 2, 1: 4}, {2: 1}], 3, {})
    ([1, 1, 1, 2], {1: {0: 1, 1: 2}, 2: {2: 1}})
    """
    ranks = []
    for col in columns:
        if col and len(pivots) < n_rows:
            r = max(col)
            pcol = pivots.get(r)
            if pcol is not None:
                col = dict(col)  # reduced in place; the caller keeps its own column
            while pcol is not None:
                # col <- a*col - b*pcol clears row r; scaling by a nonzero
                # integer and adding a multiple of a pivot keeps the span,
                # and so does negating both, which makes a > 0.
                piv = pcol[r]
                f = col.pop(r)
                d = gcd(piv, f)
                a, b = piv // d, f // d
                if a < 0:
                    a, b = -a, -b
                if a != 1:
                    for k in col:
                        col[k] *= a
                for k, v in pcol.items():
                    if k != r:
                        nv = col.get(k, 0) - b * v
                        if nv:
                            col[k] = nv
                        else:
                            del col[k]
                if not col:
                    break
                if a != 1:
                    d = gcd(*col.values())
                    if d > 1:
                        for k in col:
                            col[k] //= d
                r = max(col)
                pcol = pivots.get(r)
            else:
                pivots[r] = col
        ranks.append(len(pivots))
    return ranks, pivots


def rank(m):
    """Exact rank of ``m`` over the rationals: its rows reduced as columns,
    since a matrix and its transpose have the same rank; ``m`` is left
    unchanged.

    >>> rank(SparseIntMatrix.from_dense([[1, 2], [2, 4]]))
    1
    """
    ranks, _ = reduce_columns(m.rows.values(), m.n_cols, {})
    return ranks[-1] if ranks else 0


def write_matrix_market(m, path):
    """Write ``m`` in Matrix Market coordinate integer format."""
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate integer general\n")
        f.write(f"{m.n_rows} {m.n_cols} {m.nnz()}\n")
        for r, c, v in m.entries():
            f.write(f"{r + 1} {c + 1} {v}\n")
