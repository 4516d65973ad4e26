"""Exact ranks of sparse integer matrices, and their Matrix Market output.

``prefix_ranks`` is the one elimination: it takes the rows as plain
{col: value} dicts, with no matrix object around them, and gives the rank
of every leading block of columns at once.  ``rank`` is its last entry on
a ``SparseIntMatrix``, the checked matrix that the dump writes and the
tests build.  Elimination is fraction-free, so every intermediate value
is an integer and the result is exact.  Each row is reduced at its lowest
column by the pivot row that leads there, as piv*row - f*prow scaled down
by gcd(piv, f).  The multiplier is made positive, so only a row scaled by
a factor above 1 is divided by its content, the gcd of its entries, which
keeps the entries small.  The order is deterministic; the ranks do not
depend on it."""

from itertools import accumulate
from math import gcd


class SparseIntMatrix:
    """Integer matrix stored as row -> {col: value}; zeros and empty rows
    are never stored.

    ``SparseIntMatrix(n_rows, n_cols, rows)`` takes a {row: {col: value}}
    dict and takes its row dicts over, not copied, dropping the empty ones.
    It raises ValueError on a negative shape, a row or column index outside
    it or a zero value, each checked over whole rows at once.  The rank
    path never builds one: ``dga`` eliminates the rows ``dga._matrix``
    returns as they are, and wraps them only for ``dump_blocks``; the tests
    build the rest.
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


def prefix_ranks(rows, n_cols):
    """The rank of each leading block of columns over the rationals of the
    matrix with the given rows, each a {col: value} dict with every col
    below ``n_cols``: entry k is the rank of columns 0..k.  Empty rows are
    skipped, and no row is modified.

    One elimination inserts the rows in order, each reduced at its lowest
    column against the pivot row that leads there, and kept as a new pivot
    once it leads at a free column.  Row operations keep the rank of every
    column prefix, and the pivot rows lead at distinct columns, so the rank
    of columns 0..k is the number of pivots that lead at k or below.
    Each reduction is a*row - b*prow, and the multiplier a is made
    positive, so only a row scaled by a factor above 1 is divided by its
    content.

    >>> prefix_ranks([{0: 1, 1: 2}, {}, {0: 2, 1: 4, 2: 1}], 3)
    [1, 1, 2]
    """
    pivots = {}  # leading column -> pivot row
    for row in filter(None, rows):
        if len(pivots) == n_cols:
            break  # the rank is full: every later row reduces to zero
        c = min(row)
        prow = pivots.get(c)
        if prow is not None:
            row = dict(row)  # reduced in place; the caller keeps its own row
        while prow is not None:
            # row <- a*row - b*prow clears column c; scaling by a nonzero
            # integer and adding a multiple of a pivot keeps the row span,
            # and so does negating both, which makes a > 0.
            piv = prow[c]
            f = row.pop(c)
            d = gcd(piv, f)
            a, b = piv // d, f // d
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in prow.items():
                if k != c:
                    nv = row.get(k, 0) - b * v
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
            if not row:
                break
            if a != 1:
                d = gcd(*row.values())
                if d > 1:
                    for k in row:
                        row[k] //= d
            c = min(row)
            prow = pivots.get(c)
        else:
            pivots[c] = row
    leads = [0] * n_cols
    for c in pivots:
        leads[c] = 1
    return list(accumulate(leads))


def rank(m):
    """Exact rank of ``m`` over the rationals: the prefix rank of all its
    columns; ``m`` is left unchanged.

    >>> rank(SparseIntMatrix.from_dense([[1, 2], [2, 4]]))
    1
    """
    return prefix_ranks(m.rows.values(), m.n_cols)[-1] if m.n_cols else 0


def write_matrix_market(m, path):
    """Write ``m`` in Matrix Market coordinate integer format."""
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate integer general\n")
        f.write(f"{m.n_rows} {m.n_cols} {m.nnz()}\n")
        for r, c, v in m.entries():
            f.write(f"{r + 1} {c + 1} {v}\n")
