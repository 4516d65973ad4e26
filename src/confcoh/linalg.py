"""Exact rank of sparse integer matrices, and their Matrix Market output.

Elimination is fraction-free, so every intermediate value is an integer
and the result is exact.  Each step pivots on the lowest column of the
shortest remaining row (the earliest such row on a tie), which keeps
fill-in low on the sparse differential blocks.  Every other row with an
entry in that column becomes piv*row - f*prow and is divided by its
content, the gcd of its entries, so the entries stay small.  The order is
deterministic; the rank does not depend on it.
"""

from math import gcd


class SparseIntMatrix:
    """Integer matrix stored as row -> {col: value}; zeros and empty rows
    are never stored.

    ``SparseIntMatrix(n_rows, n_cols, rows)`` takes a {row: {col: value}}
    dict and takes its row dicts over, not copied, dropping the empty ones.
    It raises ValueError on a negative shape, a row index outside it or a
    zero value, each checked over whole rows at once.  Column indices are
    taken as given, so the caller must write them below ``n_cols``: the
    program's one writer, ``dga._matrix``, numbers its columns by
    enumerating its source, and a bound check on every row measurably slows
    the brute force on model B.
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


def rank(m):
    """Exact rank of ``m`` over the rationals; ``m`` is left unchanged.

    >>> rank(SparseIntMatrix.from_dense([[1, 2], [2, 4]]))
    1
    """
    rows = [dict(m.rows[r]) for r in sorted(m.rows) if m.rows[r]]
    rk = 0
    while rows:
        prow = min(rows, key=len)  # the first of the shortest rows
        pc = min(prow)
        piv = prow[pc]
        rest = []
        for row in rows:
            if row is prow:
                continue
            f = row.pop(pc, 0)
            if f:
                # row <- piv*row - f*prow; scaling by a nonzero integer and
                # adding a multiple of the pivot row preserves the row span.
                for c in row:
                    row[c] *= piv
                for c, v in prow.items():
                    if c != pc:
                        nv = row.get(c, 0) - f * v
                        if nv:
                            row[c] = nv
                        else:
                            del row[c]
                if not row:
                    continue
                d = gcd(*row.values())
                if d > 1:
                    for c in row:
                        row[c] //= d
            rest.append(row)
        rows = rest
        rk += 1
    return rk


def write_matrix_market(m, path):
    """Write ``m`` in Matrix Market coordinate integer format."""
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate integer general\n")
        f.write(f"{m.n_rows} {m.n_cols} {m.nnz()}\n")
        for r, c, v in m.entries():
            f.write(f"{r + 1} {c + 1} {v}\n")
