"""Exact rank and kernel computation for sparse integer matrices.

Elimination is fraction-free: target rows are cross-multiplied with the
pivot row and re-normalized by their gcd, so every intermediate value is
an integer and the result is exact.  Pivots are chosen Markowitz-style
(least expected fill-in) with ties broken by lowest (row, col), which
makes the computation deterministic.

A dense Bareiss elimination is kept as an independent reference for
small matrices.
"""

from math import gcd


class SparseIntMatrix:
    """Integer matrix stored as row -> {col: value}; zeros are never stored."""

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, n_rows, n_cols, entries=()):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative matrix dimensions")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.rows = {}
        for r, c, v in entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"entry ({r}, {c}) outside {n_rows}x{n_cols}")
            if v == 0:
                continue
            row = self.rows.setdefault(r, {})
            if c in row:
                raise ValueError(f"duplicate entry at ({r}, {c})")
            row[c] = v

    def entries(self):
        """Yield (row, col, value) sorted by (row, col)."""
        for r in sorted(self.rows):
            row = self.rows[r]
            for c in sorted(row):
                yield r, c, row[c]

    def nnz(self):
        return sum(len(row) for row in self.rows.values())

    def transpose(self):
        return SparseIntMatrix(
            self.n_cols, self.n_rows, ((c, r, v) for r, c, v in self.entries())
        )

    @classmethod
    def from_dense(cls, dense):
        n_rows = len(dense)
        n_cols = len(dense[0]) if n_rows else 0
        return cls(
            n_rows,
            n_cols,
            (
                (r, c, v)
                for r, row in enumerate(dense)
                for c, v in enumerate(row)
                if v
            ),
        )

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
    """Exact rank of ``m`` over the rationals.

    >>> rank(SparseIntMatrix.from_dense([[1, 2], [2, 4]]))
    1
    """
    rows = {r: dict(cs) for r, cs in m.rows.items() if cs}
    cols = {}
    for r, cs in rows.items():
        for c in cs:
            cols.setdefault(c, set()).add(r)
    rk = 0
    while rows:
        # Markowitz pivot: minimize (row_nnz - 1)*(col_nnz - 1),
        # ties broken by lowest (row, col).
        best = None
        for r in sorted(rows):
            rn = len(rows[r]) - 1
            for c in sorted(rows[r]):
                cost = rn * (len(cols[c]) - 1)
                key = (cost, r, c)
                if best is None or key < best:
                    best = key
                if cost == 0 and best[0] == 0:
                    break
            if best is not None and best[0] == 0 and best[1] == r:
                break
        _, pr, pc = best
        piv = rows[pr][pc]
        prow = rows.pop(pr)
        for c in prow:
            cols[c].discard(pr)
            if not cols[c]:
                del cols[c]
        for r2 in sorted(cols.get(pc, ())):
            row2 = rows[r2]
            f = row2.pop(pc)
            # row2 <- piv*row2 - f*prow; scaling by a nonzero integer and
            # adding a multiple of the pivot row preserves the row span.
            for c2 in row2:
                row2[c2] *= piv
            for c2, v in prow.items():
                if c2 == pc:
                    continue
                nv = row2.get(c2, 0) - f * v
                if nv:
                    row2[c2] = nv
                    cols.setdefault(c2, set()).add(r2)
                elif c2 in row2:
                    del row2[c2]
                    cols[c2].discard(r2)
                    if not cols[c2]:
                        del cols[c2]
            if row2:
                d = 0
                for v in row2.values():
                    d = gcd(d, v)
                if d > 1:
                    for c2 in row2:
                        row2[c2] //= d
            else:
                del rows[r2]
        if pc in cols:
            del cols[pc]
        rk += 1
    return rk


def kernel_dim(m):
    """Dimension of the right kernel: n_cols - rank."""
    return m.n_cols - rank(m)


def rank_dense_bareiss(dense):
    """Rank by dense fraction-free (Bareiss) elimination; reference path."""
    a = [list(map(int, row)) for row in dense]
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    prev = 1
    rk = 0
    r0 = 0
    for c in range(n_cols):
        if r0 >= n_rows:
            break
        pr = None
        for r in range(r0, n_rows):
            if a[r][c]:
                pr = r
                break
        if pr is None:
            continue
        a[r0], a[pr] = a[pr], a[r0]
        piv = a[r0][c]
        for r in range(r0 + 1, n_rows):
            f = a[r][c]
            for c2 in range(c + 1, n_cols):
                a[r][c2] = (piv * a[r][c2] - f * a[r0][c2]) // prev
            a[r][c] = 0
        prev = piv
        rk += 1
        r0 += 1
    return rk


def write_matrix_market(m, path):
    """Write ``m`` in Matrix Market coordinate integer format."""
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate integer general\n")
        f.write(f"{m.n_rows} {m.n_cols} {m.nnz()}\n")
        for r, c, v in m.entries():
            f.write(f"{r + 1} {c + 1} {v}\n")


def read_matrix_market(path):
    """Read a Matrix Market coordinate integer file."""
    with open(path) as f:
        header = f.readline()
        if "coordinate" not in header:
            raise ValueError("not a coordinate Matrix Market file")
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        n_rows, n_cols, nnz = map(int, line.split())
        entries = []
        for _ in range(nnz):
            r, c, v = f.readline().split()
            entries.append((int(r) - 1, int(c) - 1, int(v)))
    return SparseIntMatrix(n_rows, n_cols, entries)
