import random

import pytest

from confcoh import dga
from confcoh.linalg import SparseIntMatrix, prefix_ranks, rank, write_matrix_market
from reference import (
    clear_brute_force_caches,
    from_entries,
    rank_dense_bareiss,
    read_matrix_market,
    transpose,
)
from test_dga import sweep_points


def test_identity_rank():
    m = SparseIntMatrix.from_dense([[1, 0], [0, 1]])
    assert rank(m) == 2


def test_rank_one():
    m = SparseIntMatrix.from_dense([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_zero_matrix_kernel():
    m = SparseIntMatrix(4, 5)
    assert rank(m) == 0
    assert m.n_cols - rank(m) == 5


def test_identity_kernel():
    m = SparseIntMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.n_cols - rank(m) == 0


def test_duplicate_entry_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        from_entries(2, 2, [(0, 0, 1), (0, 0, 2)])


def test_zero_entries_not_stored():
    m = SparseIntMatrix.from_dense([[0, 0], [0, 3]])
    assert m.nnz() == 1
    assert m.rows == {1: {1: 3}}


def test_constructor_drops_empty_rows():
    rows = {0: {1: 5}, 1: {}, 2: {3: -7, 0: 1}}
    m = SparseIntMatrix(3, 4, rows)
    assert m == from_entries(3, 4, [(0, 1, 5), (2, 3, -7), (2, 0, 1)])
    assert sorted(m.rows) == [0, 2]  # the empty row is not stored
    assert m.rows[2] is rows[2]  # the row dicts are taken over


@pytest.mark.parametrize(
    "rows, match",
    [
        pytest.param({0: {0: 0}}, "zero", id="zero"),
        pytest.param({2: {0: 1}}, "row", id="row-past-the-end"),
        pytest.param({-1: {0: 1}}, "row", id="negative-row"),
        pytest.param({0: {2: 1}}, r"column index falls outside 2x2", id="column-at-n_cols"),
        pytest.param({1: {-1: 1}}, r"column index falls outside 2x2", id="negative-column"),
    ],
)
def test_constructor_rejects(rows, match):
    with pytest.raises(ValueError, match=match):
        SparseIntMatrix(2, 2, rows)


def test_constructor_rejects_negative_shape():
    for shape in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="negative"):
            SparseIntMatrix(*shape)


@pytest.mark.parametrize(
    "triples",
    [
        pytest.param([(2, 0, 1)], id="row-out-of-range"),
        pytest.param([(-1, 0, 1)], id="negative-row"),
        pytest.param([(0, 2, 1)], id="col-out-of-range"),
        pytest.param([(0, -1, 1)], id="negative-col"),
    ],
)
def test_from_entries_rejects(triples):
    with pytest.raises(ValueError):
        from_entries(2, 2, triples)


def _random_dense(rng, n_rows, n_cols, values):
    return [[rng.choice(values) for _ in range(n_cols)] for _ in range(n_rows)]


def test_rank_matches_dense_reference():
    rng = random.Random(2024)
    values = [0, 0, 0, 1, -1, 2, -2, 3]
    for _ in range(400):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        dense = _random_dense(rng, nr, nc, values)
        assert rank(SparseIntMatrix.from_dense(dense)) == rank_dense_bareiss(dense)


def test_rank_matches_dense_reference_larger():
    rng = random.Random(7)
    values = [0] * 10 + [1, -1, 2, -2, 5]
    for _ in range(12):
        nr, nc = rng.randint(40, 120), rng.randint(40, 120)
        dense = _random_dense(rng, nr, nc, values)
        assert rank(SparseIntMatrix.from_dense(dense)) == rank_dense_bareiss(dense)


def test_rank_matches_dense_reference_200():
    rng = random.Random(17)
    values = [0] * 12 + [1, -1, 2, -2]
    dense = _random_dense(rng, 200, 200, values)
    assert rank(SparseIntMatrix.from_dense(dense)) == rank_dense_bareiss(dense)


def _dense(m):
    return [[m.rows.get(r, {}).get(c, 0) for c in range(m.n_cols)] for r in range(m.n_rows)]


def test_rank_matches_dense_reference_on_differential_blocks(monkeypatch):
    # every matrix the store eliminates at the sweep points and at genus 1
    # n = 24 in model A, each point grown from an empty store: the rank of
    # each column prefix, and rank, against the dense rank of that prefix
    eliminated = []

    def recording(rows, n_cols):
        before = [dict(row) for row in rows]
        got = prefix_ranks(rows, n_cols)
        assert rows == before  # the elimination leaves every row unchanged
        eliminated.append((SparseIntMatrix(len(rows), n_cols, dict(enumerate(rows))), got))
        return got

    monkeypatch.setattr(dga, "prefix_ranks", recording)
    try:
        for g, n, model in sweep_points() + [(1, 24, "A")]:
            clear_brute_force_caches()
            dga.cohomology_dims(g, n, model)
    finally:
        clear_brute_force_caches()
    assert len(eliminated) > 1000
    for m, got in eliminated:
        dense = _dense(m)
        want = [rank_dense_bareiss([row[:k] for row in dense]) for k in range(1, m.n_cols + 1)]
        assert got == want
        assert rank(m) == want[-1]


def test_prefix_ranks_of_random_matrices():
    # the rows as plain dicts, the zero ones among them empty
    rng = random.Random(3)
    values = [0, 0, 0, 1, -1, 2, -3]
    for _ in range(300):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        dense = _random_dense(rng, nr, nc, values)
        want = [rank_dense_bareiss([row[:k] for row in dense]) for k in range(1, nc + 1)]
        rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
        before = [dict(row) for row in rows]
        assert prefix_ranks(rows, nc) == want
        assert rows == before


def test_prefix_ranks_with_negative_pivots():
    # pivots -1 at column 0 and -2 at column 1.  The third row meets the -1
    # pivot, a -1 multiplier made positive, and leaves {1: 1, 2: 1, 3: 1};
    # against the -2 pivot that becomes 2*row plus the pivot row, which is
    # {2: 3, 3: 3}, of content 3.  The fifth row meets the -2 pivot with
    # multiplier 2, and the sixth the -1 pivot with multiplier 1.
    rows = [
        {0: -1, 1: 1, 3: 2},
        {1: -2, 2: 1, 3: 1},
        {0: 1, 2: 1, 3: -1},
        {2: 2, 3: 2},
        {1: 3, 3: 1},
        {0: 2, 3: 4},
    ]
    dense = [[row.get(c, 0) for c in range(5)] for row in rows]
    want = [rank_dense_bareiss([row[:k] for row in dense]) for k in range(1, 6)]
    before = [dict(row) for row in rows]
    assert prefix_ranks(rows, 5) == want == [1, 2, 3, 4, 4]
    assert rows == before


def test_rank_transpose_and_bounds():
    rng = random.Random(11)
    values = [0, 0, 1, -1, 3]
    for _ in range(150):
        nr, nc = rng.randint(1, 10), rng.randint(1, 10)
        m = SparseIntMatrix.from_dense(_random_dense(rng, nr, nc, values))
        r = rank(m)
        assert r == rank(transpose(m))
        assert r <= min(nr, nc)
        assert r + (m.n_cols - rank(m)) == nc


def test_matrix_market_round_trip(tmp_path):
    m = from_entries(3, 4, [(0, 1, 5), (2, 3, -7), (1, 0, 2)])
    path = tmp_path / "block.mtx"
    write_matrix_market(m, path)
    assert read_matrix_market(path) == m
    header = path.read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket matrix coordinate integer")
