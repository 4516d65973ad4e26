import random

import pytest

from confcoh import dga
from confcoh.linalg import SparseIntMatrix, rank, reduce_columns, write_matrix_market
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


def test_rank_matches_dense_reference_on_differential_blocks(monkeypatch):
    # every group the store reduces at the sweep points and at genus 1
    # n = 24 in model A, each point grown from an empty store: its prefix
    # ranks, cleared members included, against the dense rank of each
    # column prefix of the whole group matrix, every column assembled; and
    # linalg.rank of the whole matrix
    reduced, cleared_in_all = [], 0
    write = dga._Layout.write

    def recording_write(self, source, cleared=()):
        nonlocal cleared_in_all
        cleared_in_all += len(cleared)
        reduced.append([write(self, source)[0]])
        return write(self, source, cleared)

    def recording(columns, n_rows, pivots):
        before = [dict(column) for column in columns]
        got = reduce_columns(columns, n_rows, pivots)
        assert columns == before  # the reduction leaves every column unchanged
        reduced[-1].append(got[0])
        return got

    monkeypatch.setattr(dga._Layout, "write", recording_write)
    monkeypatch.setattr(dga, "reduce_columns", recording)
    try:
        for g, n, model in sweep_points() + [(1, 24, "A")]:
            clear_brute_force_caches()
            dga.cohomology_dims(g, n, model)
    finally:
        clear_brute_force_caches()
    assert len(reduced) > 1000 and cleared_in_all > 1000
    for whole, got in reduced:
        keys = sorted(set().union(*whole))
        dense = [[column.get(key, 0) for column in whole] for key in keys]
        want = [rank_dense_bareiss([row[:k] for row in dense]) for k in range(1, len(whole) + 1)]
        assert got == want
        assert rank(SparseIntMatrix.from_dense(dense)) == want[-1]


def test_prefix_ranks_of_random_matrices():
    # the columns as plain dicts, the zero ones among them empty, and rows
    # that no column reaches among the n_rows.  Column operations keep the
    # rank of the rows from r on, and the reduced columns end at distinct
    # rows, so r is a low when that rank exceeds the rank of the rows past r
    rng = random.Random(3)
    values = [0, 0, 0, 1, -1, 2, -3]
    for _ in range(300):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        dense = _random_dense(rng, nr, nc, values)
        want = [rank_dense_bareiss([row[:k] for row in dense]) for k in range(1, nc + 1)]
        columns = [{r: dense[r][c] for r in range(nr) if dense[r][c]} for c in range(nc)]
        before = [dict(column) for column in columns]
        ranks, pivots = reduce_columns(columns, nr, {})
        assert ranks == want
        assert columns == before
        from_r = [rank_dense_bareiss(dense[r:]) for r in range(nr + 1)]
        assert set(pivots) == {r for r in range(nr) if from_r[r] > from_r[r + 1]}
        # each pivot column ends at its low
        assert all(max(column) == low for low, column in pivots.items())


def test_prefix_ranks_with_negative_pivots():
    # pivots -1 at row 4 and -2 at row 3.  The third column meets the -1
    # pivot, a -1 multiplier made positive, and leaves {3: 1, 2: 1, 1: 1};
    # against the -2 pivot that becomes 2*col plus the pivot column, which
    # is {2: 3, 1: 3}, of content 3, a new pivot at row 2.  The fourth
    # column reduces to zero.  The fifth meets the -2 pivot with multiplier
    # 2 and ends as a pivot at row 1, {1: 2}, and the sixth meets the -1
    # pivot with multiplier 1 and reduces to zero.  The first two columns
    # are kept as they came, the caller's own dicts.
    columns = [
        {4: -1, 3: 1, 1: 2},
        {3: -2, 2: 1, 1: 1},
        {4: 1, 2: 1, 1: -1},
        {2: 2, 1: 2},
        {3: 3, 1: 1},
        {4: 2, 1: 4},
    ]
    dense = [[column.get(r, 0) for column in columns] for r in range(5)]
    want = [rank_dense_bareiss([row[:k] for row in dense]) for k in range(1, 7)]
    before = [dict(column) for column in columns]
    ranks, pivots = reduce_columns(columns, 5, {})
    assert (ranks, pivots) == (want, {
        4: {4: -1, 3: 1, 1: 2}, 3: {3: -2, 2: 1, 1: 1}, 2: {2: 1, 1: 1}, 1: {1: 2}})
    assert pivots[4] is columns[0] and pivots[3] is columns[1]
    assert want == [1, 2, 3, 3, 4, 4]
    assert columns == before


def _assert_resumes_at_every_split(columns, n_rows):
    """Reducing columns [0, k) and then [k, m) into one pivot dict gives,
    for every k, the prefix ranks and the pivots of one reduction of
    [0, m), and the dict passed in is the one returned."""
    whole, lows = reduce_columns(columns, n_rows, {})
    for k in range(len(columns) + 1):
        pivots = {}
        head, kept = reduce_columns(columns[:k], n_rows, pivots)
        tail, kept = reduce_columns(columns[k:], n_rows, kept)
        assert kept is pivots
        assert (head + tail, kept) == (whole, lows), k


def test_reduce_columns_resumes_at_every_split():
    rng = random.Random(29)
    values = [0, 0, 0, 1, -1, 2, -3]
    for _ in range(200):
        nr, nc = rng.randint(1, 8), rng.randint(1, 9)
        dense = _random_dense(rng, nr, nc, values)
        _assert_resumes_at_every_split(
            [{r: dense[r][c] for r in range(nr) if dense[r][c]} for c in range(nc)], nr)


def test_reduce_columns_resumes_on_differential_blocks(monkeypatch):
    # every group the store reduces at the sweep points, each point grown
    # from an empty store so that each group is reduced whole, split at
    # every column
    recorded = []

    def recording(columns, n_rows, pivots):
        recorded.append((columns, n_rows))
        return reduce_columns(columns, n_rows, pivots)

    monkeypatch.setattr(dga, "reduce_columns", recording)
    try:
        for g, n, model in sweep_points():
            clear_brute_force_caches()
            dga.cohomology_dims(g, n, model)
    finally:
        clear_brute_force_caches()
    assert len(recorded) > 1000
    for columns, n_rows in recorded:
        _assert_resumes_at_every_split(columns, n_rows)


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
