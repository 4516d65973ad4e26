import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from confcoh import closedform, reps
from confcoh.closedform import (
    MixedTable,
    betti,
    _euler_coefficient,
    build_Q,
    euler_binomials,
    euler_series,
    mixed_table,
    q_bracket,
    stabilization_bound,
)
from confcoh.reps import TRIVIAL, RepLabel, VirtualRep, dim_irrep, rep_label
from confcoh.series import TriSeries
from reference import (
    coeff,
    build_P_HA,
    build_P_SV,
    build_P_ker_cap,
    build_P_ker_mod,
    build_P_quot,
    build_Q_assembled,
    ext_power_decomp,
    geom_u,
    per_cell_dims,
    reference_q_bracket,
    summed_table,
    tensor_std_sym_decomp,
    u_slice,
)

W1 = RepLabel(0, 1)


def V(g, i, j, mult=1):
    return VirtualRep.single(rep_label(g, i, j), mult)


# --- Hilbert series ----------------------------------------------------------


def test_p_sv_low_order():
    p = build_P_SV(1, 4)
    assert coeff(p, 1, 0, 1) == VirtualRep.single(W1)
    # coefficient at (2,1) collects the geometric factor and V tensor V
    assert coeff(p, 2, 1, 3) == VirtualRep.unit() + V(1, 1, 1)


def test_p_sv_matches_direct_decomposition():
    # coefficient at (j+i, i) is the class of Lambda^j V tensor S^i V
    for g in (1, 2):
        D = 8
        p = build_P_SV(g, D)
        for i in range(0, 4):
            for j in range(0, 2 * g + 1):
                if i + j + i > D:
                    continue
                if i == 0:
                    want = ext_power_decomp(g, j)
                elif j == 0:
                    want = VirtualRep.single(rep_label(g, i, 0))
                else:
                    want = VirtualRep.zero()
                    for (li, lj), m in ext_power_decomp(g, j).items():
                        if lj == 0:
                            want += VirtualRep.single(rep_label(g, i, 0), m)
                        else:
                            want += tensor_std_sym_decomp(g, i, lj).scaled(m)
                assert coeff(p, j + i, i, j + 2 * i) == want, (g, i, j)


def test_p_ker_cap_examples():
    p1 = build_P_ker_cap(1, 4)
    assert coeff(p1, 2, 0, 2) == VirtualRep.unit()  # the leading t^(2g)
    assert coeff(p1, 1, 0, 1) == VirtualRep.single(W1)
    assert coeff(build_P_ker_cap(2, 1), 1, 0, 1) == VirtualRep.zero()


def test_p_ker_mod_examples():
    assert build_P_ker_mod(1, 0) == TriSeries.one(0)
    assert coeff(build_P_ker_mod(1, 1), 1, 0, 1) == VirtualRep.single(W1)
    assert coeff(build_P_ker_mod(2, 2), 2, 0, 2) == V(2, 0, 2)


def test_p_quot_examples():
    p = build_P_quot(1, 3)
    assert coeff(p, 0, 0, 0) == VirtualRep.unit()
    assert coeff(p, 2, 1, 3) == VirtualRep.unit()  # the t^2 s prefactor alone
    assert coeff(p, 1, 1, 2) == VirtualRep.single(W1)
    # at higher genus the inner sum contributes at (2, 1) as well
    assert coeff(build_P_quot(2, 3), 2, 1, 3) == VirtualRep.unit() + V(2, 0, 2)


def test_p_ha_examples():
    p = build_P_HA(1, 4)
    assert coeff(p, 0, 0, 0) == VirtualRep.unit()
    assert coeff(p, 1, 0, 1) == VirtualRep.single(W1)
    assert coeff(p, 2, 0, 2) == VirtualRep.unit()


def test_p_series_are_stored_with_u_equal_to_total_degree():
    # a t,s-series is a TriSeries with u = t+s on every term, cut at u <= D
    builders = (build_P_SV, build_P_ker_cap, build_P_ker_mod, build_P_quot, build_P_HA)
    for build in builders:
        for g in (1, 2, 3):
            for D in range(13):
                p = build(g, D)
                assert p.u_trunc == D
                for (t, s, u), _ in p.coeffs():
                    assert u == t + s <= D, (build.__name__, g, D, (t, s, u))


def test_p_ha_assembly_identity():
    # direct formula versus assembly is asserted inside the builder
    for g in (1, 2, 3):
        build_P_HA(g, 12)


# --- the master series -------------------------------------------------------


def test_q_u0_is_one():
    for g in (1, 2, 3):
        assert u_slice(build_Q(g, 4), 0) == {(0, 0): VirtualRep.unit()}


def test_q_u1_is_surface_cohomology():
    for g in (1, 2, 3):
        want = {
            (0, 0): VirtualRep.unit(),
            (1, 0): VirtualRep.single(W1),
            (2, 0): VirtualRep.unit(),
        }
        assert u_slice(build_Q(g, 3), 1) == want


def test_q_g1_u3_expansion():
    want = {
        (0, 0): VirtualRep.unit(),
        (1, 0): VirtualRep.single(W1),
        (2, 0): VirtualRep.unit(),
        (2, 1): VirtualRep.unit() + V(1, 1, 1),
        (1, 1): VirtualRep.single(W1),
        (3, 1): VirtualRep.single(W1),
    }
    assert u_slice(build_Q(1, 3), 3) == want


def test_q_matches_assembled_route():
    for g in range(1, 6):
        for N in range(13):
            assert build_Q(g, N) == dict(build_Q_assembled(g, N).coeffs()), (g, N)


def test_q_running_sum_matches_geometric_product():
    # build_Q sums each (t, s) column of the bracket over u; the slow
    # reference multiplies the bracket's series by the truncated geometric
    # series
    for g in range(1, 9):
        for N in range(17):
            want = geom_u(N) * reference_q_bracket(g, N)
            assert build_Q(g, N) == dict(want.coeffs()), (g, N)


def test_q_reuses_a_coefficient_that_does_not_change():
    q = build_Q(3, 20)
    for (t, s, u), rep in q.items():
        assert rep
        if u and q.get((t, s, u - 1)) == rep:
            assert q[(t, s, u - 1)] is rep, (t, s, u)


def test_bracket_matches_series_route():
    # the bracket written from its formula against the one assembled by
    # TriSeries algebra, and each table against the u^n slice of the master
    # series, over g <= 8 and n <= 24; truncating at u^24 and then at u^N
    # is truncating at u^N, so each route is built once per genus
    for g in range(1, 9):
        bracket = reference_q_bracket(g, 24).coeffs()
        q = build_Q(g, 24)
        for N in range(25):
            terms = [((t, s, u), VirtualRep.single(l)) for t, s, u, l in q_bracket(g, N)]
            assert TriSeries(N, terms) == TriSeries(N, bracket), (g, N)
            want = {(t + s, t + 2 * s): rep for (t, s), rep in u_slice(q, N).items()}
            assert mixed_table(g, N).entries == want, (g, N)


def test_tables_never_build_the_master_series(monkeypatch):
    # the expected slices come from the series route before it is refused
    want = {
        (g, n): u_slice(dict((geom_u(n) * reference_q_bracket(g, n)).coeffs()), n)
        for g, n in [(1, 3), (2, 6), (3, 9), (8, 12)]
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a table built the master series")

    monkeypatch.setattr(closedform, "build_Q", refuse)
    monkeypatch.setattr(TriSeries, "__mul__", refuse)
    monkeypatch.setattr(TriSeries, "__add__", refuse)
    assert mixed_table(1, 3).betti() == (1, 2, 3, 4, 2)
    for (g, n), slice_n in want.items():
        entries = {(t + s, t + 2 * s): rep for (t, s), rep in slice_n.items()}
        assert mixed_table(g, n).entries == entries, (g, n)


@pytest.fixture
def bad_bracket_term(monkeypatch):
    """Empty stores before and after the test, and ``inject(t, s, u)``,
    which adds one scalar term (t, s, u) to the bracket before its checks,
    so that no store read hides it."""

    def inject(t, s, u):
        terms = closedform._bracket_terms

        def with_term(g, N, lo=-1):
            return terms(g, N, lo) + [(t, s, u, TRIVIAL)] * (lo < u <= N)

        monkeypatch.setattr(closedform, "_bracket_terms", with_term)

    closedform._bracket.cache_clear()
    yield inject
    closedform._bracket.cache_clear()


@pytest.mark.parametrize(
    "term, message",
    [
        ((1, 0, 0), r"u\^0 coefficient must be 1"),
        ((6, 0, 1), r"t <= u \+ 2g \+ 2"),
        ((0, 0, 2), r"u <= t \+ s \+ 1"),
        ((1, 0, 2), r"u <= t \+ 2s"),
        ((0, 1, 1), r"t >= s"),
        ((3, 1, 2), r"u >= t \+ s - 1"),
    ],
)
def test_bracket_invariants_raise(bad_bracket_term, term, message):
    bad_bracket_term(*term)
    with pytest.raises(ArithmeticError, match=message):
        mixed_table(1, 4)
    with pytest.raises(ArithmeticError, match=message):
        build_Q(1, 4)
    with pytest.raises(ArithmeticError, match=message):
        euler_series(1, 4)


def test_store_rejects_a_cell_outside_the_weight_band(bad_bracket_term):
    # (t, s, u) = (5, 0, 5) meets every bound of q_bracket, but its cell
    # (k, h) = (5, 5) has 3k - 2h = 5 > 2g + 2 = 4; the error holds at every
    # read, since the store takes in no term of the window that failed
    bad_bracket_term(5, 0, 5)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"weight band violated at genus 1, "
                           r"n=\d+, \(k=5, h=5\)"):
            mixed_table(1, 6)


def test_degree_bound_raises_under_python_O():
    # the bound u >= t + s - 1, which the store's settled prefix rests on,
    # is a real check: it raises with assert statements stripped
    code = """
from confcoh import closedform
from confcoh.reps import TRIVIAL
assert False, "assert statements are stripped under -O"
terms = closedform._bracket_terms
closedform._bracket_terms = lambda g, N, lo=-1: terms(g, N, lo) + [(3, 1, 2, TRIVIAL)]
try:
    closedform.mixed_table(1, 4)
except ArithmeticError as error:
    print(error)
"""
    src = Path(closedform.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "exponent bound u >= t + s - 1 violated at (3, 1, 2), g=1"


def test_euler_mismatch_raises(bad_bracket_term, monkeypatch):
    # a table read off the store and one built from given cells meet the
    # same check; the fixture starts from an empty store
    table = mixed_table(2, 5)
    cells = dict(table.entries)
    real = _euler_coefficient
    monkeypatch.setattr(closedform, "_euler_coefficient", lambda g, n: real(g, n) + 1)
    for read in (lambda: mixed_table(2, 5), lambda: MixedTable(2, 5, cells).validate()):
        with pytest.raises(ValueError, match=r"Euler characteristic mismatch for genus 2, n=5"):
            read()


@pytest.mark.parametrize("dim, message", [(0, "dimension 0"), (-1, "dimension -1")])
def test_store_rejects_a_cell_of_dimension_at_most_zero(bad_bracket_term, monkeypatch,
                                                         dim, message):
    # the store adds up each change point's dim from dim_irrep; a column
    # sum of multiplicity-one terms of positive dim has a positive dim, so
    # given a wrong dim for V(0,1), the (1, 1) cell of genus 1, which is
    # V(0,1) from n = 1 on, makes the store raise, naming the cell, and
    # keep no term of the window
    std = rep_label(1, 0, 1)
    monkeypatch.setattr(
        closedform, "dim_irrep", lambda g, label: dim if label == std else dim_irrep(g, label)
    )
    assert mixed_table(1, 0).dims() == {(0, 0): 1}
    with pytest.raises(ValueError, match=rf"{message} at genus 1, n=1, \(k=1, h=1\)"):
        mixed_table(1, 3)
    assert closedform._bracket(1).top == 0 and list(closedform._bracket(1).columns) == [(0, 0)]


def store_state(store):
    """Everything a store holds: its top, each cell's slot list with the
    list's identity and its slots, and the settled prefix."""
    columns = {cell: (id(slots), list(slots)) for cell, slots in store.columns.items()}
    return (store.top, columns, list(store.cells), list(store.starts),
            list(store.finals), list(store.final_dims), list(store.eulers))


@pytest.mark.parametrize("fault", ["dimension", "band"])
def test_a_failed_cover_leaves_a_grown_store_as_it_was(bad_bracket_term, monkeypatch, fault):
    # a cover that extends cells the store holds, and then fails, keeps
    # each old cell's slot list and every settled value; the next good
    # cover equals a store grown at once
    g, top, n = (2, 6, 9) if fault == "dimension" else (1, 5, 7)
    store = closedform._covering(g, top)
    if fault == "dimension":
        # V(0,1) is written, in the window 6 < u <= 9 of genus 2, only to
        # the (7, 9) cell, which the store grown to 6 holds already
        std = rep_label(2, 0, 1)
        monkeypatch.setattr(
            closedform, "dim_irrep",
            lambda g, label: -10**6 if label == std else dim_irrep(g, label),
        )
        error, message = ValueError, r"dimension -\d+ at genus 2, n=7, \(k=7, h=9\)"
    else:
        # (6, 0, 6) meets every bound of q_bracket, but its cell (6, 6),
        # new to the store grown to 5, has 3k - 2h = 6 > 2g + 2 = 4
        bad_bracket_term(6, 0, 6)
        error, message = ArithmeticError, r"weight band violated at genus 1, n=6, \(k=6, h=6\)"
    extended = {(t + s, t + 2 * s) for t, s, _, _ in q_bracket(g, n, top)} & set(store.columns)
    assert len(extended) > 1, extended
    before = store_state(store)
    for _ in range(2):
        with pytest.raises(error, match=message):
            mixed_table(g, n)
        assert store_state(store) == before
    monkeypatch.undo()
    fresh = closedform._Bracket()
    fresh.cover(g, n)
    assert mixed_table(g, n) == summed_table(g, n)
    assert (store.top, store.columns) == (fresh.top, fresh.columns)
    assert store_state(store)[2:] == store_state(fresh)[2:]


def test_slice_matches_the_checked_constructor():
    # each table cell that the store reads off its change points, and the
    # dim it stores there, against the same column rebuilt from the
    # bracket's terms through the constructor that normalises, keyed by its
    # cell (k, h) = (t+s, t+2s), and that rep's VirtualRep.dim; the table
    # gives its cells in increasing (k, h) order
    for g in range(1, 9):
        for n in range(25):
            columns = {}
            for t, s, _, label in q_bracket(g, n):
                columns.setdefault((t + s, t + 2 * s), []).append((label, 1))
            want = {kh: VirtualRep(column) for kh, column in columns.items()}
            table = mixed_table(g, n)
            assert table.entries == want, (g, n)
            assert table.dims() == {kh: rep.dim(g) for kh, rep in want.items()}, (g, n)
            assert list(table.entries) == list(table.dims()) == sorted(want), (g, n)


def bracket_sums(g, N):
    """The running column sums of a fresh ``q_bracket(g, N)``, with no
    store: {(t, s, u): VirtualRep} for every u <= N."""
    terms = {}
    for t, s, u, label in q_bracket(g, N):
        terms.setdefault((t, s), []).append((u, label))
    return {
        (t, s, u): VirtualRep([(label, 1) for v, label in column if v <= u])
        for (t, s), column in terms.items()
        for u in range(min(column)[0], N + 1)
    }


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_store_reads_equal_a_fresh_bracket(order):
    # one store per genus serves a mix of tables, Betti numbers and series
    # in any order; each answer equals the one built from a whole bracket
    N = 18
    calls = [(g, n, kind) for g in (1, 2, 5) for n in range(N + 1)
             for kind in ("table", "betti", "series")]
    if order == "descending":
        calls.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(calls)
    closedform._bracket.cache_clear()
    want = {g: bracket_sums(g, N) for g in (1, 2, 5)}
    for g, n, kind in calls:
        cells = {(t + s, t + 2 * s): rep for (t, s, u), rep in want[g].items() if u == n}
        if kind == "table":
            assert mixed_table(g, n).entries == cells, (g, n)
        elif kind == "betti":
            assert betti(g, n) == MixedTable(g, n, cells).betti(), (g, n)
        else:
            series = {key: rep for key, rep in want[g].items() if key[2] <= n}
            assert build_Q(g, n) == series, (g, n)


def test_store_reads_equal_the_summed_reference():
    # tables read off the settled prefix and the slots against tables
    # summed straight from the bracket, in shuffled order, with the stores
    # grown between reads by covers of different steps: the same entries
    # and dims, in the same cell order
    rng = random.Random(34)
    reads = [(g, n) for g in range(11) for n in range(41)]
    rng.shuffle(reads)
    closedform._bracket.cache_clear()
    for g, n in reads:
        if g and rng.random() < 0.5:
            step = rng.choice((1, 2, 3, 5, 8))
            closedform._covering(g, min(40, closedform._bracket(g).top + step))
        table, want = mixed_table(g, n), summed_table(g, n)
        assert list(table.entries.items()) == list(want.entries.items()), (g, n)
        assert list(table.dims().items()) == list(want.dims().items()), (g, n)
    closedform._bracket.cache_clear()


def test_store_cells_change_only_from_k_minus_one_to_k_plus_one():
    # every term of a cell of degree k has k - 1 <= u <= k + 1, so a cell
    # holds three slots, for u = k - 1, k and k + 1, each None or the sum
    # from that u on with its dimension; the cell is absent from the tables
    # below n = k - 1, is the last filled slot at or below n up to n = k + 1
    # and is final from there on
    N = 30
    for g in range(1, 9):
        tables = [mixed_table(g, n) for n in range(N + 1)]
        for (k, h), slots in closedform._bracket(g).columns.items():
            assert len(slots) == 3 and any(slots), (g, k, h, slots)
            for slot in filter(None, slots):
                assert slot[1] == slot[0].dim(g), (g, k, h)
            for n in range(N + 1):
                filled = [slot for slot in slots[:max(n - k + 2, 0)] if slot]
                if filled:
                    rep, dim = filled[-1]
                    assert tables[n].entries[(k, h)] == rep, (g, k, h, n)
                    assert tables[n].dims()[(k, h)] == dim, (g, k, h, n)
                else:
                    assert (k, h) not in tables[n].entries, (g, k, h, n)


class _CountedColumns(dict):
    """A store's ``columns`` that counts its lookups by cell."""

    lookups = 0

    def __getitem__(self, cell):
        self.lookups += 1
        return super().__getitem__(cell)

    def get(self, cell, default=None):
        self.lookups += 1
        return super().get(cell, default)


def test_a_table_looks_up_only_the_columns_of_degree_n_and_n_plus_one():
    # the cells of degree k <= n - 1 are read off the settled prefix, on a
    # store grown to n and on one grown past it
    for g in (1, 2, 5, 8):
        closedform._bracket.cache_clear()
        store = closedform._bracket(g)
        store.columns = columns = _CountedColumns()
        for n in list(range(31)) + list(range(30, -1, -1)):
            closedform._covering(g, n)
            columns.lookups = 0
            mixed_table(g, n)
            window = sum(k in (n, n + 1) for k, _ in columns)
            assert 0 < columns.lookups <= window, (g, n)
    closedform._bracket.cache_clear()


@pytest.fixture
def windows(monkeypatch):
    """Records the (lo, N) window and the terms of each ``_bracket_terms``
    call, on empty stores."""
    calls = []
    terms = closedform._bracket_terms

    def recorded(g, N, lo=-1):
        out = terms(g, N, lo)
        calls.append(((lo, N), out))
        return out

    monkeypatch.setattr(closedform, "_bracket_terms", recorded)
    closedform._bracket.cache_clear()
    yield calls
    closedform._bracket.cache_clear()


@pytest.mark.parametrize("g", [1, 2, 4, 8])
def test_store_writes_each_bracket_term_once(windows, g):
    # an ascending sweep, then reads in no order: the windows that the
    # store's growths ask for are disjoint and add up to the whole bracket
    N = 30
    for n in range(0, N + 1, 3):
        mixed_table(g, n)
    for n in (5, N + 4, 1, N + 10):
        build_Q(g, n)
        betti(g, n)
    top = N + 10
    spans = [span for span, _ in windows]
    assert spans == [(-1, 0)] + [(n - 3, n) for n in range(3, N + 1, 3)] + [
        (N, N + 4), (N + 4, top)]
    written = [term for _, terms in windows for term in terms]
    assert sorted(written) == sorted(q_bracket(g, top))


def test_store_reads_below_its_top_write_no_term(windows):
    for g in (1, 3):
        build_Q(g, 20)
    del windows[:]
    for g in (1, 3):
        for n in range(21):
            mixed_table(g, n)
            betti(g, n)
            build_Q(g, n)
        # a bound of degree k reads the store when it covers k + 1
        for k in range(20):
            for h in range(k, 2 * k + 1):
                stabilization_bound(g, k, h)
    assert windows == []


def test_windowed_bracket_is_a_slice_of_the_whole():
    # q_bracket(g, N, lo) is the terms of q_bracket(g, N) with u > lo
    for g in range(1, 9):
        whole = q_bracket(g, 30)
        for lo in range(-1, 32):
            want = sorted(term for term in whole if term[2] > lo)
            assert sorted(q_bracket(g, 30, lo)) == want, (g, lo)


@pytest.mark.parametrize("counts", [{TRIVIAL: 0}, {W1: 2, TRIVIAL: 0}])
def test_from_counts_rejects_a_zero_multiplicity(counts):
    with pytest.raises(ValueError, match="zero multiplicity"):
        VirtualRep.from_counts(counts)


def test_a_second_table_computes_no_dimension(monkeypatch):
    # a table's cells are the store's VirtualReps, and each keeps the
    # dimension its first table computed
    for g in (1, 3):
        mixed_table(g, 9)
        calls = []

        def counted(*args):
            calls.append(args)
            return dim_irrep(*args)

        monkeypatch.setattr(reps, "dim_irrep", counted)
        assert mixed_table(g, 9).euler() == _euler_coefficient(g, 9)
        assert calls == [], g
        monkeypatch.undo()


def test_q_rejects_genus_zero():
    with pytest.raises(ValueError):
        build_Q(0, 3)


# --- tables ------------------------------------------------------------------


def test_mixed_table_torus():
    t = mixed_table(1, 1)
    assert t.entries == {
        (0, 0): VirtualRep.unit(),
        (1, 1): VirtualRep.single(W1),
        (2, 2): VirtualRep.unit(),
    }


def test_mixed_table_g1_n3():
    t = mixed_table(1, 3)
    assert t.betti() == (1, 2, 3, 4, 2)
    assert t.entries[(3, 4)] == VirtualRep.unit() + V(1, 1, 1)
    assert t.entries[(2, 3)] == VirtualRep.single(W1)


def test_betti_examples():
    assert betti(1, 2) == (1, 2, 1)
    assert betti(1, 3) == (1, 2, 3, 4, 2)
    for g in (1, 2, 3):
        assert betti(g, 0) == (1,)


def test_tables_are_one_u_column_of_the_master_series():
    # one master series to u^N holds every table up to N: the (t, s, u=n)
    # coefficient is the (t + s, t + 2s) entry of the table at n
    N = 12
    for g in range(1, 6):
        q = build_Q(g, N)
        for n in range(N + 1):
            want = {(t + s, t + 2 * s): rep for (t, s, u), rep in q.items() if u == n and rep}
            assert mixed_table(g, n).entries == want, (g, n)


def reported_dims(table):
    """What the table reports, in the shape of ``per_cell_dims``."""
    json_dims = [row["dim"] for row in table.to_json()["table"]]
    return list(table.dims().items()), table.betti(), table.euler(), json_dims


def test_stored_dims_are_right():
    for g in range(1, 9):
        for n in range(25):
            table = mixed_table(g, n)
            assert reported_dims(table) == per_cell_dims(table), (g, n)


def test_entries_are_read_only():
    table = mixed_table(1, 3)
    with pytest.raises(TypeError):
        table.entries[(0, 0)] = VirtualRep.unit(2)
    with pytest.raises(TypeError):
        table.entries[(9, 9)] = VirtualRep.unit()
    assert table.entries == dict(table.entries)
    assert table.dims()[(0, 0)] == 1


def test_weight_band_violation_raises():
    # h < k; 3k - 2h < 0; 3k - 2h > 2g + 2
    for cell in ((2, 1), (1, 3), (5, 5)):
        table = MixedTable(1, 1, {(0, 0): VirtualRep.unit(), cell: VirtualRep.unit()})
        with pytest.raises(ArithmeticError, match="weight band"):
            table.validate()


def test_negative_cell_rejected_at_construction():
    # the sign, not the dim: V(1,1) - V(0,0) has dim 1 at genus 1
    virtual = VirtualRep.single(rep_label(1, 1, 1)) - VirtualRep.unit()
    for cell in (VirtualRep.unit(-1), virtual):
        with pytest.raises(ValueError, match=r"negative multiplicity at \(k=1, h=2\)"):
            MixedTable(1, 1, {(0, 0): VirtualRep.unit(), (1, 2): cell})


def test_zero_cell_dropped_at_construction():
    # a zero cell is no cell: it is in none of the table's readings
    cells = {(0, 0): VirtualRep.unit(), (1, 1): VirtualRep.single(rep_label(1, 0, 1)),
             (2, 2): VirtualRep.unit()}
    table = MixedTable(1, 2, cells)
    padded = MixedTable(1, 2, {**cells, (1, 2): VirtualRep.zero()})
    assert (1, 2) not in padded.entries
    assert padded.entries == table.entries
    assert list(padded.dims()) == [(0, 0), (1, 1), (2, 2)]
    assert padded.betti() == table.betti() == (1, 2, 1)
    assert padded.euler() == table.euler() == 0
    assert padded.to_json() == table.to_json()
    assert padded == table


def test_table_monotone_in_n():
    for g in (1, 2):
        for n in range(0, 6):
            small = mixed_table(g, n)
            large = mixed_table(g, n + 1)
            for kh, rep in small.entries.items():
                grown = large.entries.get(kh, VirtualRep.zero()) - rep
                assert grown.effective_dim(g) is not None


def test_band_on_computed_tables():
    for g in (1, 2, 3):
        for n in range(0, 7):
            for (k, h), rep in mixed_table(g, n).entries.items():
                assert h >= k
                assert 0 <= 3 * k - 2 * h <= 2 * g + 2


def test_tables_are_stable_in_genus():
    # measured, not a theorem: each table is the same dict of labels for
    # every genus from n to n + 6, and differs at genus n - 1
    for n in range(2, 13):
        stable = mixed_table(n, n).entries
        for g in range(n + 1, n + 7):
            assert mixed_table(g, n).entries == stable, (g, n)
        assert mixed_table(n - 1, n).entries != stable, n


def test_stabilization_examples():
    assert stabilization_bound(1, 0, 0) == 0
    assert stabilization_bound(1, 2, 2) == 1
    assert stabilization_bound(1, 3, 2) == 0  # h < k, no such entry
    assert stabilization_bound(2, 1, 3) == 0  # t-exponent would be negative


def scanned_stabilization_bound(g, k, h):
    """The largest u among the (2k - h, h - k) column's terms of a fresh
    q_bracket(g, k + 2), or 0: the slow reference for stabilization_bound."""
    t, s = 2 * k - h, h - k
    if t < 0 or s < 0:
        return 0
    terms = q_bracket(g, k + 2)
    return max((u for tt, ss, u, _ in terms if (tt, ss) == (t, s)), default=0)


@pytest.mark.parametrize("store", ["empty", "grown"])
def test_stabilization_bound_matches_the_bracket_scan(store):
    # the store's last change point of a column is its largest u, on a
    # store grown just to k + 1 and on one grown past it
    for g in range(1, 7):
        if store == "grown":
            closedform._bracket.cache_clear()
            build_Q(g, 30)
        for k in range(25):
            if store == "empty":
                closedform._bracket.cache_clear()
            for h in range(k, 2 * k + 1):
                want = scanned_stabilization_bound(g, k, h)
                assert stabilization_bound(g, k, h) == want, (store, g, k, h)
    closedform._bracket.cache_clear()


def test_stabilization_bound_at_genus_zero_matches_the_table_scan():
    # the sphere's bound is read off its table: the least n0 from which a
    # cell of mixed_table(0, n) stays the same up to n = 8
    tables = [mixed_table(0, n).entries for n in range(9)]
    for k in range(7):
        for h in range(7):
            cells = [table.get((k, h)) for table in tables]
            want = min(n0 for n0 in range(9) if all(c == cells[n0] for c in cells[n0:]))
            assert stabilization_bound(0, k, h) == want, (k, h)
    assert [stabilization_bound(0, *kh) for kh in [(0, 0), (2, 2), (3, 4)]] == [0, 2, 3]


def test_stabilization_bound_rejects_a_negative_genus():
    with pytest.raises(ValueError, match="need g >= 0"):
        stabilization_bound(-1, 2, 2)


def test_stabilization_bound_is_at_most_the_weight():
    # every bracket term has u <= t + 2s = h and u <= t + s + 1 = k + 1, and
    # the entry settles at the largest such u
    for g in range(9):
        for k in range(21):
            for h in range(2 * k + 3):
                assert stabilization_bound(g, k, h) <= min(h, k + 1), (g, k, h)


def test_stabilization_is_sharp_enough():
    for g in (1, 2):
        for k in range(0, 6):
            for h in range(k, 2 * k + 1):
                n0 = stabilization_bound(g, k, h)
                ref = mixed_table(g, n0).entries.get((k, h), VirtualRep.zero())
                for n in range(n0, n0 + 4):
                    got = mixed_table(g, n).entries.get((k, h), VirtualRep.zero())
                    assert got == ref, (g, k, h, n)


# --- Euler characteristics and genus 0 ---------------------------------------


def test_euler_series_matches_binomials():
    assert euler_series(1, 6) == [1, 0, 0, 0, 0, 0, 0]
    assert euler_series(2, 3) == [1, -2, 3, -4]
    assert euler_series(0, 4) == [1, 2, 1, 0, 0]
    for g in range(0, 9):
        assert euler_series(g, 40) == euler_binomials(g, 40)


def test_euler_series_rejects_a_negative_genus():
    for N in (0, 4):
        with pytest.raises(ValueError, match="need g >= 0"):
            euler_series(-1, N)


def test_euler_series_rejects_a_negative_truncation():
    for g in (0, 1, 2):
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            euler_series(g, -1)


def split_euler_binomials(g, N):
    """(1+u)^(2-2g) through u^N, by the binomial theorem for e = 2 - 2g >= 0
    and by the negative binomial series otherwise: the slow reference for
    euler_binomials and _euler_coefficient."""
    e = 2 - 2 * g
    if e >= 0:
        return [comb(e, n) if n <= e else 0 for n in range(N + 1)]
    m = -e
    return [(-1) ** n * comb(m + n - 1, n) for n in range(N + 1)]


def test_euler_coefficient_matches_binomials():
    for g in range(0, 9):
        want = split_euler_binomials(g, 40)
        assert euler_binomials(g, 40) == want, g
        for n in range(0, 41):
            assert _euler_coefficient(g, n) == want[n], (g, n)
    assert euler_binomials(2, -1) == []


def test_genus0_mixed_table():
    # sp(0) is the zero Lie algebra, so every cell is a multiple of V(0,0),
    # and validate() checks each table against the (1+u)^2 Euler series:
    # the sphere itself at n = 1, rationally the projective plane at n = 2,
    # and from n = 3 on one class in the weight of H^3(PGL_2(C))
    cells = {0: [(0, 0)], 1: [(0, 0), (2, 2)], 2: [(0, 0)]}
    for n in range(0, 11):
        want = {kh: VirtualRep.unit() for kh in cells.get(n, [(0, 0), (3, 4)])}
        assert mixed_table(0, n).entries == want, n


def test_genus0_betti_table():
    assert betti(0, 0) == (1,)
    assert betti(0, 1) == (1, 0, 1)  # the sphere itself
    assert betti(0, 2) == (1,)
    for n in range(3, 10):
        assert betti(0, n) == (1, 0, 0, 1)


def test_genus0_euler_consistency():
    # the Betti table must be consistent with the (1+u)^2 Euler series
    for n in range(0, 10):
        chi = sum((-1) ** k * d for k, d in enumerate(betti(0, n)))
        assert chi == euler_binomials(0, n)[n]


def test_mixed_table_rejects_a_negative_point():
    for g, n in ((-1, 2), (0, -1), (2, -1)):
        with pytest.raises(ValueError, match="need g >= 0 and n >= 0"):
            mixed_table(g, n)
