import pytest

from confcoh import closedform
from confcoh.closedform import (
    MixedTable,
    betti,
    build_Q,
    euler_binomials,
    euler_series,
    genus0_betti,
    mixed_table,
    q_bracket,
    stabilization_bound,
)
from confcoh.reps import TRIVIAL, RepLabel, VirtualRep, rep_label
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
    """Adds one scalar term (t, s, u) to the bracket before its checks."""

    def inject(t, s, u):
        terms = closedform._bracket_terms

        def with_term(g, N):
            return terms(g, N) + [(t, s, u, TRIVIAL)]

        monkeypatch.setattr(closedform, "_bracket_terms", with_term)

    yield inject


@pytest.mark.parametrize(
    "term, message",
    [
        ((1, 0, 0), r"u\^0 coefficient must be 1"),
        ((6, 0, 1), r"t <= u \+ 2g \+ 2"),
        ((0, 0, 2), r"u <= t \+ s \+ 1"),
        ((1, 0, 2), r"u <= t \+ 2s"),
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


def test_slice_matches_the_checked_constructor():
    # each column that _slice takes over against the same column rebuilt
    # from the bracket's terms through the constructor that normalises
    for g in range(1, 9):
        for n in range(25):
            columns = {}
            for t, s, _, label in q_bracket(g, n):
                columns.setdefault((t, s), []).append((label, 1))
            want = {ts: VirtualRep(column) for ts, column in columns.items()}
            assert closedform._slice(g, n) == want, (g, n)


@pytest.mark.parametrize("counts", [{TRIVIAL: 0}, {W1: 2, TRIVIAL: 0}])
def test_from_counts_rejects_a_zero_multiplicity(counts):
    with pytest.raises(ValueError, match="zero multiplicity"):
        VirtualRep.from_counts(counts)


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
    # the u^n slice at (t, s) is the bracket's (t, s) column summed over u <= n
    for g in range(1, 6):
        for n in range(13):
            slice_n = {}
            for t, s, u, label in q_bracket(g, n):
                assert u <= n
                rep = VirtualRep.single(label)
                slice_n[(t, s)] = slice_n.get((t, s), VirtualRep.zero()) + rep
            slice_n = {ts: rep for ts, rep in slice_n.items() if rep}
            want = {(t + s, t + 2 * s): rep for (t, s), rep in slice_n.items()}
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


def test_stabilization_examples():
    assert stabilization_bound(1, 0, 0) == 0
    assert stabilization_bound(1, 2, 2) == 1
    assert stabilization_bound(1, 3, 2) == 0  # h < k, no such entry
    assert stabilization_bound(2, 1, 3) == 0  # t-exponent would be negative


def test_stabilization_bound_is_at_most_the_weight():
    # every bracket term has u <= t + 2s = h, and the entry settles at the
    # largest such u
    for g in range(1, 7):
        for k in range(25):
            for h in range(k, 2 * k + 1):
                assert stabilization_bound(g, k, h) <= h, (g, k, h)


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


def test_genus0_betti_table():
    assert genus0_betti(0) == (1,)
    assert genus0_betti(1) == (1, 0, 1)  # the sphere itself
    assert genus0_betti(2) == (1, 0, 0)
    for n in range(3, 10):
        assert genus0_betti(n) == (1, 0, 0, 1)


def test_genus0_euler_consistency():
    # the Betti table must be consistent with the (1+u)^2 Euler series
    for n in range(0, 10):
        chi = sum((-1) ** k * d for k, d in enumerate(genus0_betti(n)))
        assert chi == euler_binomials(0, n)[n]
