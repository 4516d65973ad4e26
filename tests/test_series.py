import random

import pytest

from confcoh.reps import RepLabel, VirtualRep
from confcoh.series import BothSidesVirtual, OutOfTruncation, TriSeries
from reference import coeff, geom_u

W1 = RepLabel(0, 1)


def test_add_and_negate():
    one_plus_t = TriSeries(5, {(0, 0, 0): 1, (1, 0, 0): 1})
    assert one_plus_t + (-TriSeries.one(5)) == TriSeries.term(5, 1, 0, 0)


def test_rep_coefficients_accumulate():
    a = TriSeries(5, {(1, 0, 1): VirtualRep.single(W1)})
    assert a + a == TriSeries(5, {(1, 0, 1): VirtualRep.single(W1, 2)})


def test_truncation_drops_silently():
    a = TriSeries.one(3) + TriSeries.term(3, 0, 0, 4)  # u^4 beyond truncation
    assert a == TriSeries.one(3)
    b = geom_u(2) * geom_u(2)
    assert coeff(b, 0, 0, 2).scalar_value() == 3  # 1 + 2u + 3u^2 after truncation


def test_polynomial_product():
    a = TriSeries(10, {(0, 0, 0): 1, (2, 0, 1): 1})  # 1 + t^2 u
    b = TriSeries(10, {(0, 0, 0): 1, (2, 1, 3): 1})  # 1 + t^2 s u^3
    want = TriSeries(
        10, {(0, 0, 0): 1, (2, 0, 1): 1, (2, 1, 3): 1, (4, 1, 4): 1}
    )
    assert b * a == want


def test_geom_u():
    assert geom_u(0) == TriSeries.one(0)
    assert geom_u(2) == TriSeries(2, {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): 1})
    assert coeff(geom_u(7), 0, 0, 7).scalar_value() == 1


def test_rep_times_scalar_series():
    a = TriSeries(5, {(1, 0, 1): VirtualRep.single(W1)})
    b = TriSeries(5, {(0, 0, 0): 1, (0, 1, 2): 1})
    want = TriSeries(
        5, {(1, 0, 1): VirtualRep.single(W1), (1, 1, 3): VirtualRep.single(W1)}
    )
    assert a * b == want


def test_both_sides_virtual_rejected():
    a = TriSeries(5, {(1, 0, 1): VirtualRep.single(W1)})
    with pytest.raises(BothSidesVirtual):
        a * a


def test_coeff_u():
    q = geom_u(5) * TriSeries.term(5, 2, 0, 1)
    assert q.coeff_u(1) == {(2, 0): VirtualRep.unit()}
    assert q.coeff_u(0) == {}
    with pytest.raises(OutOfTruncation):
        q.coeff_u(6)


def _random_scalar_tri(rng, trunc):
    coeffs = {}
    for _ in range(rng.randint(0, 8)):
        key = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, trunc))
        coeffs[key] = coeffs.get(key, 0) + rng.randint(-3, 3)
    return TriSeries(trunc, coeffs)


def test_ring_axioms_random():
    rng = random.Random(99)
    for _ in range(60):
        trunc = rng.randint(0, 6)
        a = _random_scalar_tri(rng, trunc)
        b = _random_scalar_tri(rng, trunc)
        c = _random_scalar_tri(rng, trunc)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _random_labelled_tri(rng, trunc):
    coeffs = {}
    for _ in range(rng.randint(0, 8)):
        key = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, trunc))
        label = RepLabel(rng.randint(0, 2), rng.randint(0, 2))
        coeffs[key] = VirtualRep.single(label, rng.randint(-3, 3))
    return TriSeries(trunc, coeffs)


def _reference_product(a, b):
    """Term-by-term product, scaling each labelled coefficient by the
    scalar one it meets."""
    trunc = min(a.u_trunc, b.u_trunc)
    out = {}
    for (t1, s1, u1), c1 in a.coeffs():
        for (t2, s2, u2), c2 in b.coeffs():
            if u1 + u2 > trunc:
                continue
            if c1.is_scalar():
                c = c2.scaled(c1.scalar_value())
            else:
                c = c1.scaled(c2.scalar_value())
            key = (t1 + t2, s1 + s2, u1 + u2)
            out[key] = out.get(key, VirtualRep.zero()) + c
    return TriSeries(trunc, out)


def test_mul_matches_term_by_term_reference():
    rng = random.Random(11)
    for _ in range(80):
        trunc = rng.randint(0, 6)
        a = _random_scalar_tri(rng, trunc)
        a = a + TriSeries.term(trunc, 1, 0, 0, rng.choice([-2, 2, 3]))  # k != 1
        b = _random_labelled_tri(rng, rng.randint(0, 6))
        want = _reference_product(a, b)
        assert a * b == want
        assert b * a == want
        c = _random_scalar_tri(rng, trunc)
        assert a * c == _reference_product(a, c)


def test_div_one_minus_u_matches_geometric_product():
    rng = random.Random(3)
    for _ in range(60):
        trunc = rng.randint(0, 7)
        for a in (_random_scalar_tri(rng, trunc), _random_labelled_tri(rng, trunc)):
            assert a.div_one_minus_u() == geom_u(trunc) * a
    # the (1, 0) column sums back to zero from u^3 on and stores nothing there
    a = TriSeries(5, {(1, 0, 1): 2, (1, 0, 3): -2, (0, 0, 0): 1})
    q = a.div_one_minus_u()
    assert q == geom_u(5) * a
    assert [key for key, _ in q.coeffs() if key[:2] == (1, 0)] == [(1, 0, 1), (1, 0, 2)]
    assert all(c for _, c in q.coeffs())


def test_mul_respects_truncation():
    # the u^n slice of a product only sees slices up to n of the factors
    rng = random.Random(5)
    for _ in range(40):
        a = _random_scalar_tri(rng, 8)
        b = _random_scalar_tri(rng, 8)
        n = rng.randint(0, 5)
        a_cut = TriSeries(n, {k: v for k, v in a.coeffs()})
        b_cut = TriSeries(n, {k: v for k, v in b.coeffs()})
        assert (a * b).coeff_u(n) == (a_cut * b_cut).coeff_u(n)


def test_text_rendering():
    q = TriSeries(
        5,
        {
            (0, 0, 0): 1,
            (2, 1, 3): VirtualRep.single(RepLabel(1, 1)),
            (1, 0, 1): 2,
        },
    )
    assert q.text() == "1 + 2t·u + [V(1,1)]·t²s·u³"
    assert TriSeries(2).text() == "0"


def test_grouped_u_text():
    q = TriSeries(3, {(0, 0, 0): 1, (0, 0, 1): 1, (1, 0, 1): 2, (2, 0, 1): 1})
    assert q.grouped_u_text() == "1 + (1 + 2t + t²)u"
    assert TriSeries.one(0).grouped_u_text() == "1"


def test_json_round_trip():
    q = TriSeries(
        4, {(1, 0, 1): VirtualRep.single(W1), (0, 0, 0): 3, (2, 2, 4): -1}
    )
    assert TriSeries.from_json(q.to_json(), 4) == q

