import random

import pytest

from confcoh.reps import RepLabel, VirtualRep
from confcoh.series import (
    BothSidesVirtual,
    OutOfTruncation,
    TriSeries,
    geom_u,
)

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
    assert b.get(0, 0, 2).scalar_value() == 3  # 1 + 2u + 3u^2 after truncation


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
    assert geom_u(7).get(0, 0, 7).scalar_value() == 1


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
    assert TriSeries.zero(2).text() == "0"


def test_grouped_u_text():
    q = TriSeries(3, {(0, 0, 0): 1, (0, 0, 1): 1, (1, 0, 1): 2, (2, 0, 1): 1})
    assert q.grouped_u_text() == "1 + (1 + 2t + t²)u"
    assert TriSeries.one(0).grouped_u_text() == "1"


def test_json_round_trip():
    q = TriSeries(
        4, {(1, 0, 1): VirtualRep.single(W1), (0, 0, 0): 3, (2, 2, 4): -1}
    )
    assert TriSeries.from_json(q.to_json(), 4) == q

