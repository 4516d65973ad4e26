import random
import re
from itertools import permutations, product
from math import comb

import pytest

from confcoh import reps
from confcoh.reps import (
    NotACharacter,
    RepLabel,
    TRIVIAL,
    VirtualRep,
    ZERO,
    _dominant_mults,
    _dominant_weights_below,
    _hook_label,
    dim_irrep,
    highest_weight,
    irreducible_character,
    orbit_size,
    peel_character,
    rep_label,
)
from reference import (
    _branch_series,
    _branch_strip,
    branching_hook,
    character_mass,
    character_of,
    dominant_mults,
    ext_power_decomp,
    rep_from_json,
    sl_hook_dim,
    tensor_std_sym_decomp,
    weyl_dim,
)


def V(g, i, j, mult=1):
    return VirtualRep.single(rep_label(g, i, j), mult)


# --- labels -----------------------------------------------------------------


def test_rep_label_clamps_to_zero():
    assert rep_label(2, -1, 1) == ZERO
    assert rep_label(2, 0, 3) == ZERO
    assert rep_label(2, 0, -1) == ZERO
    assert rep_label(2, 0, 0) == TRIVIAL


def test_rep_label_normalizes_before_clamping():
    # i*w1 is (i-1)*w1 + w_1, which names no irreducible of sp(0)
    assert rep_label(0, 2, 0) == ZERO
    assert rep_label(0, 1, 0) == ZERO
    assert rep_label(0, 0, 0) == TRIVIAL
    assert rep_label(1, 2, 0) == RepLabel(1, 1)


def test_rep_label_normalizes_pure_symmetric_powers():
    # i*w1 and (i-1)*w1 + w1 are the same representation
    assert rep_label(3, 4, 0) == RepLabel(3, 1)
    assert highest_weight(3, RepLabel(4, 0)) == highest_weight(3, RepLabel(3, 1))


def test_virtualrep_merges_equivalent_labels():
    v = VirtualRep([(RepLabel(2, 0), 1), (RepLabel(1, 1), 1)])
    assert v == VirtualRep.single(RepLabel(1, 1), 2)


def test_virtualrep_text_and_json_round_trip():
    v = VirtualRep([(RepLabel(1, 2), 3), (TRIVIAL, 1)])
    assert v.text() == "3·V(1,2) + V(0,0)"
    assert rep_from_json(v.to_json()) == v
    assert VirtualRep.zero().text() == "0"
    assert (V(2, 0, 1) - V(2, 0, 1)) == VirtualRep.zero()


# --- dimensions -------------------------------------------------------------


def test_dim_standard_is_2g():
    for g in range(1, 5):
        assert dim_irrep(g, RepLabel(0, 1)) == 2 * g


def test_dim_examples():
    assert dim_irrep(2, RepLabel(1, 2)) == 16
    assert dim_irrep(1, RepLabel(1, 1)) == 3  # sp(2) three-dimensional irrep


def test_weyl_dim_examples():
    assert weyl_dim(2, (1, 0)) == 4
    assert weyl_dim(2, (1, 1)) == 5  # second exterior power minus the invariant
    assert weyl_dim(3, (0, 0, 0)) == 1


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(2, (0, 1))
    with pytest.raises(ValueError):
        weyl_dim(2, (1, -1))


def test_dim_irrep_rejects_bad_input():
    # (1, 0) is V(0,1) once normalised, and sp(0) has only V(0,0)
    for g, label in ((0, RepLabel(0, 1)), (0, RepLabel(1, 0)), (-1, TRIVIAL)):
        with pytest.raises(ValueError):
            dim_irrep(g, label)
    with pytest.raises(ValueError):
        dim_irrep(2, ZERO)


def test_genus0_has_only_the_trivial_representation():
    # sp(0) is the zero Lie algebra: its weights are the empty tuple
    assert dim_irrep(0, TRIVIAL) == 1
    assert highest_weight(0, TRIVIAL) == ()
    assert _dominant_weights_below(0, ()) == [()]
    assert irreducible_character(0, TRIVIAL) == {(): 1}
    assert orbit_size(()) == 1
    assert peel_character(0, {(): 3}) == VirtualRep.unit(3)
    assert VirtualRep.unit(2).dim(0) == 2


def test_closed_form_equals_weyl_formula():
    # labels (i, 0) with i >= 1 too, which dim_irrep normalises to (i-1, 1)
    for g in range(1, 5):
        for i in range(0, 12):
            for j in range(0, g + 1):
                label = RepLabel(i, j)
                assert dim_irrep(g, label) == weyl_dim(g, highest_weight(g, label))


def test_sl_hook_dim_examples():
    assert sl_hook_dim(2, 0, 2) == 6  # second exterior power of the 4-dim standard
    assert sl_hook_dim(2, 1, 2) == 20
    # single-row hook at g=1 is the third symmetric power of the sl(2) standard
    assert sl_hook_dim(1, 2, 1) == 4


def test_sl_hook_dim_range():
    with pytest.raises(ValueError):
        sl_hook_dim(2, 0, 5)


def test_sl_hook_binomial_identity():
    # dim(hook(i,j)) + dim(hook(i-1,j+1)) = C(2g,j) * C(i+2g-1,i)
    for g in range(1, 5):
        for i in range(0, 12):
            for j in range(1, 2 * g + 1):
                lhs = comb(i + j - 1, i) * comb(i + 2 * g, i + j)
                if i >= 1 and j + 1 <= 2 * g:
                    lhs += comb(i + j - 1, i - 1) * comb(i + 2 * g - 1, i + j)
                assert lhs == comb(2 * g, j) * comb(i + 2 * g - 1, i)


# --- decompositions ---------------------------------------------------------


def test_ext_power_examples():
    assert ext_power_decomp(2, 2) == V(2, 0, 2) + VirtualRep.unit()
    assert ext_power_decomp(3, 3) == V(3, 0, 3) + V(3, 0, 1)
    assert ext_power_decomp(2, 0) == VirtualRep.unit()


def test_ext_power_dimension_and_duality():
    for g in range(1, 5):
        for j in range(0, 2 * g + 1):
            dec = ext_power_decomp(g, j)
            assert dec.effective_dim(g) == comb(2 * g, j)
            assert dec == ext_power_decomp(g, 2 * g - j)


def test_effective_dim_follows_the_genus():
    # the kept (g, dim) answers a call at its own genus only
    std = RepLabel(1, 0)
    rep = VirtualRep.single(std, 3) + VirtualRep.unit()
    for g in (1, 2, 1):
        assert rep.effective_dim(g) == 3 * dim_irrep(g, std) + 1, g
    negative = rep - VirtualRep.unit(2)
    for g in (1, 2, 2):
        assert negative.effective_dim(g) is None, g


def test_tensor_examples():
    assert tensor_std_sym_decomp(2, 1, 1) == V(2, 1, 1) + V(2, 0, 2) + VirtualRep.unit()
    assert tensor_std_sym_decomp(1, 1, 1) == V(1, 1, 1) + VirtualRep.unit()
    dec = tensor_std_sym_decomp(2, 2, 2)
    assert dec == V(2, 2, 2) + V(2, 1, 1) + V(2, 0, 2)
    assert dec.dim(2) == 50


def test_tensor_dimension_identity():
    for g in range(1, 5):
        for i in range(1, 10):
            for j in range(1, g + 1):
                dec = tensor_std_sym_decomp(g, i, j)
                assert all(m == 1 for _, m in dec.items())
                want = dim_irrep(g, rep_label(g, 0, j)) * comb(2 * g + i - 1, i)
                assert dec.dim(g) == want


def test_branching_examples():
    assert branching_hook(2, 0, 2) == ext_power_decomp(2, 2)
    assert branching_hook(2, 1, 2) == V(2, 1, 2) + V(2, 0, 1)
    b = branching_hook(2, 0, 3)
    assert b == V(2, 0, 1)
    assert b.dim(2) == comb(4, 3)


def test_branching_dimension_identity():
    for g in range(1, 5):
        for i in range(0, 10):
            for j in range(1, 2 * g + 1):
                dec = branching_hook(g, i, j)
                assert dec.effective_dim(g) == sl_hook_dim(g, i, j)


def test_branching_at_i0_is_exterior_power():
    # arm zero makes the hook an exterior power, for every leg length
    for g in range(1, 5):
        for j in range(1, 2 * g + 1):
            assert branching_hook(g, 0, j) == ext_power_decomp(g, j)


def test_branching_strip_rule_matches_ring_evaluation():
    # two independent routes below the middle leg length
    for g in range(1, 5):
        for i in range(0, 8):
            for j in range(1, g + 1):
                assert _branch_strip(g, i, j) == _branch_series(g, i, j)


def test_branching_full_column_hook():
    # leg 2g leaves exactly the i-th symmetric power
    for g in range(1, 4):
        for i in range(0, 6):
            dec = branching_hook(g, i, 2 * g)
            assert dec == VirtualRep.single(rep_label(g, i, 0))
            assert dec.dim(g) == comb(2 * g + i - 1, i)


# --- characters -------------------------------------------------------------


def test_character_standard():
    char = irreducible_character(1, RepLabel(0, 1))
    assert char == {(1,): 1}


def test_character_second_fundamental():
    char = irreducible_character(2, RepLabel(0, 2))
    assert char == {(1, 1): 1, (0, 0): 1}


def test_character_built_once_per_label():
    # peel_character asks for the same characters at every step
    char = irreducible_character(3, RepLabel(1, 2))
    assert char is irreducible_character(3, (1, 2))
    with pytest.raises(TypeError):  # shared, so read-only
        char[(0, 0, 0)] = 0


def test_character_trivial():
    for g in (0, 1, 2, 3):
        assert irreducible_character(g, TRIVIAL) == {(0,) * g: 1}


@pytest.mark.parametrize("g, label", [
    (0, RepLabel(0, 1)),  # sp(0) has only V(0,0)
    (2, RepLabel(-2, 1)),  # a negative multiple of w1
    (1, RepLabel(0, 5)),  # w5 past the rank
])
def test_character_rejects_an_invalid_label(g, label):
    # the same check as dim_irrep, naming the label, before any weight is built
    message = re.escape(f"label {label} invalid for genus {g}")
    with pytest.raises(ValueError, match=message):
        irreducible_character(g, label)
    with pytest.raises(ValueError, match=message):
        dim_irrep(g, label)


def test_character_rejects_zero_and_a_negative_genus():
    with pytest.raises(ValueError, match="ZERO label has no character"):
        irreducible_character(2, ZERO)
    with pytest.raises(ValueError, match="genus must be >= 0"):
        irreducible_character(-1, TRIVIAL)


def test_character_mass_is_dimension():
    for g in (1, 2, 3, 4, 5):
        for i in range(0, 4):
            for j in range(0, g + 1):
                label = rep_label(g, i, j)
                if label == ZERO:
                    continue
                char = irreducible_character(g, label)
                assert character_mass(char) == dim_irrep(g, label)


def test_dominant_mults_match_the_whole_weight_walk():
    # the moved-coordinate alpha-string walk against the walk over whole
    # weights and dense roots, on every hook label with g <= 5 and
    # i + j <= 8, and at g = 7 with i + j <= 4 or i = 0
    labels = {
        (g, rep_label(g, i, j))
        for g in (1, 2, 3, 4, 5, 7)
        for i in range(9)
        for j in range(g + 1)
        if (i + j <= 8 if g <= 5 else i + j <= 4 or i == 0)
    }
    assert len(labels) == 119
    for g, label in sorted(labels):
        lam = highest_weight(g, label)
        assert _dominant_mults(g, lam) == dominant_mults(g, lam), (g, label)


def test_irreducible_character_runs_the_recursion_once_per_label(monkeypatch):
    # _dominant_mults keeps nothing itself: irreducible_character keeps each
    # character per (genus, label), so a second read runs no recursion
    calls = []

    def counted(g, lam):
        calls.append((g, lam))
        return _dominant_mults(g, lam)

    monkeypatch.setattr(reps, "_dominant_mults", counted)
    irreducible_character.cache_clear()
    try:
        labels = sorted(
            {(g, rep_label(g, i, j)) for g in (2, 3) for i in range(3) for j in range(g + 1)}
            - {(g, ZERO) for g in (2, 3)}
        )
        first = [irreducible_character(g, label) for g, label in labels]
        again = [irreducible_character(g, label) for g, label in labels]
        assert all(a is b for a, b in zip(first, again))
        assert len(calls) == len(labels) == len(set(calls))
    finally:
        irreducible_character.cache_clear()


def _orbit(w):
    """Weyl orbit of a weight, spelled out as every signed permutation."""
    out = set()
    for perm in permutations(w):
        for signs in product((1, -1), repeat=len(w)):
            out.add(tuple(s * x for s, x in zip(signs, perm)))
    return out


def test_orbit_size_matches_signed_permutations():
    # both parities of dominant weights, up to genus 4
    for g in range(1, 5):
        for top in ((4,) * g, (3,) + (2,) * (g - 1)):
            for w in _dominant_weights_below(g, top):
                assert orbit_size(w) == len(_orbit(w)), w


@pytest.mark.parametrize(
    "g, char, under",
    [
        pytest.param(2, {(1, -1): 1}, None, id="negative-coordinate"),
        pytest.param(2, {(0, 1): 1}, None, id="increasing"),
        # V(0,2) peels off first and leaves (0, 1) as the highest weight
        pytest.param(2, {(0, 1): 1}, RepLabel(0, 2), id="left-over"),
        pytest.param(1, {(1, 1): 1}, None, id="wrong-length"),
    ],
)
def test_peel_rejects_non_dominant_weight(g, char, under):
    # ``under``'s character is built here, not at collection, so that a
    # broken Freudenthal recursion fails this case alone
    if under is not None:
        char = {**irreducible_character(g, under), **char}
    with pytest.raises(NotACharacter, match="not of hook form"):
        peel_character(g, char)


def test_hook_label_inverts_highest_weight():
    for g in range(1, 6):
        for i in range(7):
            for j in range(g + 1):
                label = rep_label(g, i, j)
                if label != ZERO:
                    assert _hook_label(g, highest_weight(g, label)) == label


def test_peel_irreducible():
    for g in (1, 2):
        label = RepLabel(1, g)
        char = irreducible_character(g, label)
        assert peel_character(g, char) == VirtualRep.single(label)


def test_peel_empty():
    assert peel_character(2, {}) == VirtualRep.zero()


def test_peel_exterior_square():
    # character of the second exterior power of the standard of sp(4)
    char = character_of(2, ext_power_decomp(2, 2))
    assert peel_character(2, char) == ext_power_decomp(2, 2)


def test_peel_round_trip_random():
    rng = random.Random(41)
    for g in (1, 2, 3):
        labels = [
            rep_label(g, i, j)
            for i in range(0, 4)
            for j in range(0, g + 1)
            if rep_label(g, i, j) != ZERO and dim_irrep(g, rep_label(g, i, j)) <= 10_000
        ]
        for _ in range(10):
            picked = rng.sample(labels, rng.randint(1, min(4, len(labels))))
            v = VirtualRep([(l, rng.randint(1, 3)) for l in picked])
            assert peel_character(g, character_of(g, v)) == v


def test_peel_round_trip_near_dimension_bound():
    # the largest labels with dimension <= 10^4 at each genus
    for g, label in ((1, RepLabel(998, 1)), (2, RepLabel(28, 2)), (3, RepLabel(8, 3))):
        assert dim_irrep(g, label) <= 10_000
        char = irreducible_character(g, label)
        assert character_mass(char) == dim_irrep(g, label)
        assert peel_character(g, char) == VirtualRep.single(label)


def test_peel_rejects_non_character():
    # (1, 0) is not a weight of V(1,1) = S^2 V at g=2 (its weights have even
    # coordinate sum), so peeling V(1,1) leaves multiplicity -1 there
    char = irreducible_character(2, RepLabel(1, 1))
    broken = {**char, (1, 0): -1}
    with pytest.raises(NotACharacter, match="negative multiplicity"):
        peel_character(2, broken)
    # 2w1 + 2w2 is dominant but outside the i*w1 + w_j family
    with pytest.raises(NotACharacter, match="not of hook form"):
        peel_character(2, {(2, 2): 1})
