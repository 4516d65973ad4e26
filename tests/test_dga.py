import hashlib
import os
import random
from collections import Counter

import pytest

from confcoh import dga
from confcoh.closedform import build_Q, mixed_table
from confcoh.dga import (
    Genus0N1Unsupported,
    Monomial,
    cohomology_dims,
    cohomology_reps,
    cohomology_weights,
    differential_monomial,
    dump_blocks,
    enumerate_basis,
    mono_degrees,
    mono_weight,
)
from confcoh.linalg import rank
from confcoh.reps import RepLabel, VirtualRep, _dom_rep
from reference import (
    basis_count_series,
    blocks,
    character_mass,
    differential_block,
    from_entries,
    is_dominant,
    per_cell_dims,
    read_matrix_market,
    u_slice,
)

INSTANCES = [
    (0, 4, "A"),
    (0, 4, "B"),
    (1, 5, "A"),
    (1, 4, "B"),
    (2, 4, "A"),
    (2, 3, "B"),
    (3, 3, "A"),
]

# model A at genus 1-5 as far as the whole-basis reference stays near a
# second in all (the larger acceptance points run through the acceptance
# criteria only), and model B up to the largest n of the benchmark's
# model_b points per genus
MODEL_A_SWEEP = ((1, 14), (2, 10), (3, 8), (4, 7), (5, 6))
MODEL_B_SWEEP = ((1, 22), (2, 11), (3, 8), (4, 6))


def sweep_points():
    """(g, n, model) over genus 0 (n <= 12, both models), MODEL_A_SWEEP
    and MODEL_B_SWEEP."""
    points = [(0, n, model) for n in range(13) for model in "AB"]
    points += [(g, n, "A") for g, top in MODEL_A_SWEEP for n in range(top + 1)]
    points += [(g, n, "B") for g, top in MODEL_B_SWEEP for n in range(top + 1)]
    return points


def one(g):
    return Monomial(0, 0, 0, 0, (0,) * (2 * g))


# --- generators and basis ----------------------------------------------------


def test_generator_degrees_match_table():
    g = 2
    z = (0,) * 4
    # a_1, b_2, p, s1, sa_1, sb_2 probed through single-generator monomials
    assert mono_degrees(g, Monomial(1, 0, 0, 0, z)) == (1, 0, 1)
    assert mono_degrees(g, Monomial(8, 0, 0, 0, z)) == (1, 0, 1)
    assert mono_degrees(g, Monomial(0, 0, 1, 0, z)) == (2, 0, 1)
    assert mono_degrees(g, Monomial(0, 1, 0, 0, z)) == (0, 1, 2)
    assert mono_degrees(g, Monomial(0, 0, 0, 1, z)) == (2, 1, 2)
    assert mono_degrees(g, Monomial(0, 0, 0, 0, (1, 0, 0, 0))) == (1, 1, 2)
    assert mono_degrees(g, Monomial(0, 0, 0, 0, (0, 0, 0, 1))) == (1, 1, 2)


def test_degree_formulas_consistent():
    # deg1, deg2, deg3 of a monomial from its exponents
    for g, n, model in INSTANCES:
        for m in enumerate_basis(g, n, model):
            ext_bits = bin(m.ext).count("1")
            sym = sum(m.sym)
            d1, d2, d3 = mono_degrees(g, m)
            assert d1 == ext_bits + 2 * m.p + 2 * m.sp + sym
            assert d2 == m.s1 + m.sp + sym
            assert d3 == ext_bits + m.p + 2 * m.s1 + 2 * m.sp + 2 * sym


def test_basis_examples():
    basis = enumerate_basis(1, 1, "A")
    assert len(basis) == 4  # 1, a1, b1, p
    assert len(enumerate_basis(0, 2, "A")) == 3  # 1, p, s1
    assert len(enumerate_basis(1, 2, "B")) == 12


def test_basis_counts_match_generating_function():
    for g, n, model in INSTANCES:
        counts = Counter(mono_degrees(g, m)[2] for m in enumerate_basis(g, n, model))
        series = basis_count_series(g, model, n)
        assert [counts.get(k, 0) for k in range(n + 1)] == series


def test_basis_deterministic():
    assert enumerate_basis(2, 4, "A") == enumerate_basis(2, 4, "A")
    assert list(enumerate_basis(2, 4, "A")) == sorted(enumerate_basis(2, 4, "A"))


# --- the differential ---------------------------------------------------------


def test_d_of_s1():
    g = 1
    m = Monomial(0, 1, 0, 0, (0, 0))
    terms = dict(
        ((mono, c) for c, mono in differential_monomial(g, "A", m))
    )
    assert terms == {
        Monomial(0, 0, 1, 0, (0, 0)): 1,  # p
        Monomial(3, 0, 0, 0, (0, 0)): -1,  # a1 b1
    }


def test_d_of_sa1():
    g = 1
    m = Monomial(0, 0, 0, 0, (1, 0))
    assert differential_monomial(g, "A", m) == [
        (1, Monomial(1, 0, 1, 0, (0, 0)))  # a1 p
    ]


def test_d_of_sa1_times_p_vanishes_in_A():
    g = 1
    m = Monomial(0, 0, 1, 0, (1, 0))
    assert differential_monomial(g, "A", m) == []
    # but survives in model B as a1 p^2
    assert differential_monomial(g, "B", m) == [(1, Monomial(1, 0, 2, 0, (0, 0)))]


def test_d_of_sp():
    g = 1
    m = Monomial(0, 0, 0, 1, (0, 0))
    assert differential_monomial(g, "B", m) == [(1, Monomial(0, 0, 2, 0, (0, 0)))]


def reference_differential(g, model, m):
    """d by the Leibniz rule on the spelled-out generator word, each term
    resorted with its Koszul sign: the slow reference for
    differential_monomial, as {Monomial: coeff}."""
    # generator codes in the canonical order a < b < s1 < p < sp < sa < sb
    s1, p, sp = 2 * g, 2 * g + 1, 2 * g + 2
    sym = [sp + 1 + j for j in range(2 * g)]  # sa_1..sa_g, sb_1..sb_g

    def odd(code):
        return code <= s1 or code == sp

    d_gen = {s1: [(1, [p])] + [(-1, [i, g + i]) for i in range(g)], sp: [(1, [p, p])]}
    d_gen.update({sym[j]: [(1, [j, p])] for j in range(2 * g)})  # a_i p, b_i p
    word = [code for code in range(2 * g) if m.ext >> code & 1]
    word += [s1] * m.s1 + [p] * m.p + [sp] * m.sp
    word += [sym[j] for j, e in enumerate(m.sym) for _ in range(e)]
    out = Counter()
    for k, code in enumerate(word):
        before = sum(map(odd, word[:k]))
        for coeff, image in d_gen.get(code, ()):
            new = word[:k] + image + word[k + 1:]
            odds = [x for x in new if odd(x)]
            if len(set(odds)) < len(odds):
                continue  # a repeated odd generator squares to zero
            if model == "A" and (new.count(p) > 1 or sp in new):
                continue  # model A is the quotient by (sp, p^2)
            inversions = sum(x > y for i, x in enumerate(odds) for y in odds[i + 1:])
            mono = Monomial(
                sum(1 << x for x in set(new) if x < 2 * g),
                new.count(s1),
                new.count(p),
                new.count(sp),
                tuple(new.count(x) for x in sym),
            )
            out[mono] += coeff * (-1) ** (before + inversions)
    return {mono: c for mono, c in out.items() if c}


def test_differential_matches_slow_reference():
    # d o d = 0 alone would not see a sign flipped on one generator
    for g, n, model in INSTANCES + [(4, 5, "A"), (3, 5, "B")]:
        for m in enumerate_basis(g, n, model):
            terms = differential_monomial(g, model, m)
            got = {mono: c for c, mono in terms}
            assert len(got) == len(terms) and all(got.values()), (g, n, model, m)
            assert got == reference_differential(g, model, m), (g, n, model, m)


def test_d_squared_is_zero():
    for g, n, model in INSTANCES:
        for m in enumerate_basis(g, n, model):
            acc = {}
            for c1, m1 in differential_monomial(g, model, m):
                for c2, m2 in differential_monomial(g, model, m1):
                    acc[m2] = acc.get(m2, 0) + c1 * c2
            assert not any(acc.values()), (g, n, model, m)


def test_d_is_bidegree_homogeneous():
    for g, n, model in INSTANCES:
        for m in enumerate_basis(g, n, model):
            d1, d2, d3 = mono_degrees(g, m)
            for _, image in differential_monomial(g, model, m):
                e1, e2, e3 = mono_degrees(g, image)
                assert (e1, e2) == (d1 + 2, d2 - 1)
                assert e3 <= d3  # the filtration is preserved


def test_d_preserves_torus_weight():
    for g, n, model in INSTANCES:
        if g == 0:
            continue
        for m in enumerate_basis(g, n, model):
            w = mono_weight(g, m)
            for _, image in differential_monomial(g, model, m):
                assert mono_weight(g, image) == w


def test_block_matrix_shift_and_composition():
    # at g=1 n=4 in model A no entry of d meets one of the next block's d,
    # so the points at g=2 and in model B are what make d∘d = 0 a check
    products = 0
    for g, n, model in ((1, 4, "A"), (2, 4, "A"), (1, 4, "B")):
        for block in sorted(blocks(g, n, model)):
            source, target, matrix = differential_block(g, n, model, block)
            assert matrix.n_cols == len(source)
            assert matrix.n_rows == len(target)
            nxt_source, _, nxt_matrix = differential_block(
                g, n, model, (block[0] + 2, block[1] - 1)
            )
            assert nxt_source == target
            # compose through the row dicts: every column of d followed by d
            # gives zero
            composed = {}
            for r2, nxt_row in nxt_matrix.rows.items():
                for r, v2 in nxt_row.items():
                    for col, v in matrix.rows.get(r, {}).items():
                        column = composed.setdefault(col, {})
                        column[r2] = column.get(r2, 0) + v2 * v
                        products += 1
            for col in range(len(source)):
                assert not any(composed.get(col, {}).values())
    assert products > 0


# --- cohomology ---------------------------------------------------------------


def test_cohomology_torus_n1():
    assert cohomology_dims(1, 1) == {(0, 0): 1, (1, 0): 2, (2, 0): 1}


def test_cohomology_genus0():
    assert cohomology_dims(0, 2) == {(0, 0): 1}
    dims = cohomology_dims(0, 3)
    betti = {}
    for (d1, d2), d in dims.items():
        betti[d1 + d2] = betti.get(d1 + d2, 0) + d
    assert betti == {0: 1, 3: 1}


def test_cohomology_genus0_n1_unsupported():
    with pytest.raises(Genus0N1Unsupported):
        cohomology_dims(0, 1)


def test_cohomology_g1_n3_regraded():
    dims = cohomology_dims(1, 3)
    betti = {}
    for (d1, d2), d in dims.items():
        betti[d1 + d2] = betti.get(d1 + d2, 0) + d
    assert [betti.get(k, 0) for k in range(5)] == [1, 2, 3, 4, 2]


def test_models_agree():
    # the quotient ideal is acyclic, so both models compute the same dims
    for g in (0, 1, 2):
        for n in range(0, 7):
            if g == 0 and n == 1:
                continue
            assert cohomology_dims(g, n, "A") == cohomology_dims(g, n, "B"), (g, n)


def test_euler_bookkeeping():
    # alternating sum of cohomology equals alternating sum of the basis
    for g, n, model in INSTANCES:
        if g == 0 and n == 1:
            continue
        chi_basis = 0
        for m in enumerate_basis(g, n, model):
            d1, d2, _ = mono_degrees(g, m)
            chi_basis += (-1) ** (d1 + d2)
        chi_cohom = sum(
            (-1) ** (d1 + d2) * d for (d1, d2), d in cohomology_dims(g, n, model).items()
        )
        assert chi_basis == chi_cohom


def test_cohomology_weights_torus():
    weights = cohomology_weights(1, 1)
    assert weights[(1, 0)] == {(1,): 1}
    assert weights[(0, 0)] == {(0,): 1}


def test_weights_mass_matches_dims():
    for g, n in ((1, 4), (2, 3)):
        dims = cohomology_dims(g, n)
        weights = cohomology_weights(g, n)
        assert set(weights) == set(dims)
        for block, char in weights.items():
            assert character_mass(char) == dims[block]


def test_cohomology_reps_torus():
    table = cohomology_reps(1, 1)
    assert table.entries == {
        (0, 0): VirtualRep.unit(),
        (1, 1): VirtualRep.single(RepLabel(0, 1)),
        (2, 2): VirtualRep.unit(),
    }


def test_cohomology_reps_match_closed_form():
    for g, n in ((1, 3), (1, 5), (2, 2), (2, 4), (3, 2), (3, 3)):
        assert cohomology_reps(g, n) == mixed_table(g, n), (g, n)


def test_cohomology_reps_store_the_right_dims():
    # the dims a brute-force table stores at construction against each
    # cell's VirtualRep.dim, recomputed
    for g, n, model in sweep_points():
        if g >= 1 and model == "A":
            table = cohomology_reps(g, n)
            json_dims = [row["dim"] for row in table.to_json()["table"]]
            got = list(table.dims().items()), table.betti(), table.euler(), json_dims
            assert got == per_cell_dims(table), (g, n)


def test_reps_cross_check_u_slice():
    table = cohomology_reps(2, 2)
    slice2 = u_slice(build_Q(2, 2), 2)
    want = {(t + s, t + 2 * s): rep for (t, s), rep in slice2.items()}
    assert table.entries == want


def reference_cohomology_by_weight(g, n):
    """dim H per ((deg1, deg2), weight) of model A over every torus weight,
    dominant or not: the slow reference for the dominant-only rank loop."""
    groups = {}
    for m in enumerate_basis(g, n, "A"):
        d1, d2, _ = mono_degrees(g, m)
        groups.setdefault(((d1, d2), mono_weight(g, m)), []).append(m)
    ranks = {}
    for ((d1, d2), w), source in groups.items():
        target = groups.get(((d1 + 2, d2 - 1), w), ())
        ranks[(d1, d2), w] = rank(dga._matrix(g, "A", source, target))
    out = {}
    for ((d1, d2), w), monos in groups.items():
        dim = len(monos) - ranks[(d1, d2), w] - ranks.get(((d1 - 2, d2 + 1), w), 0)
        if dim:
            out[(d1, d2), w] = dim
    return out


def test_cohomology_characters_are_weyl_invariant():
    # the model is Sp(2g)-equivariant, so every weight has the multiplicity
    # of its dominant representative and the orbits fill each block
    for g, n_max in ((1, 8), (2, 6), (3, 4)):
        for n in range(n_max + 1):
            weights = cohomology_weights(g, n)
            mass = Counter()
            for (block, w), dim in reference_cohomology_by_weight(g, n).items():
                got = weights.get(block, {}).get(_dom_rep(w))
                assert got == dim, (g, n, block, w)
                mass[block] += dim
            assert {block: character_mass(char) for block, char in weights.items()} == mass
            assert cohomology_dims(g, n) == mass, (g, n)


def reference_dominant_groups(g, n, model):
    """The whole basis filtered to dominant weights and grouped by
    ((deg1, deg2), weight): the slow reference for dga._dominant_groups."""
    groups = {}
    for m in enumerate_basis(g, n, model):
        w = mono_weight(g, m)
        if is_dominant(w):
            d1, d2, _ = mono_degrees(g, m)
            groups.setdefault(((d1, d2), w), []).append(m)
    return groups


def test_dominant_groups_match_filtered_reference():
    for g, n, model in sweep_points():
        got = dga._dominant_groups(g, n, model)
        assert got == reference_dominant_groups(g, n, model), (g, n, model)


def test_dominant_groups_check_their_arguments():
    with pytest.raises(ValueError, match="model"):
        cohomology_dims(1, 3, "C")
    with pytest.raises(ValueError, match="n >= 0"):
        dga._dominant_groups(1, -1, "A")


def test_empty_target_groups_have_no_differential():
    # the rank loop skips a group with no target, where d must vanish
    skipped = 0
    for g, n, model in sweep_points():
        groups = dga._dominant_groups(g, n, model)
        for ((d1, d2), w), source in groups.items():
            if ((d1 + 2, d2 - 1), w) not in groups:
                for m in source:
                    assert differential_monomial(g, model, m) == [], (g, n, model, m)
                skipped += 1
    assert skipped


def test_matrix_matches_the_checked_constructor():
    # the row writer against from_entries, which checks entry by entry,
    # on every group the rank loop ranks
    ranked = 0
    for g, n, model in sweep_points():
        groups = dga._dominant_groups(g, n, model)
        for ((d1, d2), w), source in groups.items():
            target = groups.get(((d1 + 2, d2 - 1), w))
            if not target:
                continue
            row = {m: r for r, m in enumerate(target)}
            entries = [
                (row[image], col, coeff)
                for col, m in enumerate(source)
                for coeff, image in differential_monomial(g, model, m)
            ]
            want = from_entries(len(target), len(source), entries)
            got = dga._matrix(g, model, source, target)
            assert got == want, (g, n, model, (d1, d2), w)
            ranked += 1
    assert ranked > 1000


SOURCE = Monomial(0, 0, 0, 0, (1, 0))
IMAGE = Monomial(1, 0, 1, 0, (0, 0))


@pytest.mark.parametrize(
    "terms, target, error",
    [
        pytest.param([(0, IMAGE)], [IMAGE], ValueError, id="zero"),
        pytest.param([(1, IMAGE), (2, IMAGE)], [IMAGE], ValueError, id="duplicate"),
        pytest.param([(1, IMAGE)], [one(1)], KeyError, id="row-outside-target"),
        pytest.param([(1, IMAGE)], [IMAGE, IMAGE], ValueError, id="repeated-target"),
    ],
)
def test_matrix_rejects_bad_terms(monkeypatch, terms, target, error):
    monkeypatch.setattr(dga, "differential_monomial", lambda g, model, m: terms)
    with pytest.raises(error):
        dga._matrix(1, "A", [SOURCE], target)


def test_matrix_reports_overwritten_terms(monkeypatch):
    # the second column writes IMAGE twice: one of its three terms is lost,
    # while the first column's term in the same row is kept
    columns = iter([[(1, IMAGE)], [(1, IMAGE), (2, one(1)), (-1, IMAGE)]])
    monkeypatch.setattr(dga, "differential_monomial", lambda g, model, m: next(columns))
    with pytest.raises(ValueError, match="3 entries written for 4 terms"):
        dga._matrix(1, "A", [SOURCE, SOURCE], [IMAGE, one(1)])


def test_genus0_builds_no_coordinate_table(monkeypatch):
    # the table grows as n^2, and genus 0 is budgeted to large n
    monkeypatch.setattr(dga, "_coordinate_states", None)
    assert dga._dominant_groups(0, 50, "B")


def test_rank_loop_does_not_enumerate_the_basis(monkeypatch, tmp_path):
    # nor does the dump, which writes what the rank loop ranks
    def whole_basis(*args):
        raise AssertionError("the rank loop or the dump enumerated the whole basis")

    want = (cohomology_dims(2, 5), cohomology_dims(1, 6, "B"), cohomology_reps(3, 4))
    monkeypatch.setattr(dga, "enumerate_basis", whole_basis)
    _clear_stores()
    try:
        got = (cohomology_dims(2, 5), cohomology_dims(1, 6, "B"), cohomology_reps(3, 4))
    finally:
        _clear_stores()
    assert got == want
    assert dump_blocks(2, 5, "B", tmp_path)


def test_negative_dimension_raises(monkeypatch):
    # a rank above the group size is caught even under python -O
    monkeypatch.setattr(dga, "rank", lambda matrix: matrix.n_cols + 1)
    _clear_stores()
    try:
        with pytest.raises(ArithmeticError, match=r"\(block, weight\)"):
            cohomology_dims(1, 2)
    finally:
        _clear_stores()


def _clear_stores():
    """Forget every computed point and every stored stable piece."""
    dga._cohomology_by_weight.cache_clear()
    dga._stable_pieces.cache_clear()


# every (g, model) with g <= 3, and genus 0 up to n = 12, both models
STORE_SWEEPS = [
    (0, 12, "A"), (0, 12, "B"), (1, 14, "A"), (1, 12, "B"),
    (2, 8, "A"), (2, 7, "B"), (3, 6, "A"), (3, 5, "B"),
]


def _point(g, n, model):
    """The point's cells, or the exception class it raises."""
    try:
        return dict(dga._cohomology_by_weight(g, n, model))
    except Genus0N1Unsupported as exc:
        return type(exc)


def test_store_served_points_equal_fresh_recomputation():
    # ascending, descending and shuffled sweeps, each from an empty store,
    # against each point computed alone from an empty store
    rng = random.Random(5)
    try:
        for g, top, model in STORE_SWEEPS:
            fresh = {}
            for n in range(top + 1):
                _clear_stores()
                fresh[n] = _point(g, n, model)
            shuffled = list(range(top + 1))
            rng.shuffle(shuffled)
            for order in (range(top + 1), range(top, -1, -1), shuffled):
                _clear_stores()
                for n in order:
                    assert _point(g, n, model) == fresh[n], (g, model, list(order), n)
            assert (fresh[1] is Genus0N1Unsupported) == (g == 0)
    finally:
        _clear_stores()


def test_store_spares_the_ranks_of_stable_pieces(monkeypatch):
    # a call on an empty store ranks every group that has a target; after
    # a call at (g, N), a call at n < N ranks only those of weight h > n
    ranked = []
    monkeypatch.setattr(dga, "rank", lambda matrix: ranked.append(matrix) or rank(matrix))
    try:
        for g, top, model in STORE_SWEEPS:
            for n in range(top, -1, -1):
                if g == 0 and n == 1:
                    continue
                if n == top:
                    _clear_stores()
                groups = dga._dominant_groups(g, n, model)
                want = [
                    key for key in groups
                    if ((key[0][0] + 2, key[0][1] - 1), key[1]) in groups
                    and (n == top or key[0][0] + 2 * key[0][1] > n)
                ]
                ranked.clear()
                dga._cohomology_by_weight(g, n, model)
                assert len(ranked) == len(want), (g, model, n)
    finally:
        _clear_stores()


def _restrict(matrix, rows, cols):
    """The submatrix on the given rows and columns, renumbered in order."""
    row_at = {r: i for i, r in enumerate(rows)}
    col_at = {c: i for i, c in enumerate(cols)}
    return from_entries(len(rows), len(cols), [
        (row_at[r], col_at[c], v)
        for r, c, v in matrix.entries()
        if r in row_at and c in col_at
    ])


def test_dump_blocks(tmp_path):
    # one file per group the rank loop ranks, in key order; each is the
    # whole-basis block restricted to the group's weight, and has its rank
    for g, n, model in ((1, 4, "A"), (2, 3, "A"), (1, 4, "B"), (0, 6, "B"),
                        (2, 5, "B"), (3, 4, "A")):
        groups = dga._dominant_groups(g, n, model)
        ranks = {key: rank(m) for key, m in dga._differentials(g, model, groups)}
        keys = sorted(ranks)
        written = dump_blocks(g, n, model, tmp_path / f"g{g}_n{n}_{model}")
        assert [os.path.basename(path) for path in written] == [
            f"g{g}_n{n}_{model}_d{d1}_{d2}_w{'.'.join(map(str, w))}.mtx"
            for (d1, d2), w in keys
        ]
        whole = {}
        for path, (block, w) in zip(written, keys):
            if block not in whole:
                whole[block] = differential_block(g, n, model, block)
            source, target, matrix = whole[block]
            cols = [c for c, m in enumerate(source) if mono_weight(g, m) == w]
            rows = [r for r, m in enumerate(target) if mono_weight(g, m) == w]
            dumped = read_matrix_market(path)
            assert dumped == _restrict(matrix, rows, cols), (g, n, model, block, w)
            assert rank(dumped) == ranks[block, w], (g, n, model, block, w)


# sha256 over each file name and its bytes, in name order: the per-group
# matrices that the rank loop ranks, so any change to their assembly, to
# the order of their rows or columns or to the file format shows here
DUMP_SHA256 = {
    (2, 3, "A"): "f5d9b019484fd27948fccc48754e544fd3607cc3825242a4426dcc86a235709e",
    (1, 4, "B"): "9307f6ca99aa570f8834b3898009d4bb283fc5ab7117d4e20a8903e850b3d101",
}


def test_dump_blocks_bytes_unchanged(tmp_path):
    for (g, n, model), want in DUMP_SHA256.items():
        digest = hashlib.sha256()
        for path in sorted(dump_blocks(g, n, model, tmp_path / f"g{g}_n{n}_{model}")):
            digest.update(os.path.basename(path).encode() + b"\n")
            with open(path, "rb") as f:
                digest.update(f.read())
        assert digest.hexdigest() == want, (g, n, model)
