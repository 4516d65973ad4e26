"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact; there are no numeric tolerances to tune.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.
"""

import time
from math import comb

from confcoh.closedform import (
    betti,
    build_Q,
    euler_binomials,
    euler_series,
    mixed_table,
    stabilization_bound,
)
from confcoh.dga import (
    cohomology_dims,
    cohomology_reps,
    differential_monomial,
    enumerate_basis,
    mono_degrees,
)
from confcoh.reps import (
    RepLabel,
    VirtualRep,
    dim_irrep,
    highest_weight,
    rep_label,
)
from reference import (
    basis_count_series,
    branching_hook,
    build_P_HA,
    sl_hook_dim,
    tensor_std_sym_decomp,
    u_slice,
    weyl_dim,
)

DIMS_SWEEP = ((1, 24), (2, 12), (3, 10), (4, 9), (5, 7), (6, 7), (7, 6))
REPS_SWEEP = ((1, 24), (2, 12), (3, 10), (4, 9), (5, 7), (6, 7), (7, 6))


def _regrade(dims):
    return {(d1 + d2, d1 + 2 * d2): d for (d1, d2), d in dims.items()}


def test_criterion_1_formula_vs_oracle_dims():
    t0 = time.time()
    checked = 0
    for g, max_n in DIMS_SWEEP:
        for n in range(max_n + 1):
            want = mixed_table(g, n).dims()
            got = _regrade(cohomology_dims(g, n, "A"))
            assert got == want, f"dims mismatch at genus {g}, n={n}"
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 600, f"dims sweep took {elapsed:.0f}s, budget is 10 minutes"
    print(
        f"\n[criterion 1] PASS: closed form equals brute force (dims) on "
        f"{checked} tables in {elapsed:.1f}s"
    )


def test_criterion_2_formula_vs_oracle_reps():
    checked = 0
    for g, max_n in REPS_SWEEP:
        for n in range(max_n + 1):
            assert cohomology_reps(g, n) == mixed_table(g, n), (
                f"representation mismatch at genus {g}, n={n}"
            )
            checked += 1
    print(
        f"\n[criterion 2] PASS: closed form equals brute force "
        f"(irreducible decompositions) on {checked} tables"
    )


def test_criterion_3_genus0():
    # UConf_2 of the sphere is rationally the projective plane: only the
    # unit class.  The published table lists a degree-2 class at n = 2,
    # which contradicts both the Euler series (1+u)^2 and the brute-force
    # model; the corrected value is asserted here (see the project notes).
    unit = {(0, 0): 1}
    anchors = {0: unit, 1: {(0, 0): 1, (2, 2): 1}, 2: unit}
    for n in range(0, 9):
        table = mixed_table(0, n)
        want = table.dims()
        for model in "AB":
            got = _regrade(cohomology_dims(0, n, model))
            assert got == want, f"genus-0 model {model} mismatch at n={n}: {got} != {want}"
        assert cohomology_reps(0, n) == table, f"genus-0 reps mismatch at n={n}"
        assert want == anchors.get(n, {(0, 0): 1, (3, 4): 1})
    print(
        "\n[criterion 3] PASS: genus-0 brute force (both models, dims and "
        "representations) matches the closed form for n=0..8, as (k, h) cells: "
        "(0,0) at every n, (2,2) at n=1, (3,4) for n>=3"
    )


def test_criterion_4_euler_identity():
    for g in (0, 1, 2, 3):
        assert euler_series(g, 10) == euler_binomials(g, 10), f"genus {g}"
    print(
        "\n[criterion 4] PASS: Euler characteristics match the binomial "
        "expansion of (1+u)^(2-2g) for g=0..3, n<=10"
    )


def test_criterion_5_dimension_identities():
    t0 = time.time()
    for g in range(1, 7):
        for i in range(0, 41):
            for j in range(1, g + 1):
                label = rep_label(g, i, j)
                assert dim_irrep(g, label) == weyl_dim(g, highest_weight(g, label))
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"dimension grid took {elapsed:.2f}s, budget is 1s"
    for g in range(1, 7):
        for i in range(0, 41):
            for j in range(1, 2 * g + 1):
                lhs = comb(i + j - 1, i) * comb(i + 2 * g, i + j)
                if i >= 1 and j + 1 <= 2 * g:
                    lhs += comb(i + j - 1, i - 1) * comb(i + 2 * g - 1, i + j)
                assert lhs == comb(2 * g, j) * comb(i + 2 * g - 1, i)
    for g in range(1, 5):
        for i in range(0, 16):
            for j in range(1, 2 * g + 1):
                assert branching_hook(g, i, j).dim(g) == sl_hook_dim(g, i, j)
            if i >= 1:
                for j in range(1, g + 1):
                    dec = tensor_std_sym_decomp(g, i, j)
                    want = dim_irrep(g, rep_label(g, 0, j)) * comb(2 * g + i - 1, i)
                    assert dec.dim(g) == want
    print(
        f"\n[criterion 5] PASS: dimension formulas agree (closed form vs Weyl, "
        f"{elapsed:.2f}s), hook binomial identity, branching and tensor "
        f"dimension identities"
    )


def test_criterion_6_assembly_identity():
    # the builder asserts direct formula == assembled series internally
    for g in (1, 2, 3):
        build_P_HA(g, 20)
    print(
        "\n[criterion 6] PASS: cohomology series direct formula equals the "
        "kernel/quotient assembly for g<=3, degree<=20"
    )


def test_criterion_7_anchor_values():
    surface = {
        (0, 0): VirtualRep.unit(),
        (1, 0): VirtualRep.single(RepLabel(0, 1)),
        (2, 0): VirtualRep.unit(),
    }
    for g in (1, 2, 3):
        assert u_slice(build_Q(g, 1), 1) == surface, f"genus {g}"
    assert betti(1, 2) == (1, 2, 1)
    assert betti(1, 3) == (1, 2, 3, 4, 2)
    print(
        "\n[criterion 7] PASS: one-point tables are the surface cohomology for "
        "g=1..3; torus Betti numbers at n=2,3 are (1,2,1) and (1,2,3,4,2)"
    )


def test_criterion_8_structural_properties():
    instances = [(0, 8, "A"), (1, 8, "A"), (2, 6, "A"), (3, 4, "A"), (1, 6, "B"), (2, 5, "B")]
    for g, n, model in instances:
        counts = {}
        for m in enumerate_basis(g, n, model):
            d1, d2, d3 = mono_degrees(g, m)
            counts[d3] = counts.get(d3, 0) + 1
            for _, image in differential_monomial(g, model, m):
                e1, e2, _ = mono_degrees(g, image)
                assert (e1, e2) == (d1 + 2, d2 - 1), "bidegree shift violated"
            acc = {}
            for c1, m1 in differential_monomial(g, model, m):
                for c2, m2 in differential_monomial(g, model, m1):
                    acc[m2] = acc.get(m2, 0) + c1 * c2
            assert not any(acc.values()), "d∘d != 0"
        series = basis_count_series(g, model, n)
        assert [counts.get(k, 0) for k in range(n + 1)] == series, (
            "basis counts disagree with the generating function"
        )
    for g in (0, 1, 2):
        for n in range(0, 7):
            assert cohomology_dims(g, n, "A") == cohomology_dims(g, n, "B"), (
                f"models disagree at genus {g}, n={n}"
            )
    print(
        "\n[criterion 8] PASS: d∘d=0 and the (+2,-1) bidegree shift on all "
        "computed blocks; basis counts match the generating functions; the "
        "two models agree for g<=2, n<=6"
    )


def test_criterion_9_band_and_growth():
    checked = 0
    for g, max_n in DIMS_SWEEP:
        for n in range(max_n + 1):
            for (k, h), rep in mixed_table(g, n).entries.items():
                assert h >= k, f"weight below degree at g={g} n={n} ({k},{h})"
                assert 0 <= 3 * k - 2 * h <= 2 * g + 2, (
                    f"band violated at g={g} n={n} ({k},{h})"
                )
                checked += 1
    n = 14
    b = betti(1, n)
    stable = [k for k in range(4, n - 2) if k + 2 <= n - 1]
    for k in stable:
        assert b[k + 2] - 2 * b[k + 1] + b[k] == 0, f"not linear at k={k}"
    print(
        f"\n[criterion 9] PASS: weight band holds on {checked} table entries; "
        f"stable torus Betti numbers are linear in the degree "
        f"(second differences vanish for k in [4, {max(stable) + 2}])"
    )


def test_criterion_10_stabilization_bound():
    # every brute-force entry is constant from stabilization_bound on, and
    # the bound is sharp: the entry just before it differs
    cells = sharp = 0
    for g, max_n in REPS_SWEEP:
        tables = [cohomology_reps(g, n).entries for n in range(max_n + 1)]
        for k, h in sorted(set().union(*tables)):
            n0 = stabilization_bound(g, k, h)
            entry = [t.get((k, h), VirtualRep.zero()) for t in tables]
            for n in range(n0, max_n + 1):
                assert entry[n] == entry[n0], (
                    f"entry ({k},{h}) at genus {g} moves at n={n} > n0={n0}"
                )
            if 1 <= n0 <= max_n:
                assert entry[n0 - 1] != entry[n0], (
                    f"entry ({k},{h}) at genus {g} is already stable before n0={n0}"
                )
                sharp += 1
            cells += 1
    print(
        f"\n[criterion 10] PASS: brute-force entries are constant from "
        f"stabilization_bound on for {cells} cells, sharp on {sharp}"
    )


def _differences(seq, order):
    for _ in range(order):
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return seq


def test_criterion_11_betti_growth_degree():
    # the stable b_k (n >= k + 2, from the bracket bound u <= t + s + 1) are
    # a polynomial of degree 2g - 1 in k on each parity class: the step-2
    # (2g-1)-th difference is 2 C(2g, g) from every start k >= 5 (k >= 2 at
    # g = 1), and the 2g-th difference is 0
    K = 60
    for g in range(1, 9):
        b = mixed_table(g, K + 2).betti()
        b = (b + (0,) * (K + 1))[: K + 1]
        start = 2 if g == 1 else 5
        for k0 in (start, start + 1):
            seq = b[k0::2]
            assert set(_differences(seq, 2 * g - 1)) == {2 * comb(2 * g, g)}, (g, k0)
            assert set(_differences(seq, 2 * g)) == {0}, (g, k0)
    print(
        f"\n[criterion 11] PASS: for g <= 8 the stable Betti numbers b_k, "
        f"k <= {K}, grow on each parity class as a polynomial of degree 2g-1 "
        f"with step-2 leading difference 2·C(2g, g)"
    )


def test_criterion_12_weights_up_to_n_are_stable():
    # every bracket term has u <= t + 2s = h and 1/(1-u) only carries terms
    # to higher u, so a cell of weight h <= n is the same at n and n + 1:
    # agreement of the routes on the weights h <= N at n <= N holds at
    # every n
    cells = 0
    for g in range(0, 5):
        tables = [mixed_table(g, n).entries for n in range(31)]
        for n in range(30):
            for k, h in tables[n].keys() | tables[n + 1].keys():
                if h <= n:
                    assert tables[n].get((k, h)) == tables[n + 1].get((k, h)), (g, n, k, h)
                    cells += 1
    print(
        f"\n[criterion 12] PASS: for 0 <= g <= 4 and n < 30 every closed-form cell "
        f"of weight h <= n is the same at n and n + 1 ({cells} cells)"
    )
