"""Independent slow routes that the tests compare the package against.

None of these is called by the package, its command line or the
benchmark; each one checks a ``confcoh`` function by a second route:

- ``weyl_dim``: the Weyl dimension formula for a dominant weight (checked
  for dominance by ``is_dominant``), which checks the product formula of
  ``reps.dim_irrep``.
- ``dominant_mults``: the Freudenthal recursion walking each alpha-string
  over whole weight vectors and dense roots, which checks the moved-
  coordinate walk of ``reps._dominant_mults``.
- ``sl_hook_dim``, ``ext_power_decomp``, ``tensor_std_sym_decomp`` and
  ``branching_hook``: dimension and decomposition rules of sp(2g), which
  check ``reps.dim_irrep`` and the representation labels of the master
  series (``closedform.q_bracket``).
- ``rep_from_json``: reads back ``reps.VirtualRep.to_json``, and so the
  decompositions in the JSON of the command line.
- ``character_of``: the character of a virtual representation, as a
  {dominant weight: mult} dict, which ``reps.peel_character`` must
  decompose back into it.
- ``character_mass``: the total multiplicity of a character over every
  Weyl orbit, which checks ``reps.irreducible_character`` against
  ``reps.dim_irrep`` and ``dga.cohomology_weights`` against
  ``dga.cohomology_dims``.
- ``from_entries``: a ``linalg.SparseIntMatrix`` built from (row, col,
  value) triples, each checked in turn for a duplicate and for its bounds,
  which checks the columns ``dga._columns`` writes.
- ``rank_dense_bareiss`` and ``transpose``: dense fraction-free rank and the
  transposed matrix, which check ``linalg.rank`` and the prefix ranks of
  ``linalg.reduce_columns``.
- ``read_matrix_market``: reads back what ``linalg.write_matrix_market``
  writes, and so the per-group matrices of ``dga.dump_blocks``.
- ``geom_u``: the truncated geometric series; its product with
  ``reference_q_bracket`` checks the column running sums of
  ``closedform.build_Q``.
- ``reference_q_bracket``: the bracket assembled by series products and
  sums of its factors, which checks the terms of ``closedform.q_bracket``;
  that one writes the bracket term by term from its formula.
- ``build_P_*`` and ``build_Q_assembled``: the bigraded Hilbert series and
  the master series assembled from kernel/quotient pieces, which check
  ``closedform.build_Q``.
- ``u_slice``: the u^n coefficient of ``closedform.build_Q``'s dict, which
  the tests compare with the tables.
- ``summed_table``: a closed-form table summed straight from the bracket's
  terms, with no store, which checks the settled prefix and the slots that
  ``closedform.mixed_table`` reads its cells from.
- ``per_cell_dims``: a table's dimensions, Betti numbers and Euler
  characteristic recomputed cell by cell, which check the dimensions that
  ``closedform.MixedTable`` stores at construction.
- ``basis_count_series``, ``blocks`` and ``differential_block``:
  generating-function basis counts, the whole basis grouped by (deg1,
  deg2) and one whole differential block, its columns written by
  ``dga._columns`` from the block's codes, which check
  ``dga.enumerate_basis``, ``dga.differential_monomial`` and, restricted to one weight with the
  columns sorted by deg3, the matrices of ``dga.dump_blocks``.
- ``tuple_differential`` and ``tuple_matrix``: d of one monomial computed
  on its tuple fields, and the matrix it gives through ``from_entries``,
  which check the coded terms of ``dga._Layout`` and the columns of
  ``dga._columns``.
- ``decoded_groups``: ``dga._dominant_groups`` with each member decoded
  to its monomial tuple, in the groups' (deg3, basis) order.

One helper is no route: ``clear_brute_force_caches`` forgets every
per-process cache of the brute-force route, so that a test that starts or
ends with it reads no result another test left behind.
"""

from functools import lru_cache
from math import comb

from confcoh import dga, reps
from confcoh.closedform import MixedTable, _check_euler, _check_genus, q_bracket
from confcoh.dga import _Layout, _dominant_groups, _matrix, enumerate_basis, mono_degrees
from confcoh.linalg import SparseIntMatrix
from confcoh.reps import (
    TRIVIAL,
    RepLabel,
    VirtualRep,
    irreducible_character,
    rep_label,
)
from confcoh.series import TriSeries

# ---------------------------------------------------------------------------
# representations of sp(2g)


def dom_rep(w):
    """Dominant representative of a weight under the hyperoctahedral Weyl
    group: absolute values sorted decreasingly."""
    return tuple(sorted((abs(x) for x in w), reverse=True))


def is_dominant(w):
    """True for a dominant weight (also the empty weight of genus 0)."""
    return dom_rep(w) == tuple(w)


def positive_roots(g):
    """The positive roots of sp(2g) as dense g-tuples: e_k -+ e_h for
    k < h, then 2 e_k."""
    roots = []
    for k in range(g):
        for h in range(k + 1, g):
            for sign in (-1, 1):
                root = [0] * g
                root[k] = 1
                root[h] = sign
                roots.append(tuple(root))
    for k in range(g):
        root = [0] * g
        root[k] = 2
        roots.append(tuple(root))
    return tuple(roots)


@lru_cache(maxsize=None)
def weyl_dim(g, weight):
    """Weyl dimension formula for a dominant weight of sp(2g).

    >>> weyl_dim(2, (1, 1))
    5
    """
    reps._check_genus(g)
    weight = tuple(weight)
    if len(weight) != g or not is_dominant(weight):
        raise ValueError(f"weight {weight} is not dominant for sp({2 * g})")
    rho = reps._rho(g)
    lam_rho = tuple(a + b for a, b in zip(weight, rho))
    num = 1
    den = 1
    for alpha in positive_roots(g):
        num *= reps._dot(lam_rho, alpha)
        den *= reps._dot(rho, alpha)
    d, r = divmod(num, den)
    if r or d <= 0:
        raise ArithmeticError(
            f"Weyl dimension {num}/{den} of {weight} is not a positive integer"
        )
    return d


def dominant_mults(g, lam):
    """Freudenthal recursion: the multiplicities of the dominant weights of
    the irreducible with highest weight ``lam``, as ((weight, mult), ...),
    each alpha-string walked over whole weights with dense roots."""
    rho = reps._rho(g)
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    lam_rho_sq = reps._dot(lam_rho, lam_rho)
    doms = reps._dominant_weights_below(g, lam)
    doms.sort(key=lambda mu: reps._height2(g, tuple(a - b for a, b in zip(lam, mu))))
    if doms[0] != lam:
        raise ArithmeticError(f"highest dominant weight {doms[0]} is not {lam}")
    dom_set = set(doms)
    mults = {lam: 1}
    for mu in doms[1:]:
        num = 0
        for alpha in positive_roots(g):
            k = 1
            while True:
                nu = tuple(a + k * b for a, b in zip(mu, alpha))
                rep = dom_rep(nu)
                if rep not in dom_set:
                    break  # the alpha-string through mu is contiguous
                num += mults[rep] * reps._dot(nu, alpha)
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        den = lam_rho_sq - reps._dot(mu_rho, mu_rho)
        if den <= 0:
            raise ArithmeticError(f"Freudenthal denominator {den} at {mu} below {lam}")
        m, r = divmod(2 * num, den)
        if r or m <= 0:
            raise ArithmeticError(f"Freudenthal gives {2 * num}/{den} at {mu} below {lam}")
        mults[mu] = m
    return tuple(sorted(mults.items()))


def rep_from_json(records):
    """The VirtualRep whose ``to_json`` is ``records``."""
    return VirtualRep([(RepLabel(r["i"], r["j"]), r["mult"]) for r in records])


def sl_hook_dim(g, i, j):
    """Dimension of the sl(2g) hook representation with arm i and leg j:
    C(i+j-1, i) * C(i+2g, i+j), for 1 <= j <= 2g.

    >>> sl_hook_dim(2, 1, 2)
    20
    """
    reps._check_genus(g)
    if not (1 <= j <= 2 * g) or i < 0:
        raise ValueError(f"need 0 <= i and 1 <= j <= {2 * g}, got i={i}, j={j}")
    return comb(i + j - 1, i) * comb(i + 2 * g, i + j)


def ext_power_decomp(g, j):
    """Decomposition of the j-th exterior power of the standard
    representation: Lambda^j V = sum of V_{w_{j-2k}}, using
    Lambda^j = Lambda^{2g-j} for j > g.

    >>> ext_power_decomp(2, 2).text()
    'V(0,2) + V(0,0)'
    """
    reps._check_genus(g)
    if not (0 <= j <= 2 * g):
        raise ValueError(f"need 0 <= j <= {2 * g}, got {j}")
    if j > g:
        j = 2 * g - j
    return VirtualRep([(rep_label(g, 0, j - 2 * k), 1) for k in range(j // 2 + 1)])


def tensor_std_sym_decomp(g, i, j):
    """Decomposition of V_{w_j} tensor S^i V for i >= 1 and 1 <= j <= g:

        V_{i w1 + w_j} + V_{(i-1) w1 + w_{j+1}}
        + V_{(i-1) w1 + w_{j-1}} + V_{(i-2) w1 + w_j},

    where non-dominant labels drop out as ZERO.  The decomposition is
    multiplicity-free: at j = 1 the last two slots name the same
    representation ((i-1)*w1 twice over) and merge to a single summand,
    as the dimension identity demands.
    """
    reps._check_genus(g)
    if i < 1 or not (1 <= j <= g):
        raise ValueError(f"need i >= 1 and 1 <= j <= {g}, got i={i}, j={j}")
    labels = {
        rep_label(g, i, j),
        rep_label(g, i - 1, j + 1),
        rep_label(g, i - 1, j - 1),
        rep_label(g, i - 2, j),
    }
    return VirtualRep([(label, 1) for label in labels])


def _tensor_ext_sym(g, j, i):
    """[Lambda^j V tensor S^i V] in the representation ring, via the
    exterior-power decomposition and the fundamental-times-symmetric rule."""
    lam = ext_power_decomp(g, j)
    if i == 0:
        return lam
    out = VirtualRep()
    for (li, lj), mult in lam.items():
        if li != 0:
            raise ArithmeticError(
                f"exterior power {j} at genus {g} has constituent V({li},{lj})"
            )
        if lj == 0:
            # trivial tensor S^i V: the symmetric power itself
            out += VirtualRep.single(rep_label(g, i, 0), mult)
        else:
            out += tensor_std_sym_decomp(g, i, lj).scaled(mult)
    return out


def _branch_strip(g, i, j):
    """Vertical-strip restriction rule for the hook with arm i, leg j <= g.

    Removing an even column strip of the leg keeps the arm multiplicity,
    removing a row-end box together with an odd column strip lowers it by
    one, and for i = 0 with even j the whole column may be removed, which
    contributes the trivial representation.
    """
    terms = []
    b = j
    while b >= 1:
        terms.append((rep_label(g, i, b), 1))
        b -= 2
    if i == 0 and j % 2 == 0:
        terms.append((TRIVIAL, 1))
    if i >= 1:
        b = j - 1
        while b >= 1:
            terms.append((rep_label(g, i - 1, b), 1))
            b -= 2
    return VirtualRep(terms)


def _branch_series(g, i, j):
    """Restriction of the hook via the alternating Koszul identity

        [hook(i, j)] = sum_k (-1)^k [Lambda^{j+k} V tensor S^{i-k} V],

    evaluated in the representation ring; exact for every 1 <= j <= 2g.
    """
    out = VirtualRep()
    sign = 1
    for k in range(i + 1):
        jj = j + k
        if jj > 2 * g:
            break
        out += _tensor_ext_sym(g, jj, i - k).scaled(sign)
        sign = -sign
    return out


def branching_hook(g, i, j):
    """Restriction of the sl(2g) hook with arm i and leg 1 <= j <= 2g to
    sp(2g).  All coefficients are nonnegative and the dimensions add up to
    ``sl_hook_dim(g, i, j)``.

    >>> branching_hook(2, 1, 2).text()
    'V(1,2) + V(0,1)'
    """
    reps._check_genus(g)
    if not (1 <= j <= 2 * g) or i < 0:
        raise ValueError(f"need 0 <= i and 1 <= j <= {2 * g}, got i={i}, j={j}")
    out = _branch_strip(g, i, j) if j <= g else _branch_series(g, i, j)
    if out.effective_dim(g) is None:
        raise ArithmeticError(
            f"negative multiplicity in branching({g},{i},{j}): {out.text()}"
        )
    return out


def character_of(g, vrep):
    """Character of a virtual representation, the sum of its irreducible
    characters, as a {dominant weight: mult} dict without zeros."""
    out = {}
    for label, m in vrep.items():
        for w, mm in irreducible_character(g, label).items():
            out[w] = out.get(w, 0) + m * mm
    return {w: m for w, m in out.items() if m}


def character_mass(char):
    """Total multiplicity over every Weyl orbit; equals the dimension for a
    genuine character."""
    return sum(reps.orbit_size(w) * m for w, m in char.items())


# ---------------------------------------------------------------------------
# exact linear algebra


def from_entries(n_rows, n_cols, triples):
    """The matrix with the given (row, col, value) triples.  Raises
    ValueError on a triple outside the shape or on a second triple at one
    (row, col); the constructor rejects a zero value."""
    rows = {}
    for r, c, v in triples:
        if not (0 <= r < n_rows and 0 <= c < n_cols):
            raise ValueError(f"entry ({r}, {c}) outside {n_rows}x{n_cols}")
        row = rows.setdefault(r, {})
        if c in row:
            raise ValueError(f"duplicate entry at ({r}, {c})")
        row[c] = v
    return SparseIntMatrix(n_rows, n_cols, rows)


def transpose(m):
    return from_entries(m.n_cols, m.n_rows, ((c, r, v) for r, c, v in m.entries()))


def rank_dense_bareiss(dense):
    """Rank by dense fraction-free (Bareiss) elimination."""
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
    return from_entries(n_rows, n_cols, entries)


# ---------------------------------------------------------------------------
# series


def coeff(q, t, s, u):
    """The (t, s, u) coefficient of a TriSeries, zero where it has none."""
    return dict(q.coeffs()).get((t, s, u), VirtualRep.zero())


def u_slice(q, n):
    """The u^n coefficient of a {(t, s, u): VirtualRep} master series, as
    {(t, s): VirtualRep}."""
    return {(t, s): rep for (t, s, u), rep in q.items() if u == n}


def _tri(N, terms):
    return TriSeries(N, {(t, s, u): c for t, s, u, c in terms})


def _core(g, N, j):
    """sum over i >= 0 of [V(i, j)] t^(j+i) s^i u^(j+2i), truncated at u^N;
    every term has u = t+s."""
    return TriSeries(
        N,
        {
            (j + i, i, j + 2 * i): VirtualRep.single(rep_label(g, i, j))
            for i in range((N - j) // 2 + 1)
        },
    )


def _tail(g, N, factor):
    """sum over 1 <= j <= g of factor(j) * _core(g, N, j)."""
    return sum(
        (factor(j) * _core(g, N, j) for j in range(1, g + 1)), TriSeries(N)
    )


def reference_q_bracket(g, N):
    """The bracket of ``closedform.q_bracket`` assembled by TriSeries
    products and sums of its factors, unchecked."""
    _check_genus(g)
    f3 = _tri(N, [(0, 0, 0, 1), (2, 1, 3, 1)])  # 1 + t^2 s u^3
    f2 = _tri(N, [(0, 0, 0, 1), (2, 1, 2, 1)])  # 1 + t^2 s u^2
    bracket = f3 * _tri(N, [(0, 0, 0, 1), (2, 0, 1, 1)])
    bracket = bracket + f2 * _tri(N, [(2 * g, 1, 2 * (g + 1), 1)])
    tail = _tail(
        g, N, lambda j: _tri(N, [(0, 0, 0, 1), (2 * (g - j), 1, 2 * (g - j + 1), 1)])
    )
    return bracket + f2 * f3 * tail


def geom_u(N):
    """The truncated geometric series 1 + u + ... + u^N."""
    return TriSeries(N, {(0, 0, n): 1 for n in range(N + 1)})


def _ts(D, terms):
    """The t,s-series sum c t^a s^b over (a, b, c), stored with u = a+b."""
    return TriSeries(D, {(t, s, t + s): c for t, s, c in terms})


def _geo_even(D, m):
    """1 + t^2 + ... + t^(2(m-1)), the expanded (t^(2m) - 1)/(t^2 - 1)."""
    return _ts(D, [(2 * k, 0, 1) for k in range(max(m, 0))])


def _sum_core(g, D):
    """sum over 1 <= j <= g, i >= 0 of [V(i, j)] t^(j+i) s^i, truncated."""
    return _tail(g, D, lambda j: TriSeries.one(D))


def build_P_SV(g, D):
    """Bigraded Hilbert series of the exterior-times-symmetric algebra on
    the standard representation: the coefficient at (j+i, i) is the class
    of Lambda^j V tensor S^i V.  Stored with u = t+s, truncated at u^D."""
    _check_genus(g)
    out = _geo_even(D, g + 1) + _ts(D, [(2, 1, 1)]) * _geo_even(D, g)
    pre = _ts(D, [(0, 0, 1), (0, 1, 1), (2, 1, 1), (2, 2, 1)])  # (1+s)(1+t^2 s)
    return out + pre * _tail(g, D, lambda j: _geo_even(D, g - j + 1))


def build_P_ker_cap(g, D):
    """Series of the joint kernel of the Koszul differential and of
    multiplication by the symplectic class:
    t^(2g) + (1 + t^2 s) * sum [V(i,j)] t^(2g-j+i) s^i.
    Stored with u = t+s, truncated at u^D."""
    _check_genus(g)
    pre = _ts(D, [(0, 0, 1), (2, 1, 1)])
    tail = _tail(g, D, lambda j: _ts(D, [(2 * (g - j), 0, 1)]))
    return _ts(D, [(2 * g, 0, 1)]) + pre * tail


def build_P_ker_mod(g, D):
    """Series of the Koszul kernel modulo the symplectic class:
    1 + (1 + t^2 s) * sum [V(i,j)] t^(j+i) s^i.
    Stored with u = t+s, truncated at u^D."""
    _check_genus(g)
    pre = _ts(D, [(0, 0, 1), (2, 1, 1)])
    return TriSeries.one(D) + pre * _sum_core(g, D)


def build_P_quot(g, D):
    """Series of the quotient by the images of the symplectic class and of
    the Koszul differential: (1 + t^2 s)(1 + s * sum [V(i,j)] t^(j+i) s^i).
    Stored with u = t+s, truncated at u^D."""
    _check_genus(g)
    pre = _ts(D, [(0, 0, 1), (2, 1, 1)])
    return pre * (TriSeries.one(D) + _ts(D, [(0, 1, 1)]) * _sum_core(g, D))


def build_P_HA(g, D):
    """Bigraded Hilbert series of the cohomology of the reduced model:

        (1+t^2 s)(1 + t^2 + t^(2g) s)
        + (1+t^2 s)^2 * sum [V(i,j)] t^(j+i) s^i (1 + t^(2(g-j)) s).

    Stored with u = t+s, truncated at u^D.  The same series is assembled
    from the three kernel/quotient series, and both constructions must
    agree exactly.
    """
    _check_genus(g)
    pre = _ts(D, [(0, 0, 1), (2, 1, 1)])
    direct = pre * _ts(D, [(0, 0, 1), (2, 0, 1), (2 * g, 1, 1)])
    tail = _tail(g, D, lambda j: _ts(D, [(0, 0, 1), (2 * (g - j), 1, 1)]))
    direct = direct + pre * pre * tail

    ker_cap = build_P_ker_cap(g, D)
    assembled = (
        _ts(D, [(0, 1, 1)]) * ker_cap
        + _ts(D, [(2, 1, 1)])
        + _ts(D, [(2, 2, 1)]) * ker_cap
        + build_P_ker_mod(g, D)
        + _ts(D, [(2, 0, 1)]) * build_P_quot(g, D)
    )
    if direct != assembled:
        raise ArithmeticError(
            f"the two constructions of P_H(A) disagree at g={g}, D={D}: "
            f"the difference is {dict((direct - assembled).coeffs())}"
        )
    return direct


def build_Q_assembled(g, N):
    """Second route to the master series: assemble the kernel/quotient
    series, already stored substituted (t -> tu, s -> su), with the stated
    prefactors."""
    _check_genus(g)
    ker_cap = build_P_ker_cap(g, N)
    ker_mod = build_P_ker_mod(g, N)
    quot = build_P_quot(g, N)
    bracket = (
        _tri(N, [(0, 1, 2, 1)]) * ker_cap
        + _tri(N, [(2, 1, 3, 1)])
        + _tri(N, [(2, 2, 4, 1)]) * ker_cap
        + ker_mod
        + _tri(N, [(2, 0, 1, 1)]) * quot
    )
    return geom_u(N) * bracket


def summed_table(g, n):
    """The table of ``closedform.mixed_table(g, n)`` summed straight from
    the terms of ``closedform.q_bracket(g, n)``, all at u <= n, with no
    store: each cell's terms through the constructor that normalises, in
    cell order, with their dimensions, and checked against the Euler
    characteristic; the sphere's table is written out."""
    if g == 0:
        cells = [(0, 0)] + [(2, 2)] * (n == 1) + [(3, 4)] * (n >= 3)
        return MixedTable(0, n, {kh: VirtualRep.unit() for kh in cells}).validate()
    columns = {}
    for t, s, _, label in q_bracket(g, n):
        columns.setdefault((t + s, t + 2 * s), []).append((label, 1))
    entries = {cell: VirtualRep(columns[cell]) for cell in sorted(columns)}
    dims = {cell: rep.dim(g) for cell, rep in entries.items()}
    _check_euler(g, n, sum(-dim if k % 2 else dim for (k, _), dim in dims.items()))
    return MixedTable._checked(g, n, entries, dims)


def per_cell_dims(table):
    """(dims, betti, euler, json_dims) of a MixedTable, each recomputed from
    its cells' VirtualRep.dim: the sorted (k, h) -> dim items, the Betti
    numbers, the Euler characteristic and the "dim" field of each row of
    its JSON, in row order."""
    dims = [(kh, rep.dim(table.genus)) for kh, rep in sorted(table.entries.items())]
    betti = [0] * (max((k for (k, _), _ in dims), default=0) + 1)
    for (k, _), d in dims:
        betti[k] += d
    euler = sum((-1) ** k * d for (k, _), d in dims)
    return dims, tuple(betti), euler, [d for _, d in dims]


# ---------------------------------------------------------------------------
# the brute-force model


def basis_count_series(g, model, n):
    """[t^k] counts of the model by third degree, k <= n, via the product
    of one generator factor each: (1 + t^deg3) for odd generators (and p in
    model A, where p^2 = 0) and a truncated geometric series for even ones.
    Independent of the basis enumeration; used to cross-check it."""
    # (deg3, square_zero) of a_i, b_i, s1, p, [sp,] sa_i, sb_i
    factors = [(1, True)] * (2 * g) + [(2, True), (1, model == "A")]
    if model == "B":
        factors.append((2, True))
    factors += [(2, False)] * (2 * g)
    poly = [1] + [0] * n
    for d3, square_zero in factors:
        new = [0] * (n + 1)
        for e in (0, d3) if square_zero else range(0, n + 1, d3):
            if e > n:
                break
            for k in range(n + 1 - e):
                if poly[k]:
                    new[k + e] += poly[k]
        poly = new
    return poly


def blocks(g, n, model="A"):
    """Basis monomials grouped by (deg1, deg2)."""
    by_block = {}
    for m in enumerate_basis(g, n, model):
        d1, d2, _ = mono_degrees(g, m)
        by_block.setdefault((d1, d2), []).append(m)
    return by_block


def differential_block(g, n, model, block):
    """d on the (deg1, deg2) block of F_n as (source, target, matrix): the
    matrix maps the source basis (columns) to the (deg1+2, deg2-1) target
    basis (rows), its columns written by ``dga._columns`` from the codes
    of F_n, deg3 above each, and transposed by ``dga._matrix``."""
    by_block = blocks(g, n, model)
    d1, d2 = block
    source = tuple(by_block.get(block, ()))
    target = tuple(by_block.get((d1 + 2, d2 - 1), ()))
    layout = _Layout(g, n, model)
    source_codes, target_codes = [
        [mono_degrees(g, m)[2] << layout.width | layout.encode(m) for m in monos]
        for monos in (source, target)
    ]
    return source, target, _matrix(layout, source_codes, target_codes)


def tuple_differential(g, model, m):
    """d of a monomial of the model by the Leibniz rule on its tuple fields,
    as a list of (coeff, image), each image a plain tuple in (ext, s1, p,
    sp, sym) order.

    In the canonical order a < b < s1 < p < sp < sa < sb each Koszul sign is
    a parity of exterior bits: d(s1) and d(sp) sit behind ext (and s1), and
    the a_i or b_i brought in by d(sa_i), d(sb_i) or d(s1) is sorted into
    ext.  The index j of sa_1..sa_g, sb_1..sb_g in ``sym`` is also the bit of
    the matching a_i or b_i.  Model A drops every term with p >= 2.
    """
    ext, s1, p, sp, sym = m
    sign = -1 if ext.bit_count() & 1 else 1
    raise_p = model == "B" or p == 0
    out = []
    if s1:
        if raise_p:
            out.append((sign, (ext, 0, p + 1, sp, sym)))
        for i in range(g):
            pair = 1 << i | 1 << (g + i)
            if not ext & pair:
                above = (ext >> (i + 1)).bit_count() + (ext >> (g + i + 1)).bit_count()
                coeff = sign if above & 1 else -sign
                out.append((coeff, (ext | pair, 0, p, sp, sym)))
    if sp:
        out.append((-sign if s1 else sign, (ext, s1, p + 2, 0, sym)))
    if raise_p:
        for j, e in enumerate(sym):
            if e and not ext >> j & 1:
                below = (ext & ((1 << j) - 1)).bit_count()
                rest = sym[:j] + (e - 1,) + sym[j + 1:]
                coeff = -e if below & 1 else e
                out.append((coeff, (ext | 1 << j, s1, p + 1, sp, rest)))
    return out


def tuple_matrix(g, model, source, target):
    """The matrix of ``tuple_differential`` from the ``source`` monomials
    (columns, in the order given) to the ``target`` monomials (rows, in
    basis order), built entry by entry by ``from_entries``."""
    row = {m: r for r, m in enumerate(sorted(target))}
    entries = [
        (row[image], col, coeff)
        for col, m in enumerate(source)
        for coeff, image in tuple_differential(g, model, m)
    ]
    return from_entries(len(target), len(source), entries)


def decoded_groups(g, n, model):
    """``dga._dominant_groups(g, n, model)`` with every member decoded to
    its monomial tuple, each group in its (deg3, basis) order."""
    layout = _Layout(g, n, model)
    return {
        key: [layout.decode(code) for code in members]
        for key, members in _dominant_groups(g, n, model, 0).items()
    }


def clear_brute_force_caches():
    """Forget the step functions of every genus and model (``dga._store``)
    and every kept peel (``dga._peel``)."""
    dga._store.cache_clear()
    dga._peel.cache_clear()
