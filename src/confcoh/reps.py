"""Representation theory of the symplectic Lie algebra sp(2g).

Labels of the two-parameter highest-weight family i*w1 + w_j, their exact
dimensions by a closed product formula (the tests check it against the
Weyl dimension formula), the virtual representations that label the
closed-form series, and the characters of the irreducibles via the
Freudenthal recursion, which the brute-force route peels back into
irreducibles.  Genus 0 is included: sp(0) is the zero Lie algebra, whose
only weight is the empty tuple and whose only irreducible is V(0,0).

A character is Weyl-invariant, so it is a plain {dominant weight: mult}
mapping, one integer g-tuple per Weyl orbit; the Weyl group enters solely
through ``orbit_size``, the number of weights a dominant weight stands for.
Dominance is checked in one place, when ``peel_character`` reads a highest
weight: every weight that is not dominant is left over there and rejected.

All arithmetic is exact; there is no floating point in this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType
from typing import NamedTuple

__all__ = [
    "RepLabel",
    "ZERO",
    "TRIVIAL",
    "rep_label",
    "VirtualRep",
    "NotACharacter",
    "dim_irrep",
    "orbit_size",
    "irreducible_character",
    "peel_character",
]


class NotACharacter(ValueError):
    """Peeling met data that cannot come from a genuine character."""


class RepLabel(NamedTuple):
    """Highest-weight label i*w1 + w_j; j = 0 means no second fundamental
    weight, so (i, 0) labels the i-th symmetric power of the standard
    representation and (0, 0) is the trivial representation."""

    i: int
    j: int


#: Distinguished zero label; every consumer treats it as the zero module.
ZERO = RepLabel(-1, -1)
TRIVIAL = RepLabel(0, 0)


def rep_label(g, i, j):
    """Label for i*w1 + w_j, or ZERO when the weight is not dominant.

    Since w_1 = e_1, the weight i*w1 (+ no fundamental) coincides with
    (i-1)*w1 + w_1; labels are normalized to the j >= 1 form so that equal
    representations compare equal.  (0, 0) stays the trivial label.  The
    weight is dominant when the normalized j is at most g, so at genus 0
    only (0, 0) is.

    >>> rep_label(2, 1, 3)
    RepLabel(i=-1, j=-1)
    >>> rep_label(2, 3, 0)
    RepLabel(i=2, j=1)
    """
    label = _normal(i, j)
    return ZERO if i < 0 or j < 0 or label.j > g else label


def _normal(i, j):
    """The label i*w1 + w_j in its normal form: i*w1 = (i-1)*w1 + w1."""
    if j == 0 and i >= 1:
        return RepLabel(i - 1, 1)
    return RepLabel(i, j)


def highest_weight(g, label):
    """Coordinates of the highest weight in the e_1..e_g basis."""
    i, j = label
    if label == ZERO:
        raise ValueError("ZERO label has no weight")
    if j == 0:
        return (i,) + (0,) * (g - 1) if i else (0,) * g
    return (i + 1,) + (1,) * (j - 1) + (0,) * (g - j)


class VirtualRep:
    """Finitely supported integer combination of irreducible labels.

    Only the additive structure of the representation ring is used.

    Two constructors give the same object: ``VirtualRep(terms)`` takes
    (label, mult) pairs or a dict, normalises each label, drops ZERO labels
    and zero multiplicities and adds up repeated labels; ``from_counts``
    takes over a {label: mult} dict whose labels are already normalised.
    Both set ``_dim`` to None; ``effective_dim`` keeps its last result
    there, as (g, dim), which stays right because a VirtualRep never
    changes.

    >>> v = VirtualRep.single(RepLabel(1, 2), 3) + VirtualRep.unit()
    >>> v.text()
    '3·V(1,2) + V(0,0)'
    """

    __slots__ = ("_terms", "_dim")

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for label, mult in items:
                label = _normal(*label)
                if mult == 0 or label == ZERO:
                    continue
                data[label] = data.get(label, 0) + mult
        self._terms = {l: m for l, m in data.items() if m}
        self._dim = None

    @classmethod
    def from_counts(cls, counts):
        """The combination with the given {label: mult} dict, which is taken
        over, not copied, so the caller must not change it afterwards.

        Its labels must already be normalised: each comes from ``rep_label``
        or is TRIVIAL, and none is ZERO.  They are taken as given, which is
        what makes this constructor cheaper than the other.  Raises
        ValueError on a zero multiplicity, checked over the whole dict at
        once.
        """
        if not all(counts.values()):
            raise ValueError("zero multiplicity")
        self = cls.__new__(cls)
        self._terms = counts
        self._dim = None
        return self

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def single(cls, label, mult=1):
        return cls([(label, mult)])

    @classmethod
    def unit(cls, mult=1):
        """``mult`` copies of the trivial representation (the scalar mult)."""
        return cls([(TRIVIAL, mult)])

    def items(self):
        """Terms sorted by label, highest first."""
        return sorted(self._terms.items(), reverse=True)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, VirtualRep):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other):
        out = dict(self._terms)
        for l, m in other._terms.items():
            out[l] = out.get(l, 0) + m
        return VirtualRep(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return VirtualRep({l: -m for l, m in self._terms.items()})

    def scaled(self, c):
        if c == 0:
            return VirtualRep()
        return VirtualRep({l: c * m for l, m in self._terms.items()})

    def is_scalar(self):
        """True when only the trivial label occurs."""
        return all(l == TRIVIAL for l in self._terms)

    def scalar_value(self):
        if not self.is_scalar():
            raise ValueError(f"not a scalar: {self.text()}")
        return self._terms.get(TRIVIAL, 0)

    def dim(self, g):
        return sum(m * dim_irrep(g, l) for l, m in self._terms.items())

    def effective_dim(self, g):
        """The dimension, or None when a coefficient is negative: the sign
        check and the dimension of an actual representation in one pass.
        It is kept in ``_dim`` as (g, dim), which a repeat call at the same
        g returns."""
        if self._dim is not None and self._dim[0] == g:
            return self._dim[1]
        dim = 0
        for l, m in self._terms.items():
            if m < 0:
                dim = None
                break
            dim += m * dim_irrep(g, l)
        self._dim = (g, dim)
        return dim

    def text(self):
        if not self._terms:
            return "0"
        parts = []
        for (i, j), m in self.items():
            name = f"V({i},{j})"
            if m == 1:
                parts.append(name)
            elif m == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{m}·{name}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        return [{"i": l.i, "j": l.j, "mult": m} for l, m in self.items()]

    def __repr__(self):
        return f"VirtualRep({self.text()})"


# ---------------------------------------------------------------------------
# dimensions


def _check_genus(g):
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")


@lru_cache(maxsize=None)
def _root_moves(g):
    """The positive roots of sp(2g), each as the coordinates it moves, with
    their steps: ((a, 1), (b, -1)) and ((a, 1), (b, 1)) for e_a -+ e_b with
    a < b, and ((a, 2),) for 2 e_a."""
    pairs = [((a, 1), (b, s)) for a in range(g) for b in range(a + 1, g) for s in (-1, 1)]
    return tuple(pairs) + tuple(((a, 2),) for a in range(g))


def _rho(g):
    # half-sum of the positive roots: (g, g-1, ..., 1)
    return tuple(g - k for k in range(g))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def orbit_size(w):
    """Size of the Weyl orbit of a weight, g! 2^(#nonzero) over the
    factorials of the multiplicities of its absolute values.

    Kept for the life of the process, keyed by the weight, which must
    therefore be a tuple: a list is unhashable and raises TypeError.

    >>> orbit_size((1, 1)), orbit_size((2, 0)), orbit_size((0, 0))
    (4, 4, 1)
    """
    a = [abs(x) for x in w]
    stabilizer = prod(factorial(a.count(v)) for v in set(a))
    return factorial(len(a)) * 2 ** (len(a) - a.count(0)) // stabilizer


def _checked_label(g, label, what):
    """The label in normal form (``_normal``).  Raises ValueError when the
    genus is negative, or the label is ZERO, which has no ``what``, or
    names no irreducible of sp(2g)."""
    _check_genus(g)
    label = RepLabel(*label)
    if label == ZERO:
        raise ValueError(f"ZERO label has no {what}")
    normal = _normal(*label)
    if not (0 <= normal.j <= g) or normal.i < 0:
        raise ValueError(f"label {label} invalid for genus {g}")
    return normal


@lru_cache(maxsize=None)
def dim_irrep(g, label):
    """Exact dimension of V_{i*w1 + w_j}.

    The label is normalised first (``_normal``), so j = 0 is left only for
    the trivial representation, of dimension 1.  Every other label has
    j >= 1 and is served by the closed product formula

        (2g+i+1)! / (i! j! (2g+1-j)!) * (2g+2-2j)/(2g+2+i-j) * j/(i+j),

    which the tests check against the Weyl dimension formula.

    >>> dim_irrep(2, RepLabel(1, 2))
    16
    """
    i, j = _checked_label(g, label, "dimension")
    if j == 0:
        return 1
    multinomial = factorial(2 * g + i + 1) // (
        factorial(i) * factorial(j) * factorial(2 * g + 1 - j)
    )
    num = multinomial * (2 * g + 2 - 2 * j) * j
    den = (2 * g + 2 + i - j) * (i + j)
    d, r = divmod(num, den)
    if r or d <= 0:
        raise ArithmeticError(
            f"hook formula gives {num}/{den} for {label} at genus {g}, "
            "not a positive integer"
        )
    return d


# ---------------------------------------------------------------------------
# characters


def _height2(g, v):
    # twice the height of a root-lattice vector: sum (2(g-m)+1) v_m
    return sum((2 * (g - 1 - m) + 1) * x for m, x in enumerate(v))


def _dominant_weights_below(g, lam):
    """All dominant weights mu <= lam: partial sums bounded by those of lam
    and lam - mu in the root lattice (even coordinate sum)."""
    out = []
    lam_partial = [sum(lam[: m + 1]) for m in range(g)]
    lam_total = sum(lam)

    def rec(prefix, bound, partial):
        m = len(prefix)
        if m == g:
            if (lam_total - partial) % 2 == 0:
                out.append(tuple(prefix))
            return
        for x in range(min(bound, lam_partial[m] - partial), -1, -1):
            # dominance: prefix sums of mu never exceed those of lam
            rec(prefix + [x], x, partial + x)

    rec([], max(lam, default=0), 0)
    return out


def _dominant_mults(g, lam):
    """Freudenthal recursion: multiplicities of the dominant weights of the
    irreducible with highest weight ``lam``; returns ((weight, mult), ...).

    Each step of an alpha-string copies mu and moves only the one or two
    coordinates of the root (``_root_moves``), sorts the absolute values
    once for the dominant representative and reads (nu, alpha) off the
    moved coordinates."""
    rho = _rho(g)
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    lam_rho_sq = _dot(lam_rho, lam_rho)
    doms = _dominant_weights_below(g, lam)
    doms.sort(key=lambda mu: _height2(g, tuple(a - b for a, b in zip(lam, mu))))
    if doms[0] != lam:
        raise ArithmeticError(f"highest dominant weight {doms[0]} is not {lam}")
    dom_set = set(doms)
    mults = {lam: 1}
    roots = _root_moves(g)
    for mu in doms[1:]:
        num = 0
        for root in roots:
            k = 1
            while True:
                # nu = mu + k alpha; mu is dominant, so only the moved
                # coordinates of nu can be negative
                nu = list(mu)
                dot = 0
                for c, step in root:
                    x = mu[c] + k * step
                    nu[c] = abs(x)
                    dot += step * x
                nu.sort(reverse=True)
                rep = tuple(nu)
                if rep not in dom_set:
                    break  # the alpha-string through mu is contiguous
                num += mults[rep] * dot
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        den = lam_rho_sq - _dot(mu_rho, mu_rho)
        if den <= 0:
            raise ArithmeticError(f"Freudenthal denominator {den} at {mu} below {lam}")
        m, r = divmod(2 * num, den)
        if r or m <= 0:
            raise ArithmeticError(
                f"Freudenthal gives multiplicity {2 * num}/{den} at {mu} below {lam}, "
                "not a positive integer"
            )
        mults[mu] = m
    return tuple(sorted(mults.items()))


@lru_cache(maxsize=None)
def irreducible_character(g, label):
    """Character of V_{i*w1 + w_j}: a read-only {dominant weight: mult}
    mapping.

    Built once per (g, label) by the Freudenthal recursion, which makes
    only dominant weights, and then shared, hence read-only."""
    label = _checked_label(g, label, "character")
    return MappingProxyType(dict(_dominant_mults(g, highest_weight(g, label))))


def _hook_label(g, w):
    """The label whose highest weight is ``w``, or None when ``w`` is not
    the highest weight of an i*w1 + w_j: not dominant, of the wrong length
    or outside the family."""
    label = rep_label(g, w[0] - 1, len(w) - w.count(0)) if any(w) else TRIVIAL
    if label != ZERO and highest_weight(g, label) == w:
        return label
    return None


def peel_character(g, char):
    """Decompose a character, any {weight: mult} mapping, into irreducibles
    of the hook family by repeatedly subtracting the character of a maximal
    weight.

    Raises NotACharacter when a multiplicity goes negative or a highest
    weight is not that of an i*w1 + w_j; either signals an upstream bug,
    since everything this artifact peels lies in that family.  This is the
    one dominance check a character gets: irreducible characters hold only
    dominant weights, so a weight that is not dominant is never cancelled,
    becomes the maximum in the end and is rejected here.
    """
    _check_genus(g)
    work = {w: m for w, m in char.items() if m}
    out = []
    while work:
        # lexicographic max is maximal in dominance order
        mu = max(work)
        m = work[mu]
        if m < 0:
            raise NotACharacter(f"negative multiplicity {m} at weight {mu}")
        label = _hook_label(g, mu)
        if label is None:
            raise NotACharacter(f"highest weight {mu} is not of hook form")
        for w, mm in irreducible_character(g, label).items():
            left = work.pop(w, 0) - m * mm
            if left:
                work[w] = left
        out.append((label, m))
    return VirtualRep(out)
