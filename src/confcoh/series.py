"""Truncated formal power series with representation-valued coefficients.

TriSeries lives in variables t, s, u and is truncated in the u-exponent.
A series in t and s alone is stored with u = t+s on every term, which is
the substitution t -> tu, s -> su; truncating it in u is then truncating
it in the total degree t+s, and sums and products keep u = t+s.  The
coefficients are VirtualRep values (plain integers coerce to multiples of
the trivial representation).  Multiplication is only defined when at most
one factor carries non-scalar coefficients, because the representation
ring is used additively.

All values are immutable and every operation is pure.

The package itself does not use this algebra: its master series is the
column running sums of ``closedform.build_Q``.  The slow routes of the
tests (``tests/reference.py``) build their series with it, and it stays in
the package while the benchmark's tracer wraps ``TriSeries.__mul__`` and
``__add__``.
"""

from .reps import VirtualRep

__all__ = [
    "TriSeries",
    "BothSidesVirtual",
]


class BothSidesVirtual(ValueError):
    """Product of two series that both carry non-scalar coefficients."""


def _as_rep(c):
    if isinstance(c, VirtualRep):
        return c
    if isinstance(c, int):
        return VirtualRep.unit(c)
    raise TypeError(f"coefficient must be int or VirtualRep, got {type(c)!r}")


class TriSeries:
    """Series in t, s, u truncated at a fixed u-exponent.

    Terms beyond the truncation are dropped silently, which is the
    truncation contract for sums and Cauchy products alike.
    """

    __slots__ = ("u_trunc", "_c")

    def __init__(self, u_trunc, coeffs=None):
        if u_trunc < 0:
            raise ValueError("u truncation must be >= 0")
        self.u_trunc = u_trunc
        data = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for key, c in items:
                t, s, u = key
                if t < 0 or s < 0 or u < 0:
                    raise ValueError(f"negative exponent in {key}")
                if u > u_trunc:
                    continue
                c = _as_rep(c)
                if not c:
                    continue
                prev = data.get((t, s, u))
                data[(t, s, u)] = prev + c if prev is not None else c
        self._c = {k: v for k, v in data.items() if v}

    @classmethod
    def one(cls, u_trunc):
        return cls(u_trunc, {(0, 0, 0): 1})

    @classmethod
    def term(cls, u_trunc, t, s, u, coeff=1):
        return cls(u_trunc, {(t, s, u): coeff})

    def coeffs(self):
        """Terms sorted lexicographically by (u, t, s)."""
        return sorted(self._c.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if not isinstance(other, TriSeries):
            return NotImplemented
        return self.u_trunc == other.u_trunc and self._c == other._c

    def __add__(self, other):
        trunc = min(self.u_trunc, other.u_trunc)
        out = {k: v for k, v in self._c.items() if k[2] <= trunc}
        for k, v in other._c.items():
            if k[2] <= trunc:
                out[k] = out.get(k, VirtualRep.zero()) + v
        return TriSeries(trunc, out)

    def __neg__(self):
        return TriSeries(self.u_trunc, {k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def is_scalar(self):
        return all(v.is_scalar() for v in self._c.values())

    def __mul__(self, other):
        if not isinstance(other, TriSeries):
            return NotImplemented
        if self.is_scalar():
            scalar, rest = self, other
        elif other.is_scalar():
            scalar, rest = other, self
        else:
            raise BothSidesVirtual("at most one factor may carry nontrivial labels")
        trunc = min(self.u_trunc, other.u_trunc)
        out = {}
        for (t1, s1, u1), c1 in scalar._c.items():
            if u1 > trunc:
                continue
            k = c1.scalar_value()
            for (t2, s2, u2), c2 in rest._c.items():
                u = u1 + u2
                if u > trunc:
                    continue
                key = (t1 + t2, s1 + s2, u)
                c = c2 if k == 1 else c2.scaled(k)  # VirtualRep is immutable
                prev = out.get(key)
                out[key] = prev + c if prev is not None else c
        return TriSeries(trunc, out)

    def __repr__(self):
        return f"TriSeries(u<={self.u_trunc}, {dict(self.coeffs())})"
