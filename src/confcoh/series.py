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
"""

from .reps import VirtualRep

__all__ = [
    "TriSeries",
    "OutOfTruncation",
    "BothSidesVirtual",
]


class OutOfTruncation(ValueError):
    """A coefficient beyond the series truncation was requested."""


class BothSidesVirtual(ValueError):
    """Product of two series that both carry non-scalar coefficients."""


def _as_rep(c):
    if isinstance(c, VirtualRep):
        return c
    if isinstance(c, int):
        return VirtualRep.unit(c)
    raise TypeError(f"coefficient must be int or VirtualRep, got {type(c)!r}")


_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _pow(sym, e):
    if e == 0:
        return ""
    if e == 1:
        return sym
    return sym + str(e).translate(_SUP)


def _mono_text(t, s, u=0):
    ts = _pow("t", t) + _pow("s", s)
    up = _pow("u", u)
    if ts and up:
        return f"{ts}·{up}"
    return ts or up


def _term_text(coeff, mono):
    if coeff.is_scalar():
        c = coeff.scalar_value()
        if not mono:
            return str(c)
        if c == 1:
            return mono
        if c == -1:
            return f"-{mono}"
        return f"{c}{mono}"
    if not mono:
        return f"[{coeff.text()}]"
    return f"[{coeff.text()}]·{mono}"


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

    def div_one_minus_u(self):
        """This series times 1/(1-u) = 1 + u + u^2 + ..., at the same
        truncation: the u^n coefficient at (t, s) is the running sum of the
        (t, s) column over u <= n.  Zero sums are not stored."""
        columns = {}
        for (t, s, u), c in self._c.items():
            columns.setdefault((t, s), []).append((u, c))
        out = {}
        for (t, s), column in columns.items():
            column.sort()  # u is unique in a column, so no rep is compared
            ends = [u for u, _ in column[1:]] + [self.u_trunc + 1]
            total = VirtualRep.zero()
            for (u, c), end in zip(column, ends):
                total = total + c
                if total:
                    for v in range(u, end):
                        out[(t, s, v)] = total
        return TriSeries(self.u_trunc, out)

    def coeff_u(self, n):
        """The u^n slice as a map (t_exp, s_exp) -> VirtualRep."""
        if n > self.u_trunc:
            raise OutOfTruncation(f"u^{n} beyond truncation {self.u_trunc}")
        if n < 0:
            raise ValueError("negative u exponent")
        return {(t, s): c for (t, s, u), c in self._c.items() if u == n}

    def text(self):
        """Rendering like ``[V(1,1)]·t²s·u³`` with lexicographic term order."""
        if not self._c:
            return "0"
        parts = [_term_text(c, _mono_text(t, s, u)) for (t, s, u), c in self.coeffs()]
        return " + ".join(parts).replace("+ -", "- ")

    def grouped_u_text(self):
        """Scalar series rendered with the u-slices grouped, e.g.
        ``1 + (1 + 2t + t²)u``."""
        if not self._c:
            return "0"
        groups = {}
        for (t, s, u), c in self._c.items():
            groups.setdefault(u, {})[(t, s)] = c.scalar_value()
        parts = []
        for u in sorted(groups):
            terms = sorted(groups[u].items())
            inner = " + ".join(
                _term_text(VirtualRep.unit(c), _mono_text(t, s)) for (t, s), c in terms
            ).replace("+ -", "- ")
            up = _pow("u", u)
            if not up:
                parts.append(inner)
            elif len(terms) > 1:
                parts.append(f"({inner}){up}")
            elif inner == "1":
                parts.append(up)
            else:
                parts.append(f"{inner}{up}")
        return " + ".join(parts)

    def to_json(self):
        return [
            {"t": t, "s": s, "u": u, "rep": c.to_json()}
            for (t, s, u), c in self.coeffs()
        ]

    @classmethod
    def from_json(cls, records, u_trunc):
        return cls(
            u_trunc,
            {
                (r["t"], r["s"], r["u"]): VirtualRep.from_json(r["rep"])
                for r in records
            },
        )

    def __repr__(self):
        return f"TriSeries(u<={self.u_trunc}, {self.text()})"
