"""Exact arithmetic: multivariate polynomials and rational functions over Q.

Values are canonical: equal rational functions have identical
representations, so `==` is both cheap and meaningful.  All objects are
immutable after construction.

The arithmetic contract:

- Normalization.  A RationalFunction is reduced by one sympy call,
  `poly_cofactors`, which returns the gcd together with both reduced
  parts; no polynomial is divided outside sympy.
- Conversion.  A value is factored once, where it enters the pipeline
  (period entries, closed-form references), and stays a FactoredRF through
  products, sums, powers and substitution.  It is expanded once, where it
  leaves (public results, printing, graph edges, comparison with an
  expanded value).  Nothing is expanded only to be factored again, so
  `FactoredRF == RationalFunction` expands the factored side and
  `FactoredRF.substitute` returns a FactoredRF.  A square root halves the
  exponents of the factored form.
- Hashing.  Equal values hash alike across the two types: a
  RationalFunction hashes as its FactoredRF, and a constant of either
  type hashes as its Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from sympy import Symbol as _Symbol
from sympy.polys.domains import ZZ as _ZZ
from sympy.polys.orderings import grlex as _grlex
from sympy.polys.polyerrors import HeuristicGCDFailed as _HeuristicGCDFailed
from sympy.polys.rings import PolyElement, PolyRing

ExpVec = Tuple[int, ...]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@lru_cache(maxsize=256)
def _ring(variables: Tuple[str, ...]) -> PolyRing:
    """The integer polynomial ring in `variables`, built on first use.

    Its graded-lex order makes the ring's leading term the one MultiPoly
    prints first, so "monic" means the same on both sides.  Rings compare
    by their symbols, so an element outlives its ring's cache entry.
    """
    return PolyRing([_Symbol(v) for v in variables], _ZZ, _grlex)


@lru_cache(maxsize=1)
def _ground() -> Tuple[PolyElement, PolyElement]:
    """Zero and one of the ring with no variables, shared by all constants."""
    ring = _ring(())
    return ring.zero, ring.one


class MultiPoly:
    """A multivariate polynomial with Fraction coefficients.

    `variables` is the sorted tuple of variable names that actually occur.
    The value is `content * prim`: `prim` is an element of the integer ring
    `_ring(variables)` that is primitive (its coefficients have gcd 1) and
    has a positive leading coefficient in graded-lex order, and `content`
    is a nonzero Fraction; zero is content 0 over the ring with no
    variables.  That form is unique, so == and hash are structural.
    `terms` reads the value as a mapping from exponent vectors (relative to
    `variables`) to nonzero Fraction coefficients.
    """

    __slots__ = ("variables", "content", "prim", "_hash")

    def __new__(cls, variables: Tuple[str, ...],
                terms: Mapping[ExpVec, Fraction]):
        terms = {e: _as_fraction(c) for e, c in terms.items() if c}
        den = math.lcm(*(c.denominator for c in terms.values()))
        vs = tuple(sorted(variables))
        prim = _ring(tuple(variables)).from_dict({
            e: c.numerator * (den // c.denominator) for e, c in terms.items()})
        return _from_ring(vs, prim.set_ring(_ring(vs)), Fraction(1, den))

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _as_fraction(c)
        return _make((), _ground()[bool(c)], c)

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return _make((name,), _ring((name,)).gens[0], Fraction(1))

    # -- basic queries ------------------------------------------------

    @property
    def terms(self) -> Mapping[ExpVec, Fraction]:
        return MappingProxyType({e: self.content * c
                                 for e, c in self.prim.items()})

    def is_zero(self) -> bool:
        return not self.content

    def is_const(self) -> bool:
        return not self.variables

    def as_const(self) -> Fraction:
        if self.variables:
            raise ValueError("not a constant polynomial")
        return self.content

    def total_degree(self) -> int:
        return sum(self.prim.LM)

    def leading_coeff(self) -> Fraction:
        if not self.content:
            raise ValueError("zero polynomial has no leading term")
        return self.content * self.prim.LC

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.variables == other.variables
                and self.content == other.content and self.prim == other.prim)

    def __hash__(self):
        if self._hash is None:
            # not the PolyElement's hash, which hashes its ring's order
            # object by id and so changes from run to run
            object.__setattr__(self, "_hash", hash(
                (self.variables, self.content, frozenset(self.prim.items()))))
        return self._hash

    def __neg__(self) -> "MultiPoly":
        return _make(self.variables, self.prim, -self.content)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not other.content:
            return self
        if not self.content:
            return other
        vs, a, b = _align(self, other)
        ca, cb = self.content, other.content
        den = math.lcm(ca.denominator, cb.denominator)
        s = (a.mul_ground(ca.numerator * (den // ca.denominator))
             + b.mul_ground(cb.numerator * (den // cb.denominator)))
        return _from_ring(vs, s, Fraction(1, den))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.variables:
            return other.scale(self.content)
        if not other.variables:
            return self.scale(other.content)
        # a product of primitive polynomials is primitive (Gauss), and of
        # positive leading coefficients positive
        vs, a, b = _align(self, other)
        return _make(vs, a * b, self.content * other.content)

    def scale(self, c) -> "MultiPoly":
        c = _as_fraction(c)
        if c == 0:
            return MultiPoly.const(0)
        return _make(self.variables, self.prim, self.content * c)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return MultiPoly.const(1)
        return _make(self.variables, _power(self.prim, n), self.content ** n)

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self.content:
            return "0"
        pieces = []
        for e, k in self.prim.terms():
            c = self.content * k
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e) if k)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+" if c > 0 else "-") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _make(variables, prim, content) -> MultiPoly:
    """A MultiPoly from parts already in canonical form."""
    out = object.__new__(MultiPoly)
    object.__setattr__(out, "variables", variables)
    object.__setattr__(out, "prim", prim)
    object.__setattr__(out, "content", content)
    object.__setattr__(out, "_hash", None)
    return out


def _from_ring(variables: Tuple[str, ...], poly: PolyElement,
               content: Fraction) -> MultiPoly:
    """content * poly for a poly in _ring(variables), in canonical form:
    unused variables dropped, integer content and sign moved to `content`."""
    if not poly:
        return MultiPoly.const(0)
    used = poly.degrees()
    if not all(used):
        variables = tuple(v for v, d in zip(variables, used) if d)
        poly = poly.set_ring(_ring(variables))
    if not variables:
        return MultiPoly.const(content * poly.LC)
    c, poly = poly.primitive()
    if poly.LC < 0:
        c, poly = -c, -poly
    return _make(variables, poly, content * c)


def _power(p: PolyElement, n: int) -> PolyElement:
    """p ** n for n >= 1.  sympy's `**` expands a few terms by the
    multinomial theorem, in n^(k-1) products for k terms: fastest for
    k <= 3, but seconds for (1+q+q^2+q^3+q^4)^60, which repeated squaring
    takes in milliseconds."""
    if len(p) <= 3:
        return p ** n
    out = None
    while True:
        if n & 1:
            out = p if out is None else out * p
        n >>= 1
        if not n:
            return out
        p = p.square()


def _align(a: MultiPoly, b: MultiPoly):
    """The union of two variable sets and both polynomials in its ring."""
    if a.variables == b.variables:
        return a.variables, a.prim, b.prim
    vs = tuple(sorted(set(a.variables) | set(b.variables)))
    ring = _ring(vs)
    return vs, a.prim.set_ring(ring), b.prim.set_ring(ring)


# ---------------------------------------------------------------------------
# GCD with cofactors
# ---------------------------------------------------------------------------


def poly_cofactors(f: MultiPoly, g: MultiPoly
                   ) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(h, f/h, g/h) for the monic GCD h of f and g (1 for coprime inputs).

    Polynomials that share a variable go to one `cofactors` call on their
    primitive parts in a shared integer ring (`_ring_cofactors`): sympy's
    gcd computes both quotients anyway.  The gcd is only defined up to a
    unit, so it is made monic and its leading coefficient moved into the
    quotients; a constant gcd leaves f and g as they are.
    gcd(0, g) is monic g; gcd(0, 0) is 0, with zero quotients.
    """
    if f.is_zero():
        if g.is_zero():
            return f, f, g
        lc = g.leading_coeff()
        return g.scale(1 / lc), f, MultiPoly.const(lc)
    if g.is_zero():
        h, gq, fq = poly_cofactors(g, f)
        return h, fq, gq
    if (f.is_const() or g.is_const()
            or not set(f.variables) & set(g.variables)):
        return MultiPoly.const(1), f, g
    vs, pf, pg = _align(f, g)
    h, fq, gq = _ring_cofactors(pf, pg)
    if h.is_ground:
        return MultiPoly.const(1), f, g
    lc = h.LC
    return (_from_ring(vs, h, Fraction(1, lc)),
            _from_ring(vs, fq, f.content * lc),
            _from_ring(vs, gq, g.content * lc))


def _ring_cofactors(f: PolyElement, g: PolyElement
                    ) -> Tuple[PolyElement, PolyElement, PolyElement]:
    """(h, f/h, g/h) for a gcd h of two elements of one integer ring.

    sympy's sparse heuristic gcd can give up; the dense gcd, which falls
    back to subresultants, then answers.
    """
    try:
        return f.cofactors(g)
    except _HeuristicGCDFailed:
        return f.ring.dmp_inner_gcd(f, g)


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """A quotient of MultiPolys in lowest terms with a monic denominator.

    The normalization (cancel the polynomial gcd, then divide both parts by
    the denominator's leading coefficient) is a canonical form: two
    RationalFunctions are equal as functions iff they are structurally equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, _normalized=False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            if num.is_zero():
                den = MultiPoly.const(1)
            else:
                _, num, den = poly_cofactors(num, den)
                lc = den.leading_coeff()
                if lc != 1:
                    inv = Fraction(1) / lc
                    num = num.scale(inv)
                    den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "RationalFunction":
        return RationalFunction(MultiPoly.const(c), MultiPoly.const(1),
                                _normalized=True)

    @staticmethod
    def var(name: str) -> "RationalFunction":
        return RationalFunction(MultiPoly.var(name), MultiPoly.const(1),
                                _normalized=True)

    @staticmethod
    def from_poly(p: MultiPoly) -> "RationalFunction":
        return RationalFunction(p, MultiPoly.const(1))

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def as_const(self) -> Fraction:
        return self.num.as_const() / self.den.as_const()

    def is_integer(self) -> bool:
        return self.is_const() and self.as_const().denominator == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # hashes as the FactoredRF it compares equal to
        return hash(FactoredRF.from_rf(self))

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _operand(x) -> Optional["RationalFunction"]:
        """x as a RationalFunction, or None if it is not one, int or Fraction.

        The binary operators return NotImplemented on None, so Python tries
        the other operand's reflected method (FactoredRF has them).
        """
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalFunction.const(x)
        return None

    @staticmethod
    def _coerce(x) -> "RationalFunction":
        """x as a RationalFunction; a FactoredRF is expanded."""
        if isinstance(x, FactoredRF):
            return x.to_rf()
        out = RationalFunction._operand(x)
        if out is None:
            raise TypeError(f"cannot coerce {type(x).__name__}")
        return out

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        _, da, db = poly_cofactors(self.den, other.den)
        return RationalFunction(self.num * db + other.num * da,
                                da * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalFunction.const(0)
        _, n1, d2 = poly_cofactors(self.num, other.den)
        _, n2, d1 = poly_cofactors(other.num, self.den)
        # monic denominators divided by monic gcds: the product is monic
        return RationalFunction(n1 * n2, d1 * d2, _normalized=True)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # num/den are already coprime: only the new denominator is made monic
        inv = 1 / self.num.leading_coeff()
        return RationalFunction(self.den.scale(inv), self.num.scale(inv),
                                _normalized=True)

    def __truediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n == 0:
            return RationalFunction.const(1)
        if n < 0:
            return self.inverse() ** (-n)
        # num/den already coprime, so no cancellation can appear, and a
        # power of a monic denominator is monic
        return RationalFunction(self.num ** n, self.den ** n,
                                _normalized=True)

    # -- substitution -------------------------------------------------

    def substitute(self, bindings: Mapping[str, "RationalFunction"]):
        """Substitute rational functions for variables, exactly.

        Raises ZeroDivisionError if the denominator vanishes under the
        binding.
        """
        bindings = {k: self._coerce(v) for k, v in bindings.items()}
        num = _poly_substitute(self.num, bindings)
        den = _poly_substitute(self.den, bindings)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes under substitution")
        return num / den

    def __str__(self) -> str:
        if self.den.is_const() and self.den.as_const() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _poly_substitute(p: MultiPoly, bindings) -> "RationalFunction":
    """p with the rational functions in `bindings` put in for its variables.

    Write a bound value as (s/t) * N/M, with s/t its content and N and M
    primitive (1 for a constant).  A term c*x^k*m, x of degree D in p,
    becomes c * s^k t^(D-k) N^k M^(D-k) * m over t^D M^D.  The integers
    scale the coefficients in one pass; terms that then agree in the
    exponents of the variables bound to non-constants share one product of
    powers of N and M, in one integer ring.
    """
    slots = [i for i, v in enumerate(p.variables) if v in bindings]
    if not slots:
        return RationalFunction.from_poly(p)
    values = [bindings[p.variables[i]] for i in slots]
    vs = tuple(sorted({v for v in p.variables if v not in bindings}.union(
        *(r.num.variables + r.den.variables for r in values))))
    ring = _ring(vs)
    degrees = p.prim.degrees()
    content, den, ints, tables = p.content, ring.one, [], {}
    for i, r in zip(slots, values):
        st, top = r.num.content / r.den.content, degrees[i]
        ints.append((i, [st.numerator ** k * st.denominator ** (top - k)
                         for k in range(top + 1)]))
        content /= st.denominator ** top
        if not r.is_const():
            n, d = r.num.prim.set_ring(ring), r.den.prim.set_ring(ring)
            pn, pd = [ring.one], [ring.one]
            for _ in range(top):
                pn.append(pn[-1] * n)
                pd.append(pd[-1] * d)
            tables[i] = [a * b for a, b in zip(pn, reversed(pd))]
            den = den * pd[-1]
    groups: Dict[ExpVec, Dict[ExpVec, int]] = {}
    for e, c in p.prim.items():
        for i, row in ints:
            c *= row[e[i]]
        rest = tuple(0 if i in slots else k for i, k in enumerate(e))
        part = groups.setdefault(tuple(e[i] for i in tables), {})
        part[rest] = part.get(rest, 0) + c
    num = ring.zero
    for ks, part in groups.items():
        term = p.prim.ring.from_dict(part).set_ring(ring)
        for k, table in zip(ks, tables.values()):
            term = term * table[k]
        num = num + term
    return RationalFunction(_from_ring(vs, num, content),
                            _from_ring(vs, den, Fraction(1)))


_factor_cache: Dict[MultiPoly, Tuple[Fraction, Tuple[Tuple[MultiPoly, int], ...]]] = {}


def poly_factor(p: MultiPoly):
    """Factor into monic irreducibles: (coeff, ((factor, exponent), ...)).

    The product coeff * prod(f^e) reproduces p exactly; sympy finds the
    irreducibles of p's primitive part over ZZ.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.is_const():
        return p.as_const(), ()
    cached = _factor_cache.get(p)
    if cached is not None:
        return cached
    coeff, parts = p.prim.factor_list()
    c = p.content * coeff
    out = []
    for fac, e in parts:
        lc = fac.LC
        c *= lc ** e
        out.append((_from_ring(p.variables, fac, Fraction(1, lc)), e))
    out.sort(key=lambda fe: (fe[0].total_degree(), str(fe[0])))
    result = (c, tuple(out))
    if len(_factor_cache) > 4096:
        _factor_cache.clear()
    _factor_cache[p] = result
    return result


class FactoredRF:
    """A rational function kept as coeff * prod(monic irreducible^exp).

    Multiplication and division are exponent arithmetic; addition pulls out
    the shared factors so that only a small remainder is ever expanded.
    This makes long weight-transformation orbits tractable where expanded
    arithmetic blows up.  coeff == 0 encodes the zero function (factors
    empty).  The representation is canonical, so == between two factored
    values is structural; against a RationalFunction, == expands this value
    and never factors the other.
    """

    __slots__ = ("coeff", "factors", "_hash")

    def __init__(self, coeff=Fraction(1), factors=None):
        object.__setattr__(self, "coeff", Fraction(coeff))
        object.__setattr__(self, "factors",
                           dict(factors or {}) if self.coeff else {})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("FactoredRF is immutable")

    @staticmethod
    def zero() -> "FactoredRF":
        return FactoredRF(0)

    @staticmethod
    def from_rf(rf: "RationalFunction") -> "FactoredRF":
        if rf.is_zero():
            return FactoredRF.zero()
        c1, parts1 = poly_factor(rf.num)
        c2, parts2 = poly_factor(rf.den)
        # num and den are coprime, so no irreducible occurs in both
        return _factored(c1 / c2, {**dict(parts1),
                                   **{f: -e for f, e in parts2}})

    def to_rf(self) -> "RationalFunction":
        if not self.coeff:
            return RationalFunction.const(0)
        # every factor is multiplied in one ring; products of monic factors
        # are monic, so each content is read off a leading coefficient
        vs = tuple(sorted({v for f in self.factors for v in f.variables}))
        ring = _ring(vs)
        num, den = ring.one, ring.one
        for f, e in self.factors.items():
            power = _power(f.prim.set_ring(ring), abs(e))
            num, den = (num * power, den) if e > 0 else (num, den * power)
        return RationalFunction(_from_ring(vs, num, self.coeff / num.LC),
                                _from_ring(vs, den, Fraction(1, den.LC)),
                                _normalized=True)

    def substitute(self, bindings: Mapping[str, "RationalFunction"]
                   ) -> "FactoredRF":
        """Equal to self.to_rf().substitute(bindings), without expanding self.

        Each irreducible factor that has a bound variable is substituted,
        factored and raised to its exponent; the others are kept as they
        are.  Exponents are net, so a vanishing factor with a negative
        exponent raises ZeroDivisionError exactly where the expanded
        denominator would vanish.
        """
        bindings = {k: RationalFunction._coerce(v)
                    for k, v in bindings.items()}
        out = FactoredRF(self.coeff)
        for f, e in self.factors.items():
            if any(v in bindings for v in f.variables):
                part = FactoredRF.from_rf(_poly_substitute(f, bindings))
            else:
                part = FactoredRF(1, {f: 1})
            out = out * part ** e
        return out

    def is_zero(self) -> bool:
        return not self.coeff

    def _merged(self, other: "FactoredRF", sign: int) -> "FactoredRF":
        factors = dict(self.factors)
        for f, e in other.factors.items():
            new = factors.get(f, 0) + sign * e
            if new:
                factors[f] = new
            else:
                factors.pop(f, None)
        coeff = (self.coeff * other.coeff if sign > 0
                 else self.coeff / other.coeff)
        return _factored(coeff, factors)

    @staticmethod
    def _coerce(x) -> "FactoredRF":
        if isinstance(x, FactoredRF):
            return x
        if isinstance(x, RationalFunction):
            return FactoredRF.from_rf(x)
        if isinstance(x, (int, Fraction)):
            return FactoredRF(x)
        raise TypeError(f"cannot coerce {type(x).__name__}")

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return FactoredRF.zero()
        return self._merged(other, 1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.is_zero():
            return self
        return self._merged(other, -1)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self) -> "FactoredRF":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return _factored(1 / self.coeff,
                         {f: -e for f, e in self.factors.items()})

    def __pow__(self, n: int):
        if n == 0:
            return FactoredRF(1)
        if self.is_zero():
            if n < 0:
                raise ZeroDivisionError("negative power of zero")
            return self
        return _factored(self.coeff ** n,
                         {f: e * n for f, e in self.factors.items()})

    def sqrt(self) -> "FactoredRF":
        """Exact square root; raises ValueError if not a perfect square.

        The value is a square exactly when its coefficient is the square of
        a Fraction and every exponent is even; the root halves the
        exponents and takes the positive coefficient.
        """
        c = self.coeff
        root = Fraction(math.isqrt(abs(c.numerator)),
                        math.isqrt(c.denominator))
        if c < 0 or root * root != c or any(
                e % 2 for e in self.factors.values()):
            raise ValueError(f"not a perfect square: {self}")
        return _factored(root, {f: e // 2 for f, e in self.factors.items()})

    def __neg__(self):
        return _factored(-self.coeff, self.factors)

    def __add__(self, other):
        other = self._coerce(other)
        if not self.factors and not other.factors:
            return FactoredRF(self.coeff + other.coeff)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        shared: Dict[MultiPoly, int] = {}
        for f in set(self.factors) | set(other.factors):
            m = min(self.factors.get(f, 0), other.factors.get(f, 0))
            if m:
                shared[f] = m
        common = FactoredRF(1, shared)
        r = (self._merged(common, -1).to_rf()
             + other._merged(common, -1).to_rf())
        if r.is_zero():
            return FactoredRF.zero()
        return FactoredRF.from_rf(r)._merged(common, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.to_rf() == other
        if isinstance(other, (int, Fraction)):
            other = FactoredRF(other)
        if not isinstance(other, FactoredRF):
            return NotImplemented
        return self.coeff == other.coeff and self.factors == other.factors

    def __hash__(self):
        # a constant hashes as its Fraction, which it compares equal to
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.coeff, frozenset(self.factors.items()))
                if self.factors else self.coeff))
        return self._hash

    def __str__(self):
        return str(self.to_rf())

    def __repr__(self):
        return f"FactoredRF({self})"


def _factored(coeff: Fraction, factors: Dict[MultiPoly, int]) -> FactoredRF:
    """A FactoredRF from parts already in canonical form, taken uncopied.

    coeff is a nonzero Fraction and factors maps monic irreducibles to
    nonzero exponents.  No FactoredRF changes its factors dict, so the
    dict may be one another value holds.
    """
    out = object.__new__(FactoredRF)
    object.__setattr__(out, "coeff", coeff)
    object.__setattr__(out, "factors", factors)
    object.__setattr__(out, "_hash", None)
    return out
