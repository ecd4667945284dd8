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
  `FactoredRF.substitute` returns a FactoredRF.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

import sympy as _sympy

# Arbitrary-precision rational coefficients.  Invariants (reduced form,
# positive denominator, 0 == 0/1) are maintained by Fraction itself.
BigRational = Fraction

ExpVec = Tuple[int, ...]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class MultiPoly:
    """A multivariate polynomial with Fraction coefficients.

    `variables` is the sorted tuple of variable names that actually occur;
    `terms` maps exponent vectors (relative to `variables`) to nonzero
    coefficients.  Term order is graded lexicographic, which fixes a unique
    representation and printing order.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Tuple[str, ...], terms: Dict[ExpVec, Fraction]):
        # Canonicalize: drop zero coefficients and unused variables.
        terms = {e: c for e, c in terms.items() if c != 0}
        if variables:
            used = [i for i in range(len(variables))
                    if any(e[i] for e in terms)]
            if len(used) != len(variables):
                variables = tuple(variables[i] for i in used)
                terms = _merge_terms((tuple(e[i] for i in used), c)
                                     for e, c in terms.items())
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _as_fraction(c)
        return MultiPoly((), {(): c} if c else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Fraction(1)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.variables

    def as_const(self) -> Fraction:
        if self.variables:
            raise ValueError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]),
                      reverse=True)

    def leading(self) -> Tuple[ExpVec, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def leading_coeff(self) -> Fraction:
        return self.leading()[1]

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        vs, ta, tb = _align(self, other)
        out = dict(ta)
        for e, c in tb.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(vs, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if self.is_zero() or other.is_zero():
            return MultiPoly((), {})
        if self.is_const():
            c = self.as_const()
            return MultiPoly(other.variables,
                             {e: c * k for e, k in other.terms.items()})
        if other.is_const():
            return other * self
        vs, ta, tb = _align(self, other)
        if len(ta) * len(tb) > 4000:
            gens = _sympy.symbols(vs)
            pa, da = _to_sympy(MultiPoly(vs, ta), vs, gens)
            pb, db = _to_sympy(MultiPoly(vs, tb), vs, gens)
            return _from_sympy(pa * pb, vs, da * db)
        out: Dict[ExpVec, Fraction] = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, Fraction(0)) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(vs, out)

    def scale(self, c) -> "MultiPoly":
        c = _as_fraction(c)
        if c == 0:
            return MultiPoly((), {})
        return MultiPoly(self.variables, {e: c * k for e, k in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n > 2 and len(self.terms) ** 2 > 4000:
            gens = _sympy.symbols(self.variables)
            poly, den = _to_sympy(self, self.variables, gens)
            return _from_sympy(poly ** n, self.variables, den ** n)
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
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


def _grlex_key(e: ExpVec):
    return (sum(e), e)


def _merge_terms(items: Iterable[Tuple[ExpVec, Fraction]]) -> Dict[ExpVec, Fraction]:
    out: Dict[ExpVec, Fraction] = {}
    for e, c in items:
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _align(a: MultiPoly, b: MultiPoly):
    """Remap two polynomials onto the union of their variable sets."""
    if a.variables == b.variables:
        return a.variables, a.terms, b.terms
    vs = tuple(sorted(set(a.variables) | set(b.variables)))

    def remap(p: MultiPoly) -> Dict[ExpVec, Fraction]:
        idx = [vs.index(v) for v in p.variables]
        out = {}
        for e, c in p.terms.items():
            ne = [0] * len(vs)
            for i, k in zip(idx, e):
                ne[i] = k
            out[tuple(ne)] = c
        return out

    return vs, remap(a), remap(b)


# ---------------------------------------------------------------------------
# GCD with cofactors, square root
# ---------------------------------------------------------------------------


def _make_monic(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    return p.scale(Fraction(1) / p.leading_coeff())


def _to_sympy(p: MultiPoly, variables, gens):
    """p as (poly, den) with p = poly / den and poly a sympy Poly over ZZ.

    den is the lcm of p's coefficient denominators.  Integer coefficients
    keep sympy's arithmetic on plain ints; over QQ every coefficient
    operation would build and reduce a rational.
    """
    idx = [variables.index(v) for v in p.variables]
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    d = {}
    for e, c in p.terms.items():
        key = [0] * len(variables)
        for pos, ex in zip(idx, e):
            key[pos] = ex
        d[tuple(key)] = c.numerator * (den // c.denominator)
    return _sympy.Poly.from_dict(d, *gens, domain="ZZ"), den


def _from_sympy(poly, variables, den: int = 1) -> MultiPoly:
    """The MultiPoly poly / den, for an integer-coefficient sympy Poly."""
    terms = {tuple(int(e) for e in mono): Fraction(int(c), den)
             for mono, c in poly.as_dict(native=True).items()}
    return MultiPoly(variables, terms)


def poly_cofactors(f: MultiPoly, g: MultiPoly
                   ) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(h, f/h, g/h) for the monic GCD h of f and g (1 for coprime inputs).

    Polynomials that share a variable go to one `Poly.cofactors` call over
    ZZ, after clearing denominators: sympy's gcd computes both quotients
    anyway.  The gcd is only defined up to a unit, so it is made monic and
    its leading coefficient moved into the quotients; a constant gcd leaves
    f and g as they are.  gcd(0, g) is monic g; gcd(0, 0) is 0, with zero
    quotients.
    """
    if f.is_zero():
        if g.is_zero():
            return f, f, g
        lc = g.leading_coeff()
        return _make_monic(g), f, MultiPoly.const(lc)
    if g.is_zero():
        h, gq, fq = poly_cofactors(g, f)
        return h, fq, gq
    if (f.is_const() or g.is_const()
            or not set(f.variables) & set(g.variables)):
        return MultiPoly.const(1), f, g
    variables = tuple(sorted(set(f.variables) | set(g.variables)))
    gens = _sympy.symbols(variables)
    pf, df = _to_sympy(f, variables, gens)
    pg, dg = _to_sympy(g, variables, gens)
    h, fq, gq = pf.cofactors(pg)
    if h.is_ground:
        return MultiPoly.const(1), f, g
    h = _from_sympy(h, variables)
    lc = h.leading_coeff()
    return (_make_monic(h), _from_sympy(fq, variables, df).scale(lc),
            _from_sympy(gq, variables, dg).scale(lc))


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic GCD of two polynomials (1 for coprime nonzero inputs)."""
    return poly_cofactors(f, g)[0]


def poly_sqrt(p: MultiPoly) -> Optional[MultiPoly]:
    """Exact square root of a perfect-square polynomial, else None.

    p is a square exactly when its rational content is a square and every
    irreducible factor has an even exponent; the root returned is
    sqrt(content) * prod(f^(e/2)), with a positive leading coefficient.
    """
    if p.is_zero():
        return MultiPoly.const(0)
    coeff, parts = poly_factor(p)
    root = _frac_sqrt(coeff)
    if root is None or any(e % 2 for _, e in parts):
        return None
    return math.prod((f ** (e // 2) for f, e in parts),
                     start=MultiPoly.const(root))


def _frac_sqrt(c: Fraction) -> Optional[Fraction]:
    if c < 0:
        return None
    n = math.isqrt(c.numerator)
    d = math.isqrt(c.denominator)
    if n * n != c.numerator or d * d != c.denominator:
        return None
    return Fraction(n, d)


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
        return hash((self.num, self.den))

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
        return RationalFunction(self.den, self.num)

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

    def sqrt(self) -> "RationalFunction":
        """Exact square root; raises ValueError if not a perfect square.

        num and den are coprime, so the quotient is a square exactly when
        both are; their roots stay coprime, and the root of the monic den
        is monic.
        """
        num, den = poly_sqrt(self.num), poly_sqrt(self.den)
        if num is None or den is None:
            raise ValueError(f"not a perfect square: {self}")
        return RationalFunction(num, den, _normalized=True)

    def __str__(self) -> str:
        if self.den == MultiPoly.const(1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _poly_substitute(p: MultiPoly, bindings) -> "RationalFunction":
    # Constant bindings go straight into the coefficients in one pass; only
    # the rest need rational-function arithmetic.
    consts = {v: bindings[v].as_const() for v in p.variables
              if v in bindings and bindings[v].is_const()}
    if consts:
        keep = [i for i, v in enumerate(p.variables) if v not in consts]
        vals = [(i, consts[v]) for i, v in enumerate(p.variables)
                if v in consts]
        p = MultiPoly(tuple(p.variables[i] for i in keep), _merge_terms(
            (tuple(e[i] for i in keep),
             math.prod((val ** e[i] for i, val in vals), start=c))
            for e, c in p.terms.items()))
    if not any(v in bindings for v in p.variables):
        return RationalFunction.from_poly(p)

    cache: Dict[Tuple[str, int], RationalFunction] = {}

    def power(name, e):
        key = (name, e)
        if key not in cache:
            base = bindings.get(name)
            if base is None:
                base = RationalFunction.var(name)
            cache[key] = base ** e
        return cache[key]

    total = RationalFunction.const(0)
    for e, c in p.terms.items():
        v = RationalFunction.const(c)
        for name, exp in zip(p.variables, e):
            if exp:
                v = v * power(name, exp)
        total = total + v
    return total


_factor_cache: Dict[MultiPoly, Tuple[Fraction, Tuple[Tuple[MultiPoly, int], ...]]] = {}


def poly_factor(p: MultiPoly):
    """Factor into monic irreducibles: (coeff, ((factor, exponent), ...)).

    The product coeff * prod(f^e) reproduces p exactly; sympy finds the
    irreducibles of p's integer-coefficient multiple over ZZ.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.is_const():
        return p.as_const(), ()
    cached = _factor_cache.get(p)
    if cached is not None:
        return cached
    gens = _sympy.symbols(p.variables)
    poly, den = _to_sympy(p, p.variables, gens)
    coeff, parts = poly.factor_list()
    c = Fraction(int(coeff), den)
    out = []
    for fac, e in parts:
        mp = _from_sympy(fac, tuple(str(g) for g in fac.gens))
        lc = mp.leading_coeff()
        if lc != 1:
            c *= lc ** e
            mp = _make_monic(mp)
        out.append((mp, int(e)))
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

    __slots__ = ("coeff", "factors")

    def __init__(self, coeff=Fraction(1), factors=None):
        object.__setattr__(self, "coeff", Fraction(coeff))
        object.__setattr__(self, "factors",
                           dict(factors or {}) if self.coeff else {})

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
        factors: Dict[MultiPoly, int] = {}
        for f, e in parts1:
            factors[f] = factors.get(f, 0) + e
        for f, e in parts2:
            factors[f] = factors.get(f, 0) - e
        factors = {f: e for f, e in factors.items() if e}
        return FactoredRF(Fraction(c1) / Fraction(c2), factors)

    def to_rf(self) -> "RationalFunction":
        if not self.coeff:
            return RationalFunction.const(0)
        # the factors are monic, so their product is a monic denominator
        num = MultiPoly.const(self.coeff)
        den = MultiPoly.const(1)
        order = sorted(self.factors.items(),
                       key=lambda fe: (fe[0].total_degree(), str(fe[0])))
        for f, e in order:
            if e > 0:
                num = num * f ** e
            else:
                den = den * f ** (-e)
        return RationalFunction(num, den, _normalized=True)

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
        coeff = self.coeff * (other.coeff if sign > 0
                              else Fraction(1) / other.coeff)
        return FactoredRF(coeff, factors)

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
        return FactoredRF(Fraction(1) / self.coeff,
                          {f: -e for f, e in self.factors.items()})

    def __pow__(self, n: int):
        if n == 0:
            return FactoredRF(1)
        if self.is_zero():
            if n < 0:
                raise ZeroDivisionError("negative power of zero")
            return self
        return FactoredRF(self.coeff ** n,
                          {f: e * n for f, e in self.factors.items()})

    def __neg__(self):
        return FactoredRF(-self.coeff, self.factors)

    def __add__(self, other):
        other = self._coerce(other)
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
        return hash((self.coeff, frozenset(self.factors.items())))

    def __str__(self):
        return str(self.to_rf())

    def __repr__(self):
        return f"FactoredRF({self})"
