"""Exact arithmetic: multivariate polynomials and rational functions over Q.

Values are canonical: equal rational functions have identical
representations, so `==` is both cheap and meaningful.  All objects are
immutable after construction.

The arithmetic contract:

- Layout.  A polynomial is a Fraction content times a dict from exponent
  tuples to ints (`MultiPoly.prim`), and its arithmetic is this module's
  own.  sympy's ring is built in one adapter (`_ring`), for two calls:
  `_cofactors` and `_factor_list`.
- Normalization.  A RationalFunction is reduced by one gcd,
  `poly_cofactors`, which returns the gcd with both reduced parts.  A gcd
  with a one-term polynomial is read off its exponents and coefficients;
  any other is sympy's `cofactors`.
- Division.  Besides the gcd's cofactors, a polynomial is divided only by
  a known irreducible, through `_divide`: Johnson's heap division on
  exponent vectors packed into ints (`_Packing`, which products, powers
  and the oracle's sums share), stopping at the first term that does not
  divide.  `poly_factor` divides out the irreducibles it has found before
  (`_exquo`), and `common_denominator` divides the oracle's total by the
  irreducibles of its denominator; neither takes a gcd.
- Conversion.  A value is factored once, where it enters the pipeline
  (period entries, closed-form references), and stays a FactoredRF through
  products, sums, powers and substitution.  It is expanded once, where it
  leaves (public results, printing, graph edges, comparison with an
  expanded value).  Nothing is expanded only to be factored again, so
  `FactoredRF == RationalFunction` expands the factored side and
  `FactoredRF.substitute` returns a FactoredRF.  A square root halves the
  exponents of the factored form.  An expansion (`FactoredRF.to_rf`)
  multiplies each side's powers as packed terms in one `_Packing` and
  builds it with no gcd (Gauss's lemma); a substitution of constants for
  every variable of a polynomial is one integer sum.
- Products.  A long product is one sum of exponent counts (`counts`),
  turned into a FactoredRF once by `from_counts`, over a pairwise coprime
  base of the integer keys so that its coefficient needs no gcd.
- Powers.  A power of one term scales its exponents.  Other products
  and powers of polynomials are taken by `_expand`, in one packing wide
  enough for the result.  A power (`_packed_power`) from `_MILLER_FROM`
  on is J. C. P. Miller's recurrence (`_miller`), in about (terms of p) x
  (terms of p^n) coefficient products, each term of p^n one exact
  integer division; below, repeated squaring.
- Printing.  Only this module reads a polynomial's layout.  `__str__` and
  `size` read ints reduced by gcd(k, b) (`_coefficients`), in graded-lex
  order (`_grlex`), digits go through `Decimal`, and `common_denominator`
  puts the oracle's weights over one D.
- Constants.  A value with no variable stays a number: two constant
  RationalFunctions add, multiply, divide and raise as Fractions over the
  one shared denominator `_ONE`, with no polynomial gcd, and
  `common_denominator` writes all-constant weights as ints over the lcm
  of their denominators.
- Hashing.  Equal values hash alike across the two types: a
  RationalFunction hashes as its FactoredRF, and a constant of either
  type hashes as its Fraction.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from heapq import heapify, heappop, heappush
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from sympy.polys.domains import ZZ as _ZZ
from sympy.polys.galoistools import gf_irreducible_p as _gf_irreducible_p
from sympy.polys.polyerrors import HeuristicGCDFailed as _HeuristicGCDFailed
from sympy.polys.rings import PolyRing

ExpVec = Tuple[int, ...]
# an integer polynomial: exponent vectors over a tuple of variables, each
# with a nonzero int coefficient
Terms = Dict[ExpVec, int]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _grlex(e: ExpVec) -> Tuple[int, ExpVec]:
    """The graded-lex key of an exponent vector, sympy's `grlex`: the
    leading term is the largest, and terms print in descending order."""
    return sum(e), e


def _lc(terms: Terms) -> int:
    return terms[max(terms, key=_grlex)]


def _degrees(terms: Terms) -> List[int]:
    """The degree in each variable of nonzero terms."""
    return [max(column) for column in zip(*terms)]


def _is_ground(terms: Terms) -> bool:
    return not any(map(any, terms))


class MultiPoly:
    """A multivariate polynomial with Fraction coefficients.

    `variables` is the sorted tuple of variable names that actually occur.
    The value is `content * prim`: `prim` maps exponent vectors (relative
    to `variables`) to ints, is primitive (its coefficients have gcd 1) and
    has a positive leading coefficient in graded-lex order (`_grlex`), and
    `content` is a nonzero Fraction; zero is content 0 over no terms and no
    variables.  That form is unique, so == and hash are structural.
    `terms` reads the value as a mapping from exponent vectors to nonzero
    Fraction coefficients.
    """

    __slots__ = ("variables", "content", "prim", "_hash")

    def __new__(cls, variables: Tuple[str, ...],
                terms: Mapping[ExpVec, Fraction]):
        """The polynomial with these terms: each exponent vector gives a
        nonnegative int exponent for each of `variables`, all distinct."""
        variables = tuple(variables)
        if not all(isinstance(k, int) for e in terms for k in e):
            raise TypeError(f"exponents {list(terms)} are not all ints")
        if (len(set(variables)) != len(variables) or any(
                len(e) != len(variables) or min(e, default=0) < 0
                for e in terms)):
            raise ValueError(f"exponents {list(terms)} are not nonnegative "
                             f"and one for each of {variables}, distinct")
        terms = {e: _as_fraction(c) for e, c in terms.items() if c}
        den = math.lcm(*(c.denominator for c in terms.values()))
        order = sorted(range(len(variables)), key=variables.__getitem__)
        return _canonical(
            tuple(variables[i] for i in order),
            {tuple(e[i] for i in order): c.numerator * (den // c.denominator)
             for e, c in terms.items()},
            Fraction(1, den))

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _as_fraction(c)
        return _make((), {(): 1} if c else {}, c)

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return _make((name,), {(1,): 1}, Fraction(1))

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
        return max(map(sum, self.prim), default=0)

    def size(self) -> Tuple[int, int, int]:
        """(terms, total degree, coefficient bits), the bits bounding log2 of
        every coefficient's numerator and denominator: 1 has none, 2 one."""
        bits = max((max((num - 1).bit_length(), (den - 1).bit_length())
                    for _, _, num, den in self._coefficients()), default=0)
        return len(self.prim), self.total_degree(), bits

    def leading_coeff(self) -> Fraction:
        if not self.content:
            raise ValueError("zero polynomial has no leading term")
        return self.content * _lc(self.prim)

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.variables == other.variables
                and self.content == other.content and self.prim == other.prim)

    def __hash__(self):
        if self._hash is None:
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
        vs = tuple(sorted(set(self.variables) | set(other.variables)))
        ca, cb = self.content, other.content
        den = math.lcm(ca.denominator, cb.denominator)
        ka = ca.numerator * (den // ca.denominator)
        kb = cb.numerator * (den // cb.denominator)
        out = {e: ka * c for e, c in _reindex(self, vs).items()}
        for e, c in _reindex(other, vs).items():
            out[e] = out.get(e, 0) + kb * c
        return _canonical(vs, {e: c for e, c in out.items() if c},
                          Fraction(1, den))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.variables:
            return other.scale(self.content)
        if not other.variables:
            return self.scale(other.content)
        return _expand([(self, 1), (other, 1)], Fraction(1))

    def scale(self, c) -> "MultiPoly":
        c = _as_fraction(c)
        if c == 0:
            return MultiPoly.const(0)
        return _make(self.variables, self.prim, self.content * c)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return _ONE
        if len(self.prim) <= 1:  # zero, a constant or a monomial x^e
            prim = {tuple(k * n for k in m): 1 for m in self.prim}
            return _make(self.variables, prim, self.content ** n)
        return _expand([(self, n)], Fraction(1))

    # -- printing -----------------------------------------------------

    def _coefficients(self):
        """(exponents, negative, |numerator|, denominator) of each term in
        graded-lex order, as ints: k * a/b, k an integer of the primitive
        part and a/b the content in lowest terms, reduces by gcd(k, b)."""
        a, b = self.content.numerator, self.content.denominator
        for e, k in sorted(self.prim.items(), key=lambda t: _grlex(t[0]),
                           reverse=True):
            g = math.gcd(k, b)
            yield e, (k < 0) != (a < 0), abs(k * a) // g, b // g

    def __str__(self) -> str:
        pieces = []
        for e, negative, num, den in self._coefficients():
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e) if k)
            if not mono:
                body = _digits(num, den)
            elif num == den == 1:
                body = mono
            else:
                body = f"{_digits(num, den)}*{mono}"
            pieces.append(("-" if negative else "+" if pieces else "") + body)
        return "".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _digits(num: int, den: int) -> str:
    """num/den through Decimal: int.__str__ refuses over 4,300 digits."""
    out = str(Decimal(num))
    return out if den == 1 else f"{out}/{Decimal(den)}"


def _make(variables, prim, content) -> MultiPoly:
    """A MultiPoly from parts already in canonical form, prim taken
    uncopied: no MultiPoly changes its prim."""
    out = object.__new__(MultiPoly)
    object.__setattr__(out, "variables", variables)
    object.__setattr__(out, "prim", prim)
    object.__setattr__(out, "content", content)
    object.__setattr__(out, "_hash", None)
    return out


# the denominator of every constant and the gcd of every coprime pair
_ONE = _make((), {(): 1}, Fraction(1))


def _canonical(variables: Tuple[str, ...], terms: Terms,
               content: Fraction) -> MultiPoly:
    """content * terms, over `variables` with no zero coefficient, in
    canonical form: unused variables dropped, integer content and sign
    moved to `content`."""
    if not terms:
        return MultiPoly.const(0)
    used = _degrees(terms)
    if not all(used):
        keep = [i for i, d in enumerate(used) if d]
        variables = tuple(variables[i] for i in keep)
        terms = {tuple(e[i] for i in keep): c for e, c in terms.items()}
    g = math.gcd(*terms.values())
    if _lc(terms) < 0:
        g = -g
    if g != 1:
        terms = {e: c // g for e, c in terms.items()}
    return _make(variables, terms, content * g)


def _reindex(p: MultiPoly, variables: Tuple[str, ...]) -> Terms:
    """p's terms over `variables`, which hold all of p's."""
    if p.variables == variables:
        return p.prim
    take = [p.variables.index(v) if v in p.variables else -1
            for v in variables]
    return {tuple(e[i] if i >= 0 else 0 for i in take): c
            for e, c in p.prim.items()}


def _expand(factors: List[Tuple[MultiPoly, int]], c: Fraction) -> MultiPoly:
    """c * prod(f^e) over non-constant f in canonical form, each e > 0.

    The product is taken in one packing (`_Packing`) with fields for the
    sum of e * f's degree in each variable: each power is packed once and
    raised by `_packed_power`, the powers are multiplied as packed terms,
    smallest first, and unpacked once.  One factor to the first power
    needs no packing.

    The result is built in canonical form without a gcd.  By Gauss's
    lemma the product of the primitive parts is primitive.  Its leading
    coefficient in graded-lex order is the product of theirs, all
    positive.  And it uses every variable of its factors.  The content is
    c times the factors' contents to their powers.
    """
    if not factors:
        return MultiPoly.const(c)
    content = c * math.prod(f.content ** e for f, e in factors)
    if len(factors) == 1 and factors[0][1] == 1:
        return _make(factors[0][0].variables, factors[0][0].prim, content)
    vs = tuple(sorted({v for f, _ in factors for v in f.variables}))
    terms = [(_reindex(f, vs), e) for f, e in factors]
    packing = _Packing(map(sum, zip(*(
        [e * d for d in _degrees(t)] for t, e in terms))))
    powers = sorted((_packed_power(packing.terms(t), e) for t, e in terms),
                    key=len)
    product = powers[0]
    for power in powers[1:]:
        product = _packed_sum([(product.items(), power)])
    return _make(vs, packing.poly(product), content)


def _packed_power(p: Dict[int, int], n: int) -> Dict[int, int]:
    """p ** n for n >= 1 on nonzero packed terms, in a packing with fields
    for n times p's degrees: from `_MILLER_FROM` on by Miller's recurrence
    (`_miller`), below by repeated squaring (`_packed_sum`)."""
    if n == 1:
        return p
    if n >= _MILLER_FROM:
        return _miller(p, n)
    out = None
    while True:
        if n & 1:
            out = p if out is None else _packed_sum([(out.items(), p)])
        n >>= 1
        if not n:
            return out
        p = _packed_sum([(p.items(), p)])


def _miller(p: Mapping[int, int], n: int) -> Dict[int, int]:
    """p ** n on packed terms, by J. C. P. Miller's recurrence.

    The packing (`_Packing`) must have fields wide enough for n times p's
    degrees.  The packed int w(e) is linear in the exponent vector e and
    one-to-one on the exponent vectors of p and of q = p^n, so it grades
    both and p's lowest term c0*m0 is unique.  With E the Euler operator
    of w, p*E(q) = n*E(p)*q; at the offset v = w(t) - n*w(m0) of q's term
    t that reads
        c0 * v * q[v] = sum over p's other terms c*m, d = w(m) - w(m0),
                        of c * (n*d - (v - d)) * q[v - d],
    an exact division.  Each finished q[v] adds its share to the pending
    offsets v + d, and a heap pops the smallest, whose sum is then
    complete.  The identity holds at every exponent vector, so the share
    summed for one outside q's exponent box is 0, even where its packed
    int is that of a term of q.  The cost is about (terms of p) x (terms
    of q), where the last squaring of repeated squaring alone costs
    (terms of q)^2 / 4.
    """
    (w0, c0), *rest = sorted(p.items())
    rest = [(w - w0, n * (w - w0), c) for w, c in rest]
    base = n * w0
    q, pending, heap = {}, {}, []
    v, qv = 0, c0 ** n
    while True:
        q[v + base] = qv
        for d, nd, c in rest:
            t, x = v + d, (nd - v) * c * qv
            if t in pending:
                pending[t] += x
            else:
                pending[t] = x
                heappush(heap, t)
        # a zero sum is a cancelled term or an offset outside q's box
        total = 0
        while heap and not total:
            v = heappop(heap)
            total = pending.pop(v)
        if not total:
            break
        qv = total // (c0 * v)
    return q


def _packed_sum(pairs: Iterable[Tuple[Iterable[Tuple[int, int]],
                                      Mapping[int, int]]]) -> Dict[int, int]:
    """The sum of a * b over pairs of packed terms of one packing, wide
    enough for the products: a as (packed, coefficient) pairs, b as a
    dict."""
    out: Dict[int, int] = {}
    get = out.get
    for a, b in pairs:
        for m, x in a:
            for k, y in b.items():
                k += m
                out[k] = get(k, 0) + x * y
    for m in [m for m, c in out.items() if not c]:
        del out[m]
    return out


# the exponent from which _packed_power's recurrence beats repeated
# squaring: on dungeon-D's P, a dense 4x4 grid, 1+q+...+q^4 and 4- and
# 6-term polynomials without a constant term it took 0.8 to 1.4 times
# squaring's time at 5, and 0.6 to 0.95 times at 6 (CPython 3.11, no gmpy2)
_MILLER_FROM = 6


class _Packing:
    """Exponent vectors e with e_i <= bounds[i], each packed into one int.

    e_i sits at bit shifts[i], in a field with room for bounds[i] and one
    guard bit above it that is 0 in every packed vector.  Packing is
    linear, so monomials multiply by adding ints, and int order is the lex
    order with the last variable first, a monomial order.  For packed m and
    n, m - n sets a guard bit exactly when some n_i exceeds m_i: the lowest
    field that borrows keeps its top bit set.  `_expand`, `_exquo` and the
    oracle's sums (`common_denominator`) pack this way.
    """

    __slots__ = ("shifts", "masks", "guard")

    def __init__(self, bounds: Iterable[int]):
        self.shifts, self.masks, self.guard, width = [], [], 0, 0
        for d in bounds:
            self.shifts.append(width)
            width += d.bit_length() + 1
            self.masks.append((1 << width - self.shifts[-1]) - 1)
            self.guard |= 1 << width - 1

    def unpack(self, w: int) -> ExpVec:
        return tuple(w >> s & k for s, k in zip(self.shifts, self.masks))

    def terms(self, p: Terms) -> Dict[int, int]:
        return {sum(e << s for e, s in zip(m, self.shifts)): c
                for m, c in p.items()}

    def poly(self, terms: Mapping[int, int]) -> Terms:
        return {self.unpack(w): c for w, c in terms.items()}


def _exquo(f: Terms, g: Terms) -> Optional[Terms]:
    """f / g for integer terms over one tuple of variables, or None if g
    does not divide f exactly.

    A g of higher degree than f in some variable does not divide it;
    otherwise the fields are packed for f's degrees (`_Packing`), and
    `_divide` divides the packed terms.
    """
    if not g:
        raise ZeroDivisionError("polynomial division")
    if not f:
        return f
    bounds = _degrees(f)
    if any(a < b for a, b in zip(bounds, _degrees(g))):
        return None
    packing = _Packing(bounds)
    q = _divide(packing.terms(f), packing.terms(g), packing.guard)
    return None if q is None else packing.poly(q)


def _divide(f: Mapping[int, int], g: Mapping[int, int],
            guard: int) -> Optional[Dict[int, int]]:
    """f / g on nonzero packed terms, or None if g does not divide f.

    Johnson's heap division (Johnson 1974) on packed exponent vectors
    (Monagan and Pearce, CASC 2007), lowest term first: an exact quotient
    is the same under any monomial order, and read from the bottom, the
    lowest term of f - q*g is the next quotient term t times g's lowest
    term.  The pending terms of f - q*g sit in a dict, and a heap of their
    packed ints gives the lowest; each new t adds its products with g's
    other terms, all above it, so a popped sum is complete.

    The packing must hold the degrees of f and g.  A t whose guard bits
    are not 0 does not divide, or has left the packing's bounds, which an
    exact quotient never does; the division stops there, inexact.  So
    every t has fields below half their width, and a product t * g_k
    cannot carry between fields; the t grow, so a failed division ends.
    """
    (g0, c0), *rest = sorted(g.items())
    rest = [(w - g0, c) for w, c in rest]
    pending, q = dict(f), {}
    heap = list(pending)
    heapify(heap)
    while heap:
        m = heappop(heap)
        c = pending.pop(m)
        if not c:
            continue
        t = m - g0
        if t & guard or c % c0:
            return None
        q[t] = ct = c // c0
        for d, cg in rest:
            k = m + d
            if k in pending:
                pending[k] -= ct * cg
            else:
                pending[k] = -ct * cg
                heappush(heap, k)
    return q


# ---------------------------------------------------------------------------
# GCD with cofactors, and sympy's ring
# ---------------------------------------------------------------------------


def poly_cofactors(f: MultiPoly, g: MultiPoly
                   ) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(h, f/h, g/h) for the monic GCD h of f and g (1 for coprime inputs).

    Polynomials that share a variable go to `_cofactors` on their
    primitive parts over the union of their variables, which computes
    both quotients with the gcd.  The gcd is only defined up to a unit, so
    it is made monic and its leading coefficient moved into the quotients;
    a constant gcd leaves f and g as they are.
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
        return _ONE, f, g
    vs = tuple(sorted(set(f.variables) | set(g.variables)))
    h, fq, gq = _cofactors(_reindex(f, vs), _reindex(g, vs))
    if _is_ground(h):
        return _ONE, f, g
    lc = _lc(h)
    return (_canonical(vs, h, Fraction(1, lc)),
            _canonical(vs, fq, f.content * lc),
            _canonical(vs, gq, g.content * lc))


def _cofactors(f: Terms, g: Terms) -> Tuple[Terms, Terms, Terms]:
    """(h, f/h, g/h) for a gcd h of two nonzero integer polynomials over
    one tuple of variables.

    Where one of them is a term c*x^e, h is gcd(c, content of the other)
    times x to the least exponent of each variable over both; the rest go
    to sympy's `cofactors` (`_ring`).  Its sparse heuristic gcd can give
    up; the dense gcd, which falls back to subresultants, then answers.
    """
    if len(g) == 1 < len(f):
        h, gq, fq = _cofactors(g, f)
        return h, fq, gq
    if len(f) == 1:
        (e, c), = f.items()
        k = math.gcd(c, *g.values())
        m = tuple(map(min, e, *g))
        return ({m: k}, {tuple(a - b for a, b in zip(e, m)): c // k},
                {tuple(a - b for a, b in zip(x, m)): y // k
                 for x, y in g.items()})
    ring = _ring(len(next(iter(f))))
    f, g = ring.from_dict(f), ring.from_dict(g)
    try:
        out = f.cofactors(g)
    except _HeuristicGCDFailed:
        out = ring.dmp_inner_gcd(f, g)
    return tuple({e: int(c) for e, c in p.items()} for p in out)


def _factor_list(q: Terms) -> Tuple[int, List[Tuple[Terms, int]]]:
    """sympy's `factor_list` of an integer polynomial (`_ring`)."""
    coeff, parts = _ring(len(next(iter(q)))).from_dict(q).factor_list()
    return int(coeff), [({e: int(c) for e, c in f.items()}, k)
                        for f, k in parts]


def _ring(n: int) -> PolyRing:
    """sympy's ring of integer polynomials in n variables, the one place a
    sympy polynomial is built: `_cofactors` and `_factor_list` move terms
    into it by `from_dict` and read its elements back as dicts."""
    return PolyRing([f"x{i}" for i in range(n)], _ZZ)


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """A quotient of MultiPolys in lowest terms with a monic denominator.

    The normalization (cancel the polynomial gcd, then divide both parts by
    the denominator's leading coefficient) is a canonical form: two
    RationalFunctions are equal as functions iff they are structurally equal.
    A constant's denominator is 1, so two constants are added, multiplied
    and divided as Fractions, with no polynomial gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, _normalized=False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            if num.is_zero():
                den = _ONE
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
        return RationalFunction(MultiPoly.const(c), _ONE, _normalized=True)

    @staticmethod
    def var(name: str) -> "RationalFunction":
        return RationalFunction(MultiPoly.var(name), _ONE, _normalized=True)

    @staticmethod
    def from_poly(p: MultiPoly) -> "RationalFunction":
        return RationalFunction(p, _ONE)

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
        if self.is_const() and other.is_const():
            return RationalFunction.const(self.num.content + other.num.content)
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
        if self.is_const() and other.is_const():
            return RationalFunction.const(self.num.content * other.num.content)
        _, n1, d2 = poly_cofactors(self.num, other.den)
        _, n2, d1 = poly_cofactors(other.num, self.den)
        # monic denominators divided by monic gcds: the product is monic
        return RationalFunction(n1 * n2, d1 * d2, _normalized=True)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_const():
            return RationalFunction.const(1 / self.num.content)
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
        if self.is_const():
            return RationalFunction.const(self.num.content ** n)
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
    powers of N and M.  When every variable of p is bound to a constant,
    the value is content * sum(c * prod of the integers), one integer sum.
    """
    slots = [i for i, v in enumerate(p.variables) if v in bindings]
    if not slots:
        return RationalFunction.from_poly(p)
    values = [bindings[p.variables[i]] for i in slots]
    degrees = _degrees(p.prim)
    content, ints = p.content, []
    for i, r in zip(slots, values):
        st, top = r.num.content / r.den.content, degrees[i]
        ints.append((i, [st.numerator ** k * st.denominator ** (top - k)
                         for k in range(top + 1)]))
        content /= st.denominator ** top
    if len(slots) == len(p.variables) and all(r.is_const() for r in values):
        total = 0
        for e, c in p.prim.items():
            for i, row in ints:
                c *= row[e[i]]
            total += c
        return RationalFunction.const(content * total)
    den, tables = _ONE, {}
    for i, r in zip(slots, values):
        if not r.is_const():
            n, d = (_make(x.variables, x.prim, Fraction(1))
                    for x in (r.num, r.den))
            pn, pd = [_ONE], [_ONE]
            for _ in range(degrees[i]):
                pn.append(pn[-1] * n)
                pd.append(pd[-1] * d)
            tables[i] = [a * b for a, b in zip(pn, reversed(pd))]
            den = den * pd[-1]
    groups: Dict[ExpVec, Terms] = {}
    for e, c in p.prim.items():
        for i, row in ints:
            c *= row[e[i]]
        rest = tuple(0 if i in slots else k for i, k in enumerate(e))
        part = groups.setdefault(tuple(e[i] for i in tables), {})
        part[rest] = part.get(rest, 0) + c
    num = MultiPoly.const(0)
    for ks, part in groups.items():
        term = _canonical(p.variables, {e: c for e, c in part.items() if c},
                          Fraction(1))
        for k, table in zip(ks, tables.values()):
            term = term * table[k]
        num = num + term
    return RationalFunction(num.scale(content), den)


def common_denominator(weights: Iterable[RationalFunction], k: int):
    """The weights as numerators over one denominator D, for sums of
    products of k of them.

    Returns `numerator(w)` for each weight w, the numerators' one,
    `dot(pairs)`, the sum of w * s over (numerator, sum) pairs, and
    `quotient(total)`, total / D^k in canonical form.  Constant weights
    are Fractions cn/cd: D is the lcm b of the cd, the numerators
    cn*(b/cd) are ints, and the quotient a Fraction.

    Otherwise each weight is (cn/cd)*P/Q with P, Q primitive, and D is b
    times L = prod f^E over the primitive parts f of the irreducibles
    (`poly_factor`) of the distinct Q, E the largest exponent of f in any
    Q.  w's numerator is cn*(b/cd)*P*(L/Q), computed once per distinct
    (num, den) value and looked up by the identity of w, one of the
    weights given, as packed terms (`_Packing`) with fields wide enough
    for k times the numerators' degrees; `dot` (`_packed_sum`) sums
    packed products in a dict.  `quotient` divides each f out of the total
    (`_divide`) while it goes, at most k*E times, and puts what is left of
    f^(k*E) in the denominator: no gcd is taken.  An f's leading
    coefficient need not be 1 (2x+1), so the quotient divides numerator
    and denominator alike by the denominator's leading coefficient, which
    makes it monic.  Every division is exact and both parts are scaled
    together, so the value is total / D^k whatever the factors are: an f
    that were not irreducible could only leave a non-canonical form, which
    compares unequal.
    """
    weights = list(weights)
    if all(w.is_const() for w in weights):
        b = math.lcm(*(w.num.content.denominator for w in weights))

        def numerator(w: RationalFunction) -> int:
            c = w.num.content
            return c.numerator * (b // c.denominator)

        def dot(pairs) -> int:
            return sum(w * s for w, s in pairs)

        def quotient(total: int) -> RationalFunction:
            return RationalFunction.const(Fraction(total, b ** k))

        return numerator, 1, dot, quotient
    # the distinct values, each weight object compared once; `numerator`
    # then finds a weight by its identity, with no MultiPoly.__eq__
    pairs, key_of = {}, {}
    for w in weights:
        if id(w) not in key_of:
            key = w.num, w.den
            key_of[id(w)] = w, pairs.setdefault(key, key)
    vs = tuple(sorted({v for n, d in pairs
                       for v in n.variables + d.variables}))
    exps = {d: dict(poly_factor(d)[1]) for _, d in pairs}
    top = {}
    for factors in exps.values():
        for f, e in factors.items():
            top[f] = max(e, top.get(f, 0))
    coeff = {(n, d): n.content / d.content for n, d in pairs}
    b = math.lcm(*(c.denominator for c in coeff.values()))
    # each (num, den) value's b * n.content / d.content, an int
    ints = {k: c.numerator * (b // c.denominator) for k, c in coeff.items()}
    # the primitive part of n times the cofactor L/Q of its denominator
    scaled = {(n, d): _reindex(_expand([(n, 1), *(
        (f, e - exps[d].get(f, 0)) for f, e in top.items()
        if e != exps[d].get(f, 0))], Fraction(1)), vs) for n, d in pairs}
    irreducible = {f: _reindex(f, vs) for f in top}
    # wide enough for the divisors too, as _divide needs
    packing = _Packing(k * max(column) for column in zip(
        *map(_degrees, [*scaled.values(), *irreducible.values()])))
    packed = {key: tuple((w, ints[key] * x) for w, x in packing.terms(
        scaled[key]).items()) for key in pairs}
    # each entry holds its weight, so that no other object takes its id
    by_id = {i: (w, packed[key]) for i, (w, key) in key_of.items()}
    divisors = {f: packing.terms(g) for f, g in irreducible.items()}

    def numerator(w: RationalFunction) -> Tuple[Tuple[int, int], ...]:
        return by_id[id(w)][1]

    def quotient(total: Dict[int, int]) -> RationalFunction:
        if not total:
            return RationalFunction.const(0)
        rest = []
        for f, g in divisors.items():
            left = k * top[f]
            while left:
                q = _divide(total, g, packing.guard)
                if q is None:
                    break
                total, left = q, left - 1
            if left:
                rest.append((f, left))
        # the irreducibles are monic but their primitive parts are not
        # (2x+1): the numerator takes the denominator's content too
        den = _expand(rest, Fraction(1))
        return RationalFunction(
            _canonical(vs, packing.poly(total), den.content / b ** k), den,
            _normalized=True)

    return numerator, {0: 1}, _packed_sum, quotient


_factor_cache: Dict[MultiPoly, Tuple[Fraction, Tuple[Tuple[MultiPoly, int], ...]]] = {}
# every irreducible poly_factor has returned: its value at _at_point, and its
# degree in each of its variables
_irreducibles: Dict[MultiPoly, Tuple[int, Dict[str, int]]] = {}


def poly_factor(p: MultiPoly):
    """Factor into monic irreducibles: (coeff, ((factor, exponent), ...)).

    The product coeff * prod(f^e) reproduces p exactly, and the factors are
    sorted by (total degree, str).  Results are cached by p's primitive
    part, which is factored over ZZ in three passes:

    1. Every irreducible found before (`_irreducibles`) that fits p's
       variables and degrees is divided out as often as it goes (`_exquo`).
       A division is tried only where the factor's value at a fixed
       integer point divides the remainder's: even one that fails at once
       packs all of the remainder's terms first.
    2. The remainder is settled without sympy's factorizer where it can be
       (`_remainder_factors`): a monomial splits into its variables; a
       remainder with a whole integer coefficient in some x is proved
       irreducible by one specialization that stays irreducible modulo a
       small prime (`_certified_irreducible`); and A*x + B with B != 0 and
       gcd(A, B) = 1 is irreducible (Gauss's lemma).
    3. Any other remainder goes to sympy's `factor_list`.

    Factorization over ZZ is unique, so the passes change neither the
    factors nor their order: the result is the one `factor_list` gives for
    the whole of p.  The registry is emptied with the cache, so both stay
    bounded.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.is_const():
        return p.as_const(), ()
    key = p if p.content == 1 else _make(p.variables, p.prim, Fraction(1))
    cached = _factor_cache.get(key)
    if cached is None:
        if len(_factor_cache) > 4096:
            _factor_cache.clear()
            _irreducibles.clear()
        cached = _factor_cache[key] = _factor_primitive(key)
    coeff, factors = cached
    return p.content * coeff, factors


def _factor_primitive(p: MultiPoly):
    """poly_factor of a non-constant p with content 1, in its three passes."""
    vs, q = p.variables, p.prim
    degrees = dict(zip(vs, _degrees(q)))
    at = _at_point(q, vs)
    c, out = Fraction(1), []
    for f, (f_at, f_degrees) in _irreducibles.items():
        if not all(d <= degrees.get(v, 0) for v, d in f_degrees.items()):
            continue
        e = 0
        while (at % f_at == 0 if f_at else at == 0):
            quotient = _exquo(q, _reindex(f, vs))
            if quotient is None:
                break
            q, e = quotient, e + 1
            at = at // f_at if f_at else _at_point(q, vs)
        if e:
            c *= _lc(f.prim) ** e
            out.append((f, e))
            if _is_ground(q):
                break
    if not _is_ground(q):
        coeff, parts = _remainder_factors(q)
        c *= coeff
        for fac, e in parts:
            lc = _lc(fac)
            c *= lc ** e
            f = _canonical(vs, fac, Fraction(1, lc))
            _irreducibles[f] = (_at_point(f.prim, f.variables),
                                dict(zip(f.variables, _degrees(f.prim))))
            out.append((f, e))
    out.sort(key=lambda fe: (fe[0].total_degree(), str(fe[0])))
    return c, tuple(out)


def _remainder_factors(q: Terms) -> Tuple[int, List[Tuple[Terms, int]]]:
    """factor_list of a primitive q with a positive leading coefficient.

    Three cases need no sympy factorizer: a monomial, whose coefficient is
    then 1; a q that `_certified_irreducible` proves irreducible; and
    A*x + B with B != 0 and gcd(A, B) = 1, where a factor free of x would
    divide both A and B.  Any other q goes to sympy's `_factor_list`."""
    if len(q) == 1:
        (e, k), = q.items()
        return k, [({tuple(int(i == j) for j in range(len(e))): 1}, d)
                   for i, d in enumerate(e) if d]
    if _certified_irreducible(q):
        return 1, [(q, 1)]
    degrees = _degrees(q)
    if 1 in degrees:
        i = degrees.index(1)
        a = {e[:i] + (0,) + e[i + 1:]: k for e, k in q.items() if e[i]}
        b = {e: k for e, k in q.items() if not e[i]}
        if b and _is_ground(_cofactors(a, b)[0]):
            return 1, [(q, 1)]
    return _factor_list(q)


# the values given to every other variable, and the primes, that
# _certified_irreducible tries in this order: at most 5 x 10 tests, each on
# a polynomial of degree at most _CERTIFIED_DEGREE
_POINTS = (1, 2, -1, 3, -2)
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_CERTIFIED_DEGREE = 12


def _certified_irreducible(q: Terms) -> bool:
    """Whether one specialization proves the primitive q irreducible.

    Take a variable x of q, of degree d >= 1, for which the coefficient c_k
    of some x^k is a nonzero integer as a whole: every term with x^k is free
    of the other variables y.  Put one value y0 from `_POINTS` in for all
    of y.  If u(x) = q(x, y0) keeps degree d, and u mod p is irreducible
    over F_p (Rabin's test) for a prime p from `_PRIMES` that does not
    divide LC(u), then q is irreducible; d = 1 needs no point and no prime.

    Proof: let q = g*h.  LC_x(q)(y0) != 0 keeps the x-degrees of g and h
    in u = g(x, y0)*h(x, y0), and p not dividing LC(u) keeps them in
    u mod p, which is irreducible, so one factor, h say, has x-degree 0
    (for d = 1 the degrees alone say so).  Then h in Z[y] divides the
    integer c_k, so h is an integer, and it divides content(q) = 1.

    x is the variable of least degree with such a coefficient (the first
    in the ring on ties); a q in x alone needs one point only.  False when
    q has no such x, when d exceeds `_CERTIFIED_DEGREE`, or when no try
    succeeds.  Past that degree a try succeeds less often (about 1 in d
    primes for a generic q) and costs more (Rabin's test grows as d^3):
    on dense random irreducibles in two variables, `factor_list` was as
    fast as the certificate from degree 10 and faster at 12, and a
    remainder the certificate fails on goes to `factor_list` anyway.
    """
    terms = q.items()
    for d, i in sorted((d, i) for i, d in enumerate(_degrees(q)) if d):
        # the x-exponents of terms that have another variable too
        mixed = {e[i] for e, _ in terms if sum(e) != e[i]}
        if any(e[i] not in mixed for e, _ in terms):
            break
    else:
        return False
    if d == 1:
        return True
    if d > _CERTIFIED_DEGREE:
        return False
    for y0 in _POINTS if mixed else _POINTS[:1]:
        u = [0] * (d + 1)
        for e, k in terms:
            u[d - e[i]] += k * y0 ** (sum(e) - e[i])
        for p in _PRIMES:  # u[0] is LC(u): 0 where y0 drops the degree
            if u[0] % p and _gf_irreducible_p([k % p for k in u], p, _ZZ):
                return True
    return False


def _at_point(q: Terms, variables: Tuple[str, ...]) -> int:
    """q at the integer point that gives each variable the CRC-32 of its
    name plus 2: the same point in every run, whatever the hash seed."""
    point = [zlib.crc32(v.encode()) + 2 for v in variables]
    return sum(k * math.prod(x ** d for x, d in zip(point, e) if d)
               for e, k in q.items())


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
        """This value expanded: the product of its positive powers over
        that of its negative powers, each side by `_expand`.  Both sides
        are products of monic factors, so the quotient is in canonical
        form: no irreducible is on both sides and the denominator is
        monic."""
        if not self.factors:
            return RationalFunction.const(self.coeff)
        num = [(f, e) for f, e in self.factors.items() if e > 0]
        den = [(f, -e) for f, e in self.factors.items() if e < 0]
        return RationalFunction(_expand(num, self.coeff),
                                _expand(den, Fraction(1)), _normalized=True)

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

    def counts(self) -> Dict[object, int]:
        """This nonzero value as exponent counts: its irreducibles, its
        coefficient's |numerator| (+1) and denominator (-1) unless 1, and
        -1 (+1) if it is negative."""
        c = self.coeff
        if not c:
            raise ValueError("zero has no exponent counts")
        ints = ((abs(c.numerator), 1), (c.denominator, -1), (-1, int(c < 0)))
        return {**self.factors, **{x: e for x, e in ints if x != 1 and e}}

    @staticmethod
    def from_counts(*counts: Mapping[object, int]) -> "FactoredRF":
        """The product of the values with these `counts`; over a coprime
        base of the integer keys its coefficient needs no gcd."""
        total = Counter()
        for c in counts:
            total.update(c)
        ints = {x: e for x, e in total.items() if isinstance(x, int)}
        sign = (-1) ** (ints.pop(-1, 0) % 2)
        base = _coprime_base(ints)
        num = math.prod(b ** e for b, e in base.items() if e > 0)
        den = math.prod(b ** -e for b, e in base.items() if e < 0)
        coeff = object.__new__(Fraction)  # Fraction(num, den) would take a gcd
        coeff._numerator, coeff._denominator = sign * num, den
        return _factored(coeff, {
            f: e for f, e in total.items() if e and not isinstance(f, int)})

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


def _strip(x: int, d: int) -> Tuple[int, int]:
    """(x / d^k, k) for the largest k with d^k dividing x."""
    k = 0
    while x % d == 0:
        x, k = x // d, k + 1
    return x, k


def _coprime_base(ints: Dict[int, int]) -> Dict[int, int]:
    """prod(x^e) over integers x > 1 as exponents of a pairwise coprime base.

    Factor refinement (Bach, Driscoll and Shallit 1993), smallest key first:
    a base element b is divided out of a key fully, so a high power splits
    in one step, and a divisor g > 1 the rest shares with b splits b into
    g and b / g, so no element is 1.
    """
    base: Dict[int, int] = {}
    todo = sorted(((x, e) for x, e in ints.items() if e), reverse=True)
    while todo:
        x, e = todo.pop()
        for b in list(base):
            x, k = _strip(x, b)
            base[b] += k * e
            g = math.gcd(x, b)
            if g > 1:
                eb = base.pop(b)
                todo += [(g, eb), (b // g, eb), (x, e)]
                break
            if x == 1:
                break
        else:
            base[x] = e
    return {b: e for b, e in base.items() if e}
