"""Exact arithmetic: polynomials, rational functions, factored forms."""

import math
import operator
import os
import random
import subprocess
import sys
import zlib
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import sympy
import sympy.polys.rings
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import grlex
from sympy.polys.polyerrors import ExactQuotientFailed, HeuristicGCDFailed

from matchgen import aztec, families, rational
from matchgen.aztec import (AztecInstance, evaluate, evaluate_factored,
                            to_graph)
from matchgen.exprs import parse
from matchgen.families import dungeon_period_N
from matchgen.graphs import oracle_mgf
from matchgen.rational import (FactoredRF, MultiPoly, RationalFunction,
                               poly_cofactors, poly_factor)

RF = RationalFunction


def mp(variables, terms):
    return MultiPoly(tuple(variables),
                     {tuple(e): Fraction(c) for e, c in terms.items()})


def sympy_ring(variables):
    """sympy's ring of integer polynomials in `variables`, graded-lex, the
    independent reference for gcds, divisions and the printed order."""
    return sympy.polys.rings.PolyRing(list(variables), sympy.ZZ, grlex)


coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, max_terms=4):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        c = draw(coeffs)
        if c:
            terms[e] = Fraction(c)
    return MultiPoly(("x", "y"), terms)


def schoolbook(a, b):
    """Term-by-term product, independent of MultiPoly.__mul__."""
    vs = tuple(sorted(set(a.variables) | set(b.variables)))
    out = {}
    for ea, ca in a.terms.items():
        ma = dict(zip(a.variables, ea))
        for eb, cb in b.terms.items():
            mb = dict(zip(b.variables, eb))
            e = tuple(ma.get(v, 0) + mb.get(v, 0) for v in vs)
            out[e] = out.get(e, 0) + ca * cb
    return MultiPoly(vs, out)


def grlex_str(p):
    """The printed form, written on p.terms alone: terms in descending
    graded-lex order, independent of MultiPoly.__str__."""
    pieces = []
    for e, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]),
                       reverse=True):
        mono = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(p.variables, e) if k)
        body = str(abs(c)) if not mono else mono if abs(c) == 1 \
            else f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+" if pieces else ""
        pieces.append(sign + body)
    return "".join(pieces) or "0"


@st.composite
def sparse_polys(draw, max_terms=4):
    """Fraction coefficients over a random subset of x, y, z, passed to the
    constructor in a random variable order."""
    variables = draw(st.permutations("xyz"))[:draw(st.integers(0, 3))]
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, 3)) for _ in variables)
        terms[e] = draw(st.fractions(min_value=-5, max_value=5,
                                     max_denominator=6))
    return MultiPoly(tuple(variables), terms)


@st.composite
def power_bases(draw):
    """Integer polynomials of 1-5 terms in 1-4 variables, some without a
    constant term, some whose lowest term in `_miller`'s packed order (lex
    on the reversed exponent vector) has coefficient +-2 or +-3, which
    that order's exact division divides by."""
    k = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        e = tuple(draw(st.integers(0, 3)) for _ in range(k))
        terms[e] = draw(st.integers(-4, 4).filter(bool))
    if draw(st.booleans()):
        terms.pop((0,) * k, None)
    low = draw(st.sampled_from((None, 2, -2, 3, -3)))
    if low and terms:
        terms[min(terms, key=lambda e: e[::-1])] = low
    return mp("wxyz"[:k], terms)


def grid_poly(variables, size, seed):
    """A dense size x size polynomial with coefficients c/6, none zero."""
    return MultiPoly(tuple(variables), {
        (i, j): Fraction((seed * i + 3 * j + 1) % 11 - 5 or 7, 6)
        for i in range(size) for j in range(size)})


@st.composite
def rationals(draw):
    num = draw(polys())
    den = draw(polys(max_terms=2))
    if den.is_zero():
        den = MultiPoly.const(1)
    return RF(num, den)


# x, 1/x and (x+1)/(2y), built without RationalFunction arithmetic
_non_constants = [RF(mp("x", {(1,): 1}), MultiPoly.const(1)),
                  RF(MultiPoly.const(1), mp("x", {(1,): 1})),
                  RF(mp("x", {(1,): 1, (0,): 1}), mp("y", {(1,): 2}))]

fractions_with_zero = st.one_of(st.just(Fraction(0)),
                                st.fractions(max_denominator=12))


def constant_forms(c):
    """c as an int (when whole), a Fraction and a constant RationalFunction."""
    return [c.numerator] * (c.denominator == 1) + [c, RF.const(c)]


def const_parts(r):
    """A RationalFunction's structure, with the type of its content."""
    return (type(r), r.num.variables, type(r.num.content), r.num.content,
            r.num.prim, r.den)


class TestMultiPoly:
    def test_zero_and_const(self):
        z = MultiPoly((), {})
        assert z.is_zero()
        one = MultiPoly.const(1)
        assert one.is_const() and one.as_const() == 1
        # below and from the recurrence's exponent on
        for n in (3, rational._MILLER_FROM + 1):
            assert z ** n == z
            assert MultiPoly.const(-2) ** n == MultiPoly.const((-2) ** n)
            assert mp("xy", {(2, 1): Fraction(-1, 3)}) ** n == mp(
                "xy", {(2 * n, n): Fraction(-1, 3) ** n})

    @pytest.mark.parametrize("variables,terms,error", [
        (("x", "x"), {(1, 0): 1, (0, 1): 1}, ValueError),
        (("x",), {(1, 2): 1}, ValueError),
        (("x", "y"), {(1,): 0}, ValueError),
        (("x",), {(-1,): 1}, ValueError),
        (("x",), {(Fraction(1, 2),): 1}, TypeError),
        (("x",), {(1.0,): 1}, TypeError),
    ], ids=["repeated-variable", "long-exponents", "short-exponents",
            "negative-exponent", "fraction-exponent", "float-exponent"])
    def test_malformed_terms_are_refused(self, variables, terms, error):
        with pytest.raises(error):
            MultiPoly(variables, terms)

    def test_add_cancels(self):
        p = mp("xy", {(1, 0): 2})
        assert (p + (-p)).is_zero()

    def test_mul_distributes(self):
        a = mp("xy", {(1, 0): 1, (0, 1): 1})
        b = mp("xy", {(1, 0): 1, (0, 1): -1})
        assert a * b == mp("xy", {(2, 0): 1, (0, 2): -1})

    def test_pow_matches_repeated_mul(self):
        a = mp("xy", {(1, 0): 1, (0, 0): 1})
        assert a ** 3 == a * a * a

    def test_large_product_with_fractions(self):
        # 81 x 81 term pairs with Fraction coefficients, dense and disjoint
        a = grid_poly("xy", 9, 5)
        b = grid_poly("xy", 9, 7)
        assert a * b == schoolbook(a, b)
        c = grid_poly("yz", 9, 2)
        assert a * c == schoolbook(a, c)

    def test_large_power_with_fractions(self):
        # 64 terms with Fraction content, at powers below the recurrence's
        # crossover, so they go by repeated squaring
        p = grid_poly("xy", 8, 3)
        p2 = schoolbook(p, p)
        assert p ** 3 == schoolbook(p2, p)
        assert p ** 4 == schoolbook(p2, p2)

    @given(power_bases(), st.integers(0, 24))
    @example(mp("xy", {(6, 0): 1, (4, 2): 3, (2, 4): 3, (0, 6): 1,
                       (3, 0): 2, (1, 2): 2, (0, 0): 1}), 16)
    @example(mp("xy", {(0, 0): 2, (1, 0): 1, (0, 1): -1, (1, 1): 3}), 9)
    @example(mp("xyz", {(2, 0, 0): -3, (1, 1, 0): 1, (0, 3, 0): 2,
                        (1, 0, 2): -1}), 11)
    @settings(max_examples=100, deadline=None)
    def test_power_agrees_with_a_multiplication_chain(self, p, n):
        out = p ** n
        assume(len(out.terms) <= 1500)
        power = MultiPoly.const(1)
        for _ in range(n):
            power = schoolbook(power, p)
        assert out == power
        assert str(out) == str(power) == grlex_str(power)

    @given(sparse_polys(), sparse_polys(), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_dict_reference(self, a, b, n):
        ab = a * b
        assert ab == schoolbook(a, b)
        assert str(ab) == grlex_str(ab) == str(schoolbook(a, b))
        assert str(a) == grlex_str(a)
        power = MultiPoly.const(1)
        for _ in range(n):
            power = schoolbook(power, a)
        assert a ** n == power
        assert str(a ** n) == grlex_str(power)
        assert sorted(ab.variables) == list(ab.variables)
        assert all(c != 0 for c in ab.terms.values())

    @given(sparse_polys(), sparse_polys())
    @settings(max_examples=100, deadline=None)
    def test_equal_values_hash_equal(self, a, b):
        assert hash(a * b) == hash(b * a)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
        rebuilt = MultiPoly(a.variables[::-1], {
            e[::-1]: c for e, c in a.terms.items()})
        assert rebuilt == a and hash(rebuilt) == hash(a)

    @given(sparse_polys(), sparse_polys())
    @settings(max_examples=100, deadline=None)
    def test_factor_and_cofactors_rebuild(self, f, g):
        if not f.is_zero():
            coeff, factors = poly_factor(f)
            prod = MultiPoly.const(coeff)
            for p, e in factors:
                assert p.leading_coeff() == 1
                prod = prod * p ** e
            assert prod == f
        h, fq, gq = poly_cofactors(f, g)
        assert h * fq == f and h * gq == g

    def test_heuristic_gcd_failure_falls_back(self, monkeypatch):
        f = parse("(x+y)*(x-2*y+1)").num
        g = parse("(x+y)*(x*y+3)").num
        expected = poly_cofactors(f, g)

        def give_up(*_):
            raise HeuristicGCDFailed("no luck")

        monkeypatch.setattr(sympy.polys.rings, "heugcd", give_up)
        assert poly_cofactors(f, g) == expected
        assert expected[0] == parse("x+y").num

    def test_size_reads_the_ring_element(self):
        for text in ("0", "1", "2", "x/2+y", "3*x+2*y/3", "9*x/3+2*y/3",
                     "-(2^40+1)*x^3/6+5*y/4-1/7", "(x-1/3)^5*(y+2)^3"):
            p = parse(text).num
            bits = max((max((abs(c.numerator) - 1).bit_length(),
                            (c.denominator - 1).bit_length())
                        for c in p.terms.values()), default=0)
            assert p.size() == (len(p.terms), p.total_degree(), bits)

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


class TestGcdAndFactor:
    def test_gcd_of_products(self):
        x = mp("xy", {(1, 0): 1})
        xy = mp("xy", {(1, 1): 1})
        s = mp("xy", {(1, 0): 1, (0, 1): 1})
        assert poly_cofactors(x * s, xy * s)[0] == x * s

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_both(self, a, b):
        g, qa, qb = poly_cofactors(a, b)
        assert poly_cofactors(b, a)[0] == g
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            return
        for p, cofactor in ((a, qa), (b, qb)):
            assert g * cofactor == p

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * n),
                        st.integers(-12, 12).filter(bool),
                        min_size=1, max_size=1),
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * n),
                        st.integers(-12, 12).filter(bool),
                        min_size=1, max_size=5))))
    @example(({(0, 1): 1}, {(2, 0): 1, (0, 2): 1}))  # y | x^2+y^2
    @example(({(3, 0): -6}, {(2, 1): 4, (4, 2): -10}))
    @settings(max_examples=200, deadline=None)
    def test_one_term_gcd_agrees_with_sympys_cofactors(self, pair):
        """A gcd with a term c*x^e is read off the exponents, with sympy's
        gcd, sign and cofactors, in either argument order."""
        ring = sympy_ring("xyz"[:len(next(iter(pair[0])))])
        for f, g in (pair, pair[::-1]):
            expected = ring.from_dict(f).cofactors(ring.from_dict(g))
            assert rational._cofactors(f, g) == tuple(map(dict, expected))

    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_factor_reconstructs(self, p):
        if p.is_zero():
            return
        coeff, factors = poly_factor(p)
        prod = MultiPoly.const(coeff)
        for f, e in factors:
            prod = prod * f ** e
        assert prod == p

    def test_gcd_and_factor_with_fractional_content(self):
        x, y = parse("x").num, parse("y").num
        half = MultiPoly.const(Fraction(1, 2))
        u = x + half * y
        v = x - y
        p = MultiPoly.const(Fraction(1, 3)) * u * u * v
        assert poly_cofactors(p, u * (x + y).scale(Fraction(2, 5)))[0] == u
        assert poly_cofactors(p.scale(7),
                              u * v.scale(Fraction(-3, 4)))[0] == u * v
        coeff, factors = poly_factor(p)
        assert coeff == Fraction(1, 3)
        assert dict(factors) == {u: 2, v: 1}
        prod = MultiPoly.const(coeff)
        for f, e in factors:
            assert f.leading_coeff() == 1
            prod = prod * f ** e
        assert prod == p

    def test_sqrt(self):
        def as_factored(p):
            return FactoredRF.from_rf(RF.from_poly(p))

        s = mp("xy", {(1, 0): 1, (0, 1): 2})
        assert as_factored(s * s).sqrt() == as_factored(s)
        # rational content must itself be a square
        x_plus_y = mp("xy", {(1, 0): 1, (0, 1): 1})
        square = (x_plus_y * x_plus_y).scale(Fraction(9, 4))
        assert as_factored(square).sqrt() == \
            as_factored(x_plus_y.scale(Fraction(3, 2)))
        assert FactoredRF.zero().sqrt() == 0
        for p in (mp("xy", {(1, 0): 1}), mp("x", {(2,): 2}),
                  mp("x", {(2,): -1})):
            with pytest.raises(ValueError, match="not a perfect square"):
                as_factored(p).sqrt()


class TestRationalFunction:
    def test_canonical_denominator_is_monic(self):
        r = RF(mp("xy", {(1, 0): 2}), mp("xy", {(0, 1): 4}))
        assert r.den.leading_coeff() == 1

    def test_inverse(self):
        r = RF(mp("xy", {(1, 0): 1, (0, 0): 1}), mp("xy", {(0, 1): 3}))
        assert r * r.inverse() == RF.const(1)

    def test_inverse_equals_the_reduced_swap(self):
        rng = random.Random(23)
        for _ in range(200):
            num, den = (mp("xy", {(rng.randint(0, 2), rng.randint(0, 2)):
                                  Fraction(rng.randint(-6, 6),
                                           rng.randint(1, 4))
                                  for _ in range(rng.randint(1, 3))})
                        for _ in range(2))
            if num.is_zero() or den.is_zero():
                continue
            assert RF(num, den).inverse() == RF(den, num)
        assert RF.const(Fraction(-3, 4)).inverse() == RF.const(Fraction(-4, 3))

    def test_division_reduces_only_the_cross_pairs(self, monkeypatch):
        # a / b = a * (1/b); 1/b is already reduced, so only the two cross
        # pairs of the product go to poly_cofactors
        a, b = parse("(x+1)/(y+2)"), parse("(-2*x+y)/(x*y+3)")
        expected = RF(a.num * b.den, a.den * b.num)
        calls = []
        cofactors = rational.poly_cofactors
        monkeypatch.setattr(rational, "poly_cofactors",
                            lambda f, g: calls.append(1) or cofactors(f, g))
        assert a / b == expected
        assert len(calls) == 2

    def test_substitute(self):
        r = RF(mp("xy", {(1, 1): 1}), MultiPoly.const(1))
        out = r.substitute({"x": RF.const(Fraction(1, 2))})
        assert out == RF(mp("y", {(1,): Fraction(1, 2)}), MultiPoly.const(1))

    @given(sparse_polys(), st.dictionaries(
        st.sampled_from("xyz"), st.one_of(
            st.fractions(min_value=-2, max_value=2,
                         max_denominator=3).map(RF.const),
            st.sampled_from(["y+1", "2/(3*y)", "x^2-x/2", "x*z", "x-y",
                             "(z+1)/(x-2)"]).map(parse)), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_substitute_matches_term_by_term(self, p, bindings):
        """Substitution into a polynomial equals the sum of its terms, each
        a product of powers of the bound values, in RF arithmetic."""
        expected = RF.const(0)
        for e, c in p.terms.items():
            term = RF.const(c)
            for v, k in zip(p.variables, e):
                term = term * bindings.get(v, RF.var(v)) ** k
            expected = expected + term
        assert RF.from_poly(p).substitute(bindings) == expected

    def test_sqrt_of_square(self):
        r = FactoredRF.from_rf(
            RF(mp("xy", {(1, 0): 1, (0, 1): 1}), mp("xy", {(0, 1): 1})))
        assert (r * r).sqrt() == r
        q = FactoredRF.from_rf(parse("(3*x+3)/(2*y^2-4*x)"))
        assert (q * q).sqrt() == q
        with pytest.raises(ValueError, match="not a perfect square"):
            (q * q * 2).sqrt()
        with pytest.raises(ValueError, match="not a perfect square"):
            (q * parse("y")).sqrt()

    @given(st.fractions(max_denominator=12), st.fractions(max_denominator=12),
           st.integers(-3, 3), st.sampled_from(_non_constants))
    @example(Fraction(0), Fraction(0), -2, _non_constants[1])
    @example(Fraction(-3, 4), Fraction(0), 0, _non_constants[0])
    @settings(max_examples=100, deadline=None)
    def test_constants_compute_as_fractions(self, a, b, n, r):
        """Constant arithmetic is Fraction arithmetic, in the form that the
        normalizing constructor gives; a constant times a non-constant
        is the normalized product."""
        def normalized(num, den):
            out = RF(num, den)
            return out.num, out.den

        x, y = RF.const(a), RF.const(b)
        results = [(x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a)]
        if b:
            results += [(x / y, a / b), (y.inverse(), 1 / b), (y ** n, b ** n)]
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
            with pytest.raises(ZeroDivisionError, match="inverse of zero"):
                y.inverse()
            if n < 0:
                with pytest.raises(ZeroDivisionError):
                    y ** n
        for out, c in results:
            assert out.is_const() and out.as_const() == c
            assert (out.num, out.den) == normalized(
                MultiPoly.const(c.numerator), MultiPoly.const(c.denominator))
            assert hash(out) == hash(c)
        assert hash(x) == hash(a)
        assert ((x * r).num, (x * r).den) == normalized(r.num.scale(a), r.den)
        assert ((x / r).num, (x / r).den) == normalized(r.den.scale(a), r.num)
        assert ((r + x).num, (r + x).den) == normalized(
            r.num + r.den.scale(a), r.den)
        num, den = (r.num, r.den) if n >= 0 else (r.den, r.num)
        assert ((r ** n).num, (r ** n).den) == normalized(
            num ** abs(n), den ** abs(n))
        if b:
            assert ((r / y).num, (r / y).den) == normalized(
                r.num, r.den.scale(b))

    @given(fractions_with_zero, fractions_with_zero, st.integers(-3, 3))
    @example(Fraction(0), Fraction(0), -1)
    @example(Fraction(-3, 4), Fraction(0), 0)
    @settings(max_examples=100, deadline=None)
    def test_constant_operands_equal_the_checked_constant(self, a, b, n):
        """Every operator on two constants, each an int, a Fraction or a
        constant RationalFunction on either side, gives the constant that
        the normalizing constructor gives for the Fraction result; a zero
        divisor raises as the inverse of zero."""
        def expect(out, c):
            checked = RF(MultiPoly.const(c.numerator),
                         MultiPoly.const(c.denominator))
            assert const_parts(out) == const_parts(RF.const(c)) \
                == const_parts(checked)
            assert hash(out) == hash(c)

        for x in constant_forms(a):
            for y in constant_forms(b):
                if not (isinstance(x, RF) or isinstance(y, RF)):
                    continue
                expect(x + y, a + b)
                expect(x - y, a - b)
                expect(x * y, a * b)
                if b:
                    expect(x / y, a / b)
                else:
                    with pytest.raises(ZeroDivisionError,
                                       match="^inverse of zero$"):
                        x / y
        r = RF.const(a)
        expect(-r, -a)
        if a:
            expect(r.inverse(), 1 / a)
        else:
            with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
                r.inverse()
        if a or n >= 0:
            expect(r ** n, a ** n)
        else:
            with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
                r ** n

    def test_mixed_constant_and_symbolic_results(self):
        """A constant against a non-constant takes the general path, to
        these values."""
        x, one = parse("x"), MultiPoly.const(1)
        cases = [((x + 1) / 2, mp("x", {(1,): Fraction(1, 2),
                                        (0,): Fraction(1, 2)}), one,
                  "1/2*x+1/2"),
                 (2 / (x + 1), MultiPoly.const(2), mp("x", {(1,): 1, (0,): 1}),
                  "(2)/(x+1)"),
                 (0 * x, MultiPoly.const(0), one, "0"),
                 (x * RF.const(0), MultiPoly.const(0), one, "0")]
        for out, num, den, text in cases:
            assert const_parts(out) == (RF, num.variables, Fraction,
                                        num.content, num.prim, den)
            assert str(out) == text
        for s in (FactoredRF(3) + x, x + FactoredRF(3)):
            assert (type(s), s.coeff, s.factors) == (
                FactoredRF, 1, {mp("x", {(1,): 1, (0,): 3}): 1})
            assert str(s) == "x+3"

    @given(rationals(), rationals())
    @settings(max_examples=60, deadline=None)
    def test_field_ops(self, a, b):
        assert a + b == b + a
        assert a * b == b * a
        assert a + b - b == a
        if not b.is_zero():
            assert (a / b) * b == a


class TestFactoredForms:
    @given(rationals(), rationals())
    @settings(max_examples=40, deadline=None)
    def test_factored_tracks_plain(self, a, b):
        fa, fb = FactoredRF.from_rf(a), FactoredRF.from_rf(b)
        assert (fa + fb).to_rf() == a + b
        assert (fa * fb).to_rf() == a * b
        assert (fa - fb).to_rf() == a - b
        if not b.is_zero():
            assert (fa / fb).to_rf() == a / b

    def test_factored_equality_is_canonical(self):
        x = RF(mp("xy", {(1, 0): 1}), MultiPoly.const(1))
        y = RF(mp("xy", {(0, 1): 1}), MultiPoly.const(1))
        left = FactoredRF.from_rf((x + y) * (x - y))
        right = FactoredRF.from_rf(x * x - y * y)
        assert left == right

    def test_factored_value_accumulates(self):
        x = RF(mp("xy", {(1, 0): 1}), MultiPoly.const(1))
        v = FactoredRF.from_rf(x) ** 3 / FactoredRF.from_rf(x)
        assert v.to_rf() == x * x

    def test_constant_sum_factors_nothing(self, monkeypatch):
        rng = random.Random(17)
        pairs = []
        for _ in range(50):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            pairs += [(a, b), (a, -a)]
        expected = [FactoredRF.from_rf(RF.const(a) + RF.const(b))
                    for a, b in pairs]
        calls = []
        monkeypatch.setattr(rational, "poly_factor",
                            lambda p, factor=rational.poly_factor:
                            calls.append(p) or factor(p))
        assert [FactoredRF(a) + FactoredRF(b) for a, b in pairs] == expected
        assert calls == []

    @given(fractions_with_zero, fractions_with_zero)
    @example(Fraction(0), Fraction(0))
    @example(Fraction(5, 3), Fraction(0))
    @settings(max_examples=100, deadline=None)
    def test_constant_factored_operands_equal_the_checked_constant(self, a,
                                                                   b):
        """Sums, differences, products and quotients of two constants, one
        of them a FactoredRF and the other an int, a Fraction, a constant
        RationalFunction or a FactoredRF, on either side, and `_coerce` of
        each, give the constant FactoredRF of the Fraction result; a zero
        divisor raises as a division by zero."""
        def expect(out, c):
            assert (type(out), type(out.coeff), out.coeff, out.factors) == (
                FactoredRF, Fraction, c, {})
            assert out == FactoredRF(c) and hash(out) == hash(c)

        def forms(c):
            return [*constant_forms(c), FactoredRF(c)]

        for x in forms(a):
            expect(FactoredRF._coerce(x), a)
            for y in forms(b):
                if FactoredRF not in (type(x), type(y)):
                    continue
                expect(x + y, a + b)
                expect(x - y, a - b)
                expect(x * y, a * b)
                if b:
                    expect(x / y, a / b)
                else:
                    with pytest.raises(ZeroDivisionError,
                                       match="^division by zero$"):
                        x / y

    @pytest.mark.parametrize("c", [3, Fraction(-1, 2), 0])
    def test_equal_constants_hash_equal(self, c):
        values = {FactoredRF(c), RF.const(c), c, Fraction(c)}
        assert len(values) == 1
        # products reach the same constant through the private constructor
        assert len({FactoredRF(c) * 1, (FactoredRF(2) * c) / 2, c}) == 1

    @given(rationals())
    @example(parse("x+1"))
    @settings(max_examples=40, deadline=None)
    def test_plain_and_factored_hash_alike(self, r):
        f = FactoredRF.from_rf(r)
        assert hash(r) == hash(f)
        assert len({r, f}) == 1

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul, operator.truediv])
    def test_plain_left_operand_defers_to_factored(self, op):
        pairs = [(RF.const(2), FactoredRF(3)),
                 (parse("x/(x+2)"), FactoredRF.from_rf(parse("(x+1)^2/y")))]
        for rf, f in pairs:
            out = op(rf, f)
            assert isinstance(out, FactoredRF)
            assert out == op(FactoredRF._coerce(rf), f)
        with pytest.raises(TypeError):
            op(RF.const(2), "a")
        with pytest.raises(TypeError):
            op("a", RF.const(2))


bound_values = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=3).map(RF.const),
    st.sampled_from(["y+1", "1/y", "x^2-1", "x*y", "x-y"]).map(parse))


@st.composite
def factored(draw):
    f = FactoredRF(draw(st.fractions(min_value=-3, max_value=3,
                                     max_denominator=4)))
    for _ in range(draw(st.integers(1, 3))):
        p = draw(polys(max_terms=3))
        if not p.is_zero():
            f = f * FactoredRF.from_rf(RF.from_poly(p)) ** draw(
                st.integers(-3, 3))
    return f


def test_hashes_do_not_change_from_run_to_run():
    """Under one PYTHONHASHSEED a polynomial and a factored value hash alike
    in two processes, so sets of them iterate in one order."""
    code = ("from matchgen.exprs import parse; "
            "from matchgen.rational import FactoredRF; "
            "print(hash(parse('x+1').num), "
            "hash(FactoredRF.from_rf(parse('(x+1)^2/(y-3)'))))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=120, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]


class TestFactoredSubstitute:
    @given(factored(), st.dictionaries(st.sampled_from("xy"), bound_values,
                                       max_size=2))
    @settings(max_examples=80, deadline=None)
    def test_matches_expanded_substitution(self, f, bindings):
        try:
            expected = f.to_rf().substitute(bindings)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                f.substitute(bindings)
            return
        out = f.substitute(bindings)
        assert isinstance(out, FactoredRF)
        assert out == expected

    def test_vanishing_denominator_factor_raises(self):
        f = FactoredRF.from_rf(parse("(x+y)/(x-1)^2"))
        with pytest.raises(ZeroDivisionError):
            f.substitute({"x": RF.const(1)})
        # a vanishing numerator factor does not hide it
        g = FactoredRF.from_rf(parse("(y-2)^3/(x-1)"))
        with pytest.raises(ZeroDivisionError):
            g.substitute({"x": RF.const(1), "y": RF.const(2)})

    def test_vanishing_numerator_factor_gives_zero(self):
        f = FactoredRF.from_rf(parse("3*(x-y)^2*(x+1)/(y^2+1)"))
        assert f.substitute({"x": parse("y")}) == RF.const(0)
        assert f.substitute({"x": RF.const(2), "y": RF.const(2)}) == 0


def _irreducible(text):
    """The one monic irreducible factor of the polynomial `text`."""
    (f,) = FactoredRF.from_rf(parse(text)).factors
    return f


# monic irreducibles: single variables, 2x+1 (primitive part of leading
# coefficient 2), and factors of more than 3 terms, which to_rf raises by
# the recurrence from _MILLER_FROM on
_EXPANSION_POOL = [_irreducible(text) for text in (
    "x", "y", "z", "w", "x+1", "2*x+1", "y^2+x", "z+w",
    "x^2+x*y+y^2+z+1", "3*z*w-w^2+z+2*w-1", "x*y+y+z+w")]


@st.composite
def expandable(draw):
    coeff = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7)
                 .filter(bool))
    chosen = draw(st.lists(st.sampled_from(_EXPANSION_POOL), unique=True,
                           max_size=4))
    return FactoredRF(coeff, {f: draw(st.integers(-7, 7).filter(bool))
                              for f in chosen})


def _expanded(v):
    """v as a RationalFunction, built from MultiPoly * and ** alone."""
    num, den = MultiPoly.const(v.coeff), MultiPoly.const(1)
    for f, e in v.factors.items():
        if e > 0:
            num = num * f ** e
        else:
            den = den * f ** -e
    return RF(num, den)


def _product(coeff, powers):
    """coeff * prod(f^e) over (text, e), f the irreducible of text."""
    return FactoredRF(coeff, {_irreducible(t): e for t, e in powers})


class TestPackedExpansion:
    @given(expandable())
    @example(FactoredRF(Fraction(-7, 3)))
    @example(_product(2, [("x", 3), ("y", 2), ("z", -4)]))
    @example(_product(Fraction(-3, 2), [("2*x+1", 6), ("x^2+x*y+y^2+z+1", 7),
                                        ("z+w", -2)]))
    @example(_product(Fraction(5, 4), [("x+1", 2), ("y^2+x", 6), ("z+w", -3),
                                       ("3*z*w-w^2+z+2*w-1", -6)]))
    @example(_product(1, [("2*x+1", -7), ("x*y+y+z+w", -6), ("w", -1)]))
    @settings(max_examples=60, deadline=None)
    def test_to_rf_equals_the_multipoly_product(self, v):
        out = v.to_rf()
        expected = _expanded(v)
        assert out == expected
        assert str(out) == str(expected)
        assert hash(out) == hash(expected)

    def test_sides_are_built_without_a_content_gcd(self, monkeypatch):
        # both sides have several factors, one raised by the recurrence
        values = [_product(Fraction(-2, 9), [
                      ("x", 1), ("2*x+1", 2), ("x^2+x*y+y^2+z+1", 6),
                      ("z+w", -1), ("y", -3), ("3*z*w-w^2+z+2*w-1", -7)]),
                  FactoredRF.from_rf(parse("(x+y)^7*(3*x+1)/(y^2*(z+2)^3)"))]
        expected = [_expanded(v) for v in values]
        # _canonical takes every content gcd, and poly_cofactors every
        # polynomial gcd
        for name in ("_canonical", "poly_cofactors"):
            monkeypatch.setattr(rational, name, None)
        assert [v.to_rf() for v in values] == expected


def _at(p, point):
    """p at a point of Fractions, term by term."""
    return sum((c * math.prod(point[v] ** k for v, k in zip(p.variables, e))
                for e, c in p.terms.items()), Fraction(0))


_constants = st.one_of(st.integers(-3, 3),
                       st.fractions(min_value=-3, max_value=3,
                                    max_denominator=5))


@given(sparse_polys(), st.lists(_constants, min_size=3, max_size=3),
       st.booleans())
@example(parse("x^2*y-3*z/2+1").num, [Fraction(-1, 2), 4, 0], False)
@example(parse("x^2*y-3*z/2+1").num, [Fraction(-1, 2), 4, 0], True)
@settings(max_examples=100, deadline=None)
def test_constant_substitution_agrees_with_the_general_path(p, values,
                                                            partial):
    """Binding every variable of p to a constant sums ints.  p*t, with t
    left unbound, takes the general path to p's value times t, and so
    does a binding that leaves one of p's variables free."""
    bindings = {v: RF.const(c) for v, c in zip("xyz", values)}
    if partial and p.variables:
        del bindings[p.variables[0]]
    t = RF.var("t")
    out = RF.from_poly(p).substitute(bindings)
    assert RF.from_poly(p * t.num).substitute(bindings) == out * t
    expected = RF.const(0)
    for e, c in p.terms.items():
        term = RF.const(c)
        for v, k in zip(p.variables, e):
            term = term * bindings.get(v, RF.var(v)) ** k
        expected = expected + term
    assert out == expected
    if not partial:
        assert out.is_const()
        assert out.as_const() == _at(p, dict(zip("xyz", map(Fraction,
                                                          values))))


def test_constant_substitution_builds_no_ring(monkeypatch):
    r = parse("x^2*(x^2+y^2)^3*(x^2+x*y+y^2+1)^7/(2*y+1)^2")
    f = FactoredRF.from_rf(r)
    point = {"x": Fraction(1, 2), "y": Fraction(-3)}
    expected = _at(r.num, point) / _at(r.den, point)
    bindings = {v: RF.const(c) for v, c in point.items()}
    # the general path builds each grouped part by _canonical and
    # multiplies the parts by _expand
    for name in ("_canonical", "_expand"):
        monkeypatch.setattr(rational, name, None)
    assert r.substitute(bindings) == expected
    assert f.substitute(bindings) == expected


def test_a_vanishing_denominator_raises_on_the_constant_path():
    r = parse("(x+y)^2/(x^2-y)")
    at = {"x": RF.const(2), "y": RF.const(4)}
    with pytest.raises(ZeroDivisionError):
        r.substitute(at)
    with pytest.raises(ZeroDivisionError):
        FactoredRF.from_rf(r).substitute(at)
    assert r.inverse().substitute(at) == 0
    assert FactoredRF.from_rf(r.inverse()).substitute(at) == 0


nonzero = factored().filter(lambda f: not f.is_zero())


class TestCounts:
    @given(nonzero)
    @example(FactoredRF(Fraction(-8, 9)))
    @example(FactoredRF(1))
    @example(FactoredRF.from_rf(parse("-(x+1)^3/(2*y)")))
    @settings(max_examples=100, deadline=None)
    def test_counts_read_back_to_the_value(self, v):
        assert FactoredRF.from_counts(v.counts()) == v

    @given(nonzero, nonzero)
    @example(FactoredRF(-6), FactoredRF(Fraction(-1, 4)))
    @settings(max_examples=100, deadline=None)
    def test_summed_counts_are_the_product(self, a, b):
        assert FactoredRF.from_counts(a.counts(), b.counts()) == a * b

    def test_zero_has_no_counts(self):
        with pytest.raises(ValueError):
            FactoredRF.zero().counts()


# keys of count dicts: integers > 1 sharing primes, high powers of 2, the
# sign key -1 and two irreducibles
_count_keys = st.one_of(
    st.lists(st.sampled_from((2, 3, 5, 6, 10 ** 9 + 7)), min_size=1,
             max_size=5).map(math.prod),
    st.sampled_from((4, 2 ** 200, 2 ** 64 * 3, -1)),
    st.sampled_from([*FactoredRF.from_rf(parse("(x+1)*y")).factors]))
_count_dicts = st.dictionaries(_count_keys, st.integers(-100, 100),
                               max_size=6)


@given(st.lists(_count_dicts, max_size=4), st.booleans())
@example([{2 ** 200: 1, 4: -100}], False)
@example([{6: 1, 2: -1, 3: -1, -1: 2}], False)
@settings(max_examples=200, deadline=None)
def test_counts_convert_to_the_direct_product(steps, cancel):
    if cancel:
        steps = steps + [{key: -e for key, e in counts.items()}
                         for counts in steps]
    total = Counter()
    for counts in steps:
        total.update(counts)
    ints = {x: e for x, e in total.items() if isinstance(x, int)}
    coeff = math.prod((Fraction(x) ** e for x, e in ints.items()),
                      start=Fraction(1))
    factors = {f: e for f, e in total.items()
               if e and not isinstance(f, int)}
    value = FactoredRF.from_counts(*steps)
    assert value == FactoredRF(coeff, factors)
    if cancel:
        assert value == 1
    ints.pop(-1, None)
    base = rational._coprime_base(ints)
    assert 1 not in base
    assert all(math.gcd(a, b) == 1 for a, b in combinations(base, 2))
    assert math.prod((Fraction(b) ** e for b, e in base.items()),
                     start=Fraction(1)) == abs(coeff)


def test_values_print_more_digits_than_int_str_allows():
    """int.__str__ refuses integers of more than 4,300 digits; a value's
    printed digits have no such limit and read back to its integers."""
    n = 3 ** 10000
    assert len(str(Decimal(n))) > 4300
    assert int(Decimal(str(RF.const(n)))) == n
    num, den = str(RF.const(Fraction(-n, 7 ** 6000))).split("/")
    assert (int(Decimal(num)), int(Decimal(den))) == (-n, 7 ** 6000)
    assert str(RF.var("x") * n - 1) == f"{Decimal(n)}*x-1"
    assert str(FactoredRF(n)) == str(Decimal(n))


def fraction_str(p):
    """MultiPoly.__str__ as it was written on Fraction coefficients, kept as
    the reference for the printer that reads its coefficients as ints."""
    if not p.content:
        return "0"
    pieces = []
    for e, k in sympy_ring(p.variables).from_dict(p.prim).terms():
        c = p.content * k
        mono = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(p.variables, e) if k)
        if not mono:
            body = fraction_digits(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{fraction_digits(abs(c))}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+" if c > 0 else "-") + body)
    return "".join(pieces)


def fraction_digits(c):
    num = str(Decimal(c.numerator))
    return num if c.denominator == 1 else f"{num}/{Decimal(c.denominator)}"


def gcd_size(p):
    """MultiPoly.size() as the parser computed it from the layout."""
    a, b = abs(p.content.numerator), p.content.denominator
    bits = 0
    for k in p.prim.values():
        g = math.gcd(k, b)
        bits = max(bits, (abs(k) * a // g - 1).bit_length(),
                   (b // g - 1).bit_length())
    return len(p.prim), p.total_degree(), bits


# contents of more than 4,300 digits, which int.__str__ refuses
_big = st.sampled_from((1, 3 ** 9100, 7 ** 5200, 10 ** 4300 + 1))


@given(sparse_polys(), st.fractions(max_denominator=30).filter(bool), _big,
       _big)
@example(MultiPoly.const(0), Fraction(1), 1, 1)
@example(MultiPoly.const(1), Fraction(-1, 2), 3 ** 9100, 7 ** 5200)
@example(parse("x-y").num, Fraction(-1), 1, 1)
@settings(max_examples=80, deadline=None)
def test_printer_matches_the_fraction_printer(p, scale, big_num, big_den):
    p = p.scale(scale * Fraction(big_num, big_den))
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            assert str(p) == fraction_str(p)
    finally:
        sys.set_int_max_str_digits(limit)
    assert p.size() == gcd_size(p)


# irreducibles over Q: monomials, sums linear in one of several variables,
# others that a specialization irreducible modulo a small prime certifies,
# and x^4+1 and x^4-10*x^2+1, which are reducible modulo every prime, so
# that only sympy's factorizer can settle them
IRREDUCIBLES = [parse(text).num for text in (
    "x", "y", "z", "x+1", "y+1", "x+z", "2*x+3", "1-x*y", "x*y+z",
    "x*y^2+z+1", "2*x*y-3*z^2+y", "a*b*g*h+a*c*f*g+b*d*e*h+2*c*d*e*f",
    "x^2+1", "x^2+y^2", "x^3+x*y^2+1", "x^4+2*x^2*y^2+y^4+x",
    "3*x^2-2*y", "x^4+1", "x^4-10*x^2+1", "x^2+y")]


def _forget_factors():
    rational._factor_cache.clear()
    rational._irreducibles.clear()


def _sympy_factors(p):
    """poly_factor's result built from sympy's factor_list of p as a whole:
    monic factors in graded-lex order, sorted by (total degree, str)."""
    if p.is_const():
        return p.as_const(), ()
    gens = sympy.symbols(p.variables)
    expr = sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.prod([g ** k for g, k in zip(gens, e)])
               for e, c in p.terms.items())
    coeff, parts = sympy.Poly(expr, *gens).factor_list()
    c, out = Fraction(int(sympy.numer(coeff)), int(sympy.denom(coeff))), []
    for f, e in parts:
        f = MultiPoly(tuple(str(g) for g in f.gens), {
            m: Fraction(int(k)) for m, k in f.terms()})
        lc = f.leading_coeff()
        c *= lc ** e
        out.append((f.scale(1 / lc), e))
    out.sort(key=lambda fe: (fe[0].total_degree(), str(fe[0])))
    return c, tuple(out)


@given(st.lists(st.tuples(st.integers(0, len(IRREDUCIBLES) - 1),
                          st.integers(1, 2)),
                max_size=3, unique_by=lambda ie: ie[0]),
       st.fractions(max_denominator=12).filter(bool),
       st.sets(st.integers(0, len(IRREDUCIBLES) - 1)))
# each has a term x or x^2 free of y, but x's coefficient is y+1 as a whole,
# so no specialization may certify it irreducible
@example([(4, 1), (5, 1)], Fraction(-2, 3), set())  # (y+1)*x + (y+1)*z
@example([(4, 1), (19, 1)], Fraction(1), set())  # (y+1)*x^2 + y^2 + y
@example([(11, 2), (8, 1)], Fraction(1), {11})
@settings(max_examples=60, deadline=None)
def test_factors_equal_sympys_over_any_known_irreducibles(powers, scale,
                                                          known):
    p = MultiPoly.const(scale)
    for i, e in powers:
        p = p * IRREDUCIBLES[i] ** e
    expected = _sympy_factors(p)
    _forget_factors()
    for i in sorted(known):
        poly_factor(IRREDUCIBLES[i])
    assert poly_factor(p) == expected
    assert poly_factor(p) == expected  # from the cache


def test_scaled_inputs_share_one_cache_entry():
    _forget_factors()
    p = parse("(x+1)*(x^2+y^2)").num
    assert poly_factor(p.scale(Fraction(-4, 3))) == (
        Fraction(-4, 3), ((parse("x+1").num, 1), (parse("x^2+y^2").num, 1)))
    assert list(rational._factor_cache) == [p]
    assert poly_factor(p.scale(6))[0] == 6
    assert len(rational._factor_cache) == 1


def test_factor_cache_and_registry_are_cleared_together():
    _forget_factors()
    poly_factor(parse("(x+1)*(x^2+y^2)").num)
    assert set(rational._irreducibles) == {parse("x+1").num,
                                           parse("x^2+y^2").num}
    # constants never reach the cache, so these keys only take up room
    rational._factor_cache.update(
        (MultiPoly.const(i), None) for i in range(4096))
    poly_factor(parse("y^3+x").num)
    assert list(rational._factor_cache) == [parse("y^3+x").num]
    assert list(rational._irreducibles) == [parse("y^3+x").num]


def test_a_known_irreducible_that_does_not_divide_is_passed_over(
        monkeypatch):
    """(x - X)*(y + 2), X = crc32("x") + 2, is 0 at the fixed point, so
    the point filter lets the known x+y+1 through: its packed division
    fails once, and the factors are still sympy's."""
    _forget_factors()
    poly_factor(parse("x+y+1").num)
    failed = []
    exquo = rational._exquo

    def counted(f, g):
        q = exquo(f, g)
        if q is None:
            failed.append(g)
        return q

    monkeypatch.setattr(rational, "_exquo", counted)
    root = zlib.crc32(b"x") + 2
    p = parse(f"(x-{root})*(y+2)").num
    assert poly_factor(p) == _sympy_factors(p) == (
        1, ((parse(f"x-{root}").num, 1), (parse("y+2").num, 1)))
    assert len(failed) == 1


# exponents at the edges of a packed field: a field holds the degree's bits
# and one guard bit, so 1, 3, 7 fill it and 2, 4, 8 start a wider one
edge_exponents = st.sampled_from([0, 1, 2, 3, 4, 7, 8])


@st.composite
def exquo_pairs(draw):
    """(f, g) in one integer ring of 1 to 4 variables: f = g*h + r, with r
    0 (exact) half the time and otherwise a few terms (mostly inexact)."""
    n = draw(st.integers(1, 4))
    ring = sympy_ring("wxyz"[:n])

    def poly(max_terms, exponents=edge_exponents):
        return ring.from_dict(draw(st.dictionaries(
            st.tuples(*[exponents] * n),
            st.integers(-6, 6).filter(bool), max_size=max_terms)))

    # a constant divisor half as often as a sparse one
    g = (poly(1, st.just(0)) if draw(st.integers(0, 2)) == 0
         else poly(4))
    assume(g)
    r = poly(3) if draw(st.booleans()) else ring.zero
    return g * poly(5) + r, g


_XY, _X = sympy_ring("xy"), sympy_ring("x")


@given(exquo_pairs())
@example((_XY.from_dict({(2, 0): 1}),   # x^2/(x+y)
          _XY.from_dict({(1, 0): 1, (0, 1): 1})))
# y by x^2: packed for y's degrees, x^2 would read as y
@example((_XY.from_dict({(0, 1): 1}),
          _XY.from_dict({(2, 0): 1})))
# read from the bottom, x^2+1 by x+1 meets no term that fails to divide:
# the quotient runs on past x^2 until a guard bit stops it
@example((_X.from_dict({(2,): 1, (0,): 1}),
          _X.from_dict({(1,): 1, (0,): 1})))
@example((_X.from_dict({(7,): 3, (0,): -3}),
          _X.from_dict({(0,): 3})))       # 3x^7-3 by 3
@example((_XY.from_dict({(8, 7): 2, (0, 0): 1}),
          _XY.from_dict({(0, 0): 2})))  # odd by 2
@settings(max_examples=200, deadline=None)
def test_exquo_agrees_with_sympys_exquo(pair):
    f, g = pair

    try:
        expected = f.exquo(g)
    except ExactQuotientFailed:
        expected = None
    else:
        assert expected * g == f
        expected = dict(expected)
    assert rational._exquo(dict(f), dict(g)) == expected


def _count_sympy_factorizations(monkeypatch):
    """Record each call of `_factor_list`, sympy's factorizer's one caller."""
    calls = []
    factor_list = rational._factor_list
    monkeypatch.setattr(rational, "_factor_list",
                        lambda q: calls.append(q) or factor_list(q))
    return calls


def test_known_factors_leave_sympy_nothing_at_order_4_of_N(monkeypatch):
    _forget_factors()
    aztec._LAST_ORBIT.clear()
    period = dungeon_period_N()
    for n in (1, 2, 3):
        evaluate_factored(AztecInstance(n, period))
    calls = _count_sympy_factorizations(monkeypatch)
    value = evaluate_factored(AztecInstance(4, period))
    assert calls == []
    assert value == oracle_mgf(to_graph(AztecInstance(4, period)))


def test_a_sum_linear_in_one_variable_leaves_sympy_nothing(monkeypatch):
    _forget_factors()
    calls = _count_sympy_factorizations(monkeypatch)
    p = parse("a*b*g*h+a*c*f*g+b*d*e*h+2*c*d*e*f").num  # M at order 2
    assert poly_factor(p) == (1, ((p, 1),))
    assert poly_factor(p.scale(2)) == (2, ((p, 1),))
    assert calls == []


def _forget_everything():
    """Cold caches, as in a new process: factors, orbits and periods."""
    _forget_factors()
    aztec._LAST_ORBIT.clear()
    families._family_period.cache_clear()


def _checkered_values():
    period = families.checkered_period()
    return [evaluate(AztecInstance(n, period))[0] for n in range(1, 36)]


def _symbolic_values():
    return [evaluate_factored(AztecInstance(n, period()))
            for period in (families.hexsquare_period,
                           families.weighted_dungeon_period_M,
                           dungeon_period_N)
            for n in range(1, 5)]


@pytest.mark.parametrize("values", [
    lambda: [families.family_value("dungeon-D", n) for n in range(8)],
    _checkered_values,
    _symbolic_values,
], ids=["dungeon-D-0-7", "checkered-1-35", "hexsquare-M-N-1-4"])
def test_cold_runs_leave_sympys_factorizer_nothing(monkeypatch, values):
    """Every remainder these runs factor is a monomial or certified
    irreducible; the values are those of factor_list on every remainder."""
    _forget_everything()
    with monkeypatch.context() as m:
        m.setattr(rational, "_remainder_factors", rational._factor_list)
        expected = values()
    _forget_everything()
    calls = _count_sympy_factorizations(monkeypatch)
    assert values() == expected
    assert calls == []


def test_cold_runs_build_no_sympy_polynomial(monkeypatch):
    """From cold caches, dungeon-D to order 7, checkered `evaluate` to
    order 35, the oracle on N at order 4 and M at order 2 take every gcd
    with a one-term polynomial or of two binomials and factor nothing in
    sympy: with the adapter to sympy's ring refused, the values are those
    computed with it."""
    cases = [lambda: [families.family_value("dungeon-D", n) for n in range(8)],
             _checkered_values,
             lambda: oracle_mgf(to_graph(
                 AztecInstance(4, dungeon_period_N()))),
             # a*b*g*h + a*c*f*g + b*d*e*h + 2*c*d*e*f is linear in a, with
             # coefficients of two terms each (`_coprime_binomials`)
             lambda: evaluate_factored(AztecInstance(
                 2, families.weighted_dungeon_period_M()))]
    expected = []
    for case in cases:
        _forget_everything()
        expected.append(case())

    def refuse(n):
        raise AssertionError(f"sympy's ring in {n} variables")

    monkeypatch.setattr(rational, "_ring", refuse)
    for case, value in zip(cases, expected):
        _forget_everything()
        assert case() == value


def test_a_monomial_leaves_sympy_nothing(monkeypatch):
    _forget_factors()
    calls = _count_sympy_factorizations(monkeypatch)
    assert poly_factor(parse("x^3*y^2").num) == (
        1, ((parse("x").num, 3), (parse("y").num, 2)))
    assert calls == []


@pytest.mark.parametrize("text", ["x^4+1", "x^4-10*x^2+1"])
def test_irreducibles_reducible_modulo_every_prime_reach_sympy(monkeypatch,
                                                              text):
    _forget_factors()
    calls = _count_sympy_factorizations(monkeypatch)
    p = parse(text).num
    assert poly_factor(p) == (1, ((p, 1),))
    assert len(calls) == 1


def test_a_degree_past_the_certified_bound_is_not_tried(monkeypatch):
    tried = []
    monkeypatch.setattr(rational, "_gf_irreducible_p",
                        lambda *args: tried.append(args))
    _forget_factors()
    calls = _count_sympy_factorizations(monkeypatch)
    p = parse(f"x^{rational._CERTIFIED_DEGREE + 1}+x*y^2+1").num
    assert poly_factor(p) == (1, ((p, 1),))
    assert len(calls) == 1
    assert tried == []


@st.composite
def binomial_pairs(draw):
    """Two integer binomials over 2 or 3 variables whose exponent
    differences are parallel, antiparallel or drawn freely, and whose
    coefficients are small enough that shared roots occur."""
    n = draw(st.integers(2, 3))
    vectors = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    step = draw(vectors)
    offsets = st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=n,
                       max_size=n)
    signs = st.sampled_from((1, -1, 2, -2, 4, -4))

    def binomial(multiple):
        shift = [multiple * x for x in step]
        base = [o + max(0, -x) for o, x in zip(draw(offsets), shift)]
        return {tuple(base): draw(signs),
                tuple(b + x for b, x in zip(base, shift)): draw(signs)}

    kind = draw(st.sampled_from(("parallel", "antiparallel", "free")))
    a = binomial(draw(st.integers(1, 4)))
    if kind == "free":
        step = draw(vectors)
    b = binomial(draw(st.integers(1, 4)) * (-1 if kind == "antiparallel"
                                           else 1))
    return a, b


def _binomial(text: str, variables: str = "xyz") -> dict:
    """The integer terms of a polynomial over `variables`."""
    return rational._reindex(parse(text).num, tuple(variables))


@given(binomial_pairs())
@example((_binomial("x^2-y^2"), _binomial("x-y")))
@example((_binomial("x^2-y^2"), _binomial("y-x")))
@example((_binomial("x^2+y^2"), _binomial("x+y")))
@example((_binomial("x^4-4*y^2"), _binomial("x^2+2*y")))
@example((_binomial("x^3*y+8*z"), _binomial("x*z^2+2*y*z^3")))
@example((_binomial("x*y+x*z"), _binomial("x^2*y+x*z^2")))
@example((_binomial("x*y+2*z"), _binomial("x^2*z+y*z^2")))
@settings(max_examples=300, deadline=None)
def test_binomial_coprimality_agrees_with_sympys_cofactors(pair):
    """`_coprime_binomials` on two binomials, in either order and with
    the terms of b listed either way round, which turns a parallel pair
    antiparallel, is sympy's verdict that their gcd is a constant."""
    a, b = pair
    ring = sympy_ring("xyz"[:len(next(iter(a)))])
    gcd = ring.from_dict(a).cofactors(ring.from_dict(b))[0]
    for c in (b, dict(reversed(b.items()))):
        assert rational._coprime_binomials(a, c) == gcd.is_ground
        assert rational._coprime_binomials(c, a) == gcd.is_ground
