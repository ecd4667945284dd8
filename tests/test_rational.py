"""Exact arithmetic: polynomials, rational functions, factored forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen.exprs import parse
from matchgen.rational import (FactoredRF, MultiPoly, RationalFunction,
                               div_exact, poly_factor, poly_gcd, poly_sqrt)

RF = RationalFunction


def mp(variables, terms):
    return MultiPoly(tuple(variables),
                     {tuple(e): Fraction(c) for e, c in terms.items()})


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


class TestMultiPoly:
    def test_zero_and_const(self):
        z = MultiPoly((), {})
        assert z.is_zero()
        one = MultiPoly.const(1)
        assert one.is_const() and one.as_const() == 1

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
        # 81 x 81 term pairs, above the 4000 pairs that route to sympy
        a = grid_poly("xy", 9, 5)
        b = grid_poly("xy", 9, 7)
        assert a * b == schoolbook(a, b)
        c = grid_poly("yz", 9, 2)
        assert a * c == schoolbook(a, c)

    def test_large_power_with_fractions(self):
        # 64 terms: 64^2 > 4000, so powers above 2 go to sympy
        p = grid_poly("xy", 8, 3)
        p2 = schoolbook(p, p)
        assert p ** 3 == schoolbook(p2, p)
        assert p ** 4 == schoolbook(p2, p2)

    def test_eval(self):
        p = mp("xy", {(2, 1): 3})
        assert p.eval_rationals({"x": Fraction(2), "y": Fraction(5)}) == 60

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
        assert poly_gcd(x * s, xy * s) == x * s

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            return
        for p in (a, b):
            assert div_exact(p, g) is not None

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
        assert poly_gcd(p, u * (x + y).scale(Fraction(2, 5))) == u
        assert poly_gcd(p.scale(7), u * v.scale(Fraction(-3, 4))) == u * v
        coeff, factors = poly_factor(p)
        assert coeff == Fraction(1, 3)
        assert dict(factors) == {u: 2, v: 1}
        prod = MultiPoly.const(coeff)
        for f, e in factors:
            assert f.leading_coeff() == 1
            prod = prod * f ** e
        assert prod == p

    def test_sqrt(self):
        s = mp("xy", {(1, 0): 1, (0, 1): 2})
        assert poly_sqrt(s * s) == s
        assert poly_sqrt(mp("xy", {(1, 0): 1})) is None
        # rational content must itself be a square
        x_plus_y = mp("xy", {(1, 0): 1, (0, 1): 1})
        assert poly_sqrt((x_plus_y * x_plus_y).scale(Fraction(9, 4))) == \
            x_plus_y.scale(Fraction(3, 2))
        assert poly_sqrt(mp("x", {(2,): 2})) is None
        assert poly_sqrt(mp("x", {(2,): -1})) is None


class TestRationalFunction:
    def test_canonical_denominator_is_monic(self):
        r = RF(mp("xy", {(1, 0): 2}), mp("xy", {(0, 1): 4}))
        assert r.den.leading_coeff() == 1

    def test_inverse(self):
        r = RF(mp("xy", {(1, 0): 1, (0, 0): 1}), mp("xy", {(0, 1): 3}))
        assert r * r.inverse() == RF.const(1)

    def test_substitute(self):
        r = RF(mp("xy", {(1, 1): 1}), MultiPoly.const(1))
        out = r.substitute({"x": RF.const(Fraction(1, 2))})
        assert out == RF(mp("y", {(1,): Fraction(1, 2)}), MultiPoly.const(1))

    def test_sqrt_of_square(self):
        r = RF(mp("xy", {(1, 0): 1, (0, 1): 1}), mp("xy", {(0, 1): 1}))
        assert (r * r).sqrt() == r
        q = parse("(3*x+3)/(2*y^2-4*x)")
        assert (q * q).sqrt() == q
        with pytest.raises(ValueError):
            (q * q * 2).sqrt()
        with pytest.raises(ValueError):
            (q * parse("y")).sqrt()

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
        assert f.substitute(bindings) == expected

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
