"""Exact arithmetic: polynomials, rational functions, factored forms."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_sqrt(self):
        s = mp("xy", {(1, 0): 1, (0, 1): 2})
        assert poly_sqrt(s * s) == s
        assert poly_sqrt(mp("xy", {(1, 0): 1})) is None


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
