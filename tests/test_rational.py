"""Exact arithmetic: polynomials, rational functions, factored forms."""

import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy.polys.rings
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.polyerrors import HeuristicGCDFailed

from matchgen import rational
from matchgen.exprs import _size, parse
from matchgen.rational import (FactoredRF, MultiPoly, RationalFunction,
                               poly_cofactors, poly_factor)

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
        # 81 x 81 term pairs with Fraction coefficients, dense and disjoint
        a = grid_poly("xy", 9, 5)
        b = grid_poly("xy", 9, 7)
        assert a * b == schoolbook(a, b)
        c = grid_poly("yz", 9, 2)
        assert a * c == schoolbook(a, c)

    def test_large_power_with_fractions(self):
        # 64 terms, so powers go by repeated squaring
        p = grid_poly("xy", 8, 3)
        p2 = schoolbook(p, p)
        assert p ** 3 == schoolbook(p2, p)
        assert p ** 4 == schoolbook(p2, p2)

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
            assert _size(p) == (len(p.terms), p.total_degree(), bits)

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
