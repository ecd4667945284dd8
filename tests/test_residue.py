"""A residue walk: the shuffle steps at one point modulo a prime.

`aztec._step` asks of its entries only `+`, `*`, `/`, `is_zero`, `==` and
`hash`, so it walks residues modulo P = 2^61 - 1 unchanged.  The residues
of the used block factors, each taken as many times as the order uses its
block, multiply to the order's value at the point where the period was
read.  Comparing that with `evaluate_factored` read factor by factor at
the same point checks the count tables, their rectangle sums and
`FactoredRF.from_counts` at orders far past the brute-force oracle.  Both
sides share `_step` and `whole_cell`, so this is not an independent
reference for them.  A wrong factored value agrees at a random point with
probability at most its degree over P (Schwartz 1980, Zippel 1979).
"""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen import aztec
from matchgen.aztec import (AztecInstance, PeriodMatrix, ZeroCellFactor,
                            evaluate_factored)
from matchgen.families import (checkered_period, dungeon_period_N,
                               halfweight_period_B, hexsquare_period,
                               weighted_dungeon_period_M)

P = 2 ** 61 - 1


class Residue:
    """An integer modulo P, with the arithmetic a shuffle step uses."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % P

    def __add__(self, other):
        return Residue(self.v + other.v)

    def __mul__(self, other):
        return Residue(self.v * other.v)

    def __truediv__(self, other):
        return Residue(self.v * pow(other.v, -1, P))

    def is_zero(self) -> bool:
        return not self.v

    def __eq__(self, other):
        return isinstance(other, Residue) and self.v == other.v

    def __hash__(self):
        return hash(self.v)


def _fraction_at(c: Fraction) -> int:
    return c.numerator * pow(c.denominator, -1, P) % P


def _at(value, point):
    """A FactoredRF at `point` modulo P, read factor by factor, or None
    where a factor with a negative exponent vanishes."""
    out = _fraction_at(value.coeff)
    for f, e in value.factors.items():
        v = sum(_fraction_at(c) * prod(pow(point[x], k, P)
                                      for x, k in zip(f.variables, exps))
                for exps, c in f.terms.items()) % P
        if e < 0 and not v:
            return None
        out = out * pow(v, e, P) % P
    return out


def _walk(period: PeriodMatrix, n: int, point):
    """The order-n value at `point` from n `aztec._step` calls on residues,
    or None where an entry or a used block factor is undefined or zero."""
    rows = [[_at(e, point) for e in row] for row in period.entries]
    if any(e is None for row in rows for e in row):
        return None
    rows = [[Residue(e) for e in row] for row in rows]
    kb, lb = period.k // 2, period.l // 2
    total = 1
    for m in range(n, 0, -1):
        factors, rows = aztec._step(rows)
        a, r = divmod(m, kb)
        b, c = divmod(m, lb)
        for i, row in enumerate(factors):
            for j, delta in enumerate(row):
                times = (a + (i < r)) * (b + (j < c))
                if times:
                    if delta is None:
                        return None
                    total = total * pow(delta.v, times, P) % P
    return total


def _check(period: PeriodMatrix, n: int, seed: int = 0):
    """The residue walk agrees with `evaluate_factored` at a random point;
    a period whose order raises ZeroCellFactor has a zero used block there
    too.  A point where either side is undefined is replaced."""
    try:
        exact = evaluate_factored(AztecInstance(n, period))
    except ZeroCellFactor:
        exact = None
    rng = random.Random(seed)
    names = sorted(period.variables())
    for _ in range(5):
        point = {v: rng.randrange(P) for v in names}
        walked = _walk(period, n, point)
        if exact is None:
            assert walked is None
            return
        value = _at(exact, point)
        if walked is not None and value is not None:
            assert walked == value
            return
    pytest.fail("no point at which both sides are defined")


@pytest.mark.parametrize("period, n", [
    (checkered_period, 300),
    (dungeon_period_N, 1000),
    (halfweight_period_B, 1000),
    (weighted_dungeon_period_M, 60),
    (hexsquare_period, 200),
], ids=["checkered", "N", "B", "M", "hexsquare"])
def test_family_values_agree_with_a_residue_walk(period, n):
    _check(period(), n)


ENTRIES = [0, 1, -1, 2, Fraction(1, 2), 3, Fraction(5, 3)]
SYMBOLS = ["x", "y", "x+1", "x*y+2", "1/x"]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_periods_agree_with_a_residue_walk(data):
    side = st.sampled_from((2, 4))
    k, l = data.draw(side), data.draw(side)
    symbolic = data.draw(st.booleans())
    pool = ENTRIES + SYMBOLS if symbolic else ENTRIES
    rows = [[str(data.draw(st.sampled_from(pool))) for _ in range(l)]
            for _ in range(k)]
    n = data.draw(st.integers(1, 6 if symbolic else 16))
    _check(PeriodMatrix.from_strings(rows), n, data.draw(st.integers(0, 99)))
