"""Named weight-pattern families and their closed-form evaluators.

Each family is a periodic edge-weight pattern on the diamond whose matching
generating function has a product or recurrence closed form.  Every closed
form here is cross-checked against the reduction pipeline (and, at small
orders, against the brute-force oracle) in the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional

from .aztec import AztecInstance, PeriodMatrix, evaluate_factored
from .exprs import parse
from .rational import FactoredRF, RationalFunction

RF = RationalFunction


# ---------------------------------------------------------------------------
# Triangle-lattice diamond patterns (two-parameter, 4x4 period)

def dungeon_period_N() -> PeriodMatrix:
    """4x4 period whose diamond values give the x,y-weighted lozenge counts."""
    return PeriodMatrix.from_strings([
        ["y/(x^2+y^2)", "y", "x", "x/(x^2+y^2)"],
        ["y", "0", "1", "x"],
        ["x", "1", "0", "y"],
        ["x/(x^2+y^2)", "x", "y", "y/(x^2+y^2)"],
    ])


def halfweight_period_B() -> PeriodMatrix:
    """4x4 half-integer period for the alternate triangle-lattice family."""
    return PeriodMatrix.from_strings([
        ["1/2", "1/2", "1", "1"],
        ["1/2", "1/2", "1", "1"],
        ["1", "1", "0", "1"],
        ["1", "1", "1", "0"],
    ])


def weighted_dungeon_period_M() -> PeriodMatrix:
    """General 8-parameter 4x4 period specializing to the families above."""
    return PeriodMatrix.from_strings([
        ["a", "d", "d", "a"],
        ["e", "0", "g", "e"],
        ["f", "h", "0", "f"],
        ["b", "c", "c", "b"],
    ])


# ---------------------------------------------------------------------------
# Column-pair weight patterns (period 4 across columns)

class ColumnPairMatrix:
    """A 2n x 2 matrix of column-pair weights defining a diamond pattern.

    Row i carries (x_i, y_i); the full 2n x 2n edge array repeats each row
    with column period 4.  The quad pattern fills columns as
    x, y, 1/x, 1/y; the duplicate pattern as x, y, y, x.  Entries are held
    as FactoredRF, so the recurrences and the instance never factor them
    again.
    """

    def __init__(self, rows: List[List[FactoredRF]], pattern: str):
        if pattern not in ("quad", "duplicate"):
            raise ValueError(f"unknown pattern {pattern!r}")
        if len(rows) % 2:
            raise ValueError("row count must be even")
        self.rows = [[FactoredRF._coerce(x), FactoredRF._coerce(y)]
                     for x, y in rows]
        self.pattern = pattern
        if pattern == "quad":
            for x, y in self.rows:
                if x.is_zero() or y.is_zero():
                    raise ValueError("quad pattern needs nonzero entries")

    @property
    def order(self) -> int:
        return len(self.rows) // 2

    def array_row(self, i: int, length: int) -> List[FactoredRF]:
        x, y = self.rows[i]
        if self.pattern == "quad":
            cycle = [x, y, x.inverse(), y.inverse()]
        else:
            cycle = [x, y, y, x]
        return [cycle[j % 4] for j in range(length)]

    def instance(self) -> AztecInstance:
        """The diamond instance whose edge array this matrix determines."""
        n = self.order
        period = PeriodMatrix([self.array_row(i, 2 * n)
                               for i in range(2 * n)])
        return AztecInstance(n, period)

    def delta(self, i: int) -> FactoredRF:
        """x_{2i-1} y_{2i} + x_{2i} y_{2i-1} for block i (1-indexed)."""
        x1, y1 = self.rows[2 * i - 2]
        x2, y2 = self.rows[2 * i - 1]
        return x1 * y2 + x2 * y1

    def s_factor(self, i: int) -> FactoredRF:
        """Square root of x_{2i-1} y_{2i-1} x_{2i} y_{2i} (block i).

        The input contract requires the product to be a perfect square.
        """
        x1, y1 = self.rows[2 * i - 2]
        x2, y2 = self.rows[2 * i - 1]
        return (x1 * y1 * x2 * y2).sqrt()


def quad_step(t: ColumnPairMatrix) -> ColumnPairMatrix:
    """One order-lowering step on a quad-pattern column-pair matrix.

    The 2n rows map to 2n-2 rows: the first and last rows are scaled by
    their block's square-root factor, and each interior block contributes
    its two rows swapped and scaled.
    """
    if t.pattern != "quad":
        raise ValueError("quad pattern required")
    n = t.order
    if n < 2:
        raise ValueError("need at least 4 rows")
    out: List[List[FactoredRF]] = []
    s1 = t.s_factor(1)
    x1, y1 = t.rows[0]
    out.append([x1 / s1, s1 / y1])
    for i in range(2, n):
        si = t.s_factor(i)
        xa, ya = t.rows[2 * i - 2]
        xb, yb = t.rows[2 * i - 1]
        out.append([xb / si, si / yb])
        out.append([xa / si, si / ya])
    sn = t.s_factor(n)
    xn, yn = t.rows[2 * n - 1]
    out.append([xn / sn, sn / yn])
    return ColumnPairMatrix(out, "quad")


def quad_value(t: ColumnPairMatrix) -> FactoredRF:
    """Matching generating function of the quad-pattern diamond.

    Computed by the order-lowering recurrence: each step contributes the
    product of the block factors, divided by the square-root factors at
    even orders.
    """
    n = t.order
    if n == 0:
        return FactoredRF(1)
    if n == 1:
        return t.delta(1)
    step = FactoredRF(1)
    for i in range(1, n + 1):
        step = step * t.delta(i)
        if n % 2 == 0:
            step = step / t.s_factor(i)
    return step * quad_value(quad_step(t))


def duplicate_step(t: ColumnPairMatrix) -> ColumnPairMatrix:
    """Two-orders-lowering step on a duplicate-pattern matrix.

    Drops the outer blocks; each interior block contributes its two rows
    swapped and entrywise inverted.
    """
    if t.pattern != "duplicate":
        raise ValueError("duplicate pattern required")
    n = t.order
    if n < 3:
        raise ValueError("need at least 6 rows")
    out: List[List[FactoredRF]] = []
    for i in range(2, n):
        xa, ya = t.rows[2 * i - 2]
        xb, yb = t.rows[2 * i - 1]
        out.append([xb.inverse(), yb.inverse()])
        out.append([xa.inverse(), ya.inverse()])
    return ColumnPairMatrix(out, "duplicate")


def duplicate_value(t: ColumnPairMatrix) -> FactoredRF:
    """Matching generating function of the duplicate-pattern diamond.

    The recurrence drops the order by two per step; the step factor is
    2^{n-1} times all block factors times a monomial in the entries
    (rows 2 and 2n-1 excluded).
    """
    n = t.order
    if n == 0:
        return FactoredRF(1)
    if n == 1:
        return t.delta(1)
    step = FactoredRF(2) ** (n - 1)
    for i in range(1, n + 1):
        step = step * t.delta(i)
    ex = n // 2 if n % 2 == 0 else (n - 1) // 2
    ey = n // 2 - 1 if n % 2 == 0 else (n - 1) // 2
    for r in range(1, 2 * n + 1):
        if r in (2, 2 * n - 1):
            continue
        x, y = t.rows[r - 1]
        step = step * x ** ex * y ** ey
    if n == 2:
        return step
    return step * duplicate_value(duplicate_step(t))


# ---------------------------------------------------------------------------
# Squares-and-hexagons and dragon patterns

def hexsquare_period() -> PeriodMatrix:
    """2x6 period of the squares-and-hexagons graph family."""
    return PeriodMatrix.from_strings([
        ["1", "0", "1", "a", "1", "a"],
        ["a", "1", "a", "1", "0", "1"],
    ])


def hexsquare_closed_form(m: int) -> FactoredRF:
    """Closed-form diamond value for the squares-and-hexagons pattern.

    Oracle-verified: the exponent pattern has period three in the diamond
    order, pairing orders 3k and 3k+1.  (The historical claim of exponent
    n(n+1) at order 2n holds only at the small coincidences m <= 3 and
    m in {6, 7}; exhaustive matching enumeration at orders 3 and 4 refutes
    it in general, while the printed one-step weight transformations all
    check out exactly.)
    """
    base = FactoredRF.from_rf(parse("1+a^2"))
    k, r = divmod(m, 3)
    if r == 2:
        return base ** (2 * (k + 1) * (k + 1))
    return base ** (2 * k * (k + 1))


def dragon_period() -> PeriodMatrix:
    """4x4 period carrying the dragon regions' a-weight."""
    return PeriodMatrix.from_strings([
        ["a", "1", "a", "1"],
        ["1", "0", "1", "a"],
        ["0", "1", "a", "1"],
        ["1", "a", "1", "a"],
    ])


def dragon_unit_period() -> PeriodMatrix:
    """0-1 period whose diamond values count the dragon regions' tilings."""
    return dragon_period().substitute({"a": RF.const(1)})


# ---------------------------------------------------------------------------
# 20x20 checkered pattern with threefold self-similarity

# q-exponents of period rows 0 and 1 (None marks the zeros); row i + 2 is
# row i shifted two places left.
_CHECKERED_ROWS: List[List[Optional[int]]] = [
    [4, 1, -2, -1, None, -1, None, 1, None, 0, None, -1, None, 1, None, 1, 2, -1, -4, 0],
    [1, None, -1, None, -1, -2, 1, 4, 0, -4, -1, 2, 1, None, 1, None, -1, None, 0, None],
]


def checkered_period() -> PeriodMatrix:
    """20x20 period with entries q^e per the exponent table (0 at gaps)."""
    q = RF.var("q")
    rows = [r[2 * s:] + r[:2 * s] for s in range(10) for r in _CHECKERED_ROWS]
    return PeriodMatrix([[RF.const(0) if e is None else q ** e for e in row]
                         for row in rows])


def _exp_x(n: int) -> int:
    """Exponent sequence of the unweighted 30-step recurrence (n >= 31)."""
    k, r = divmod(n - 1, 5)
    r += 1
    if r == 1:
        return 4 * k - 12
    if r == 2:
        return 4 * k - 10
    return 4 * k - 8


def _exp_y(n: int) -> int:
    """Exponent sequence of the q-weighted 30-step recurrence (n >= 31)."""
    k, r = divmod(n - 1, 10)
    r += 1
    table = {1: 8 * k - 13, 2: 8 * k - 9, 3: 8 * k - 7, 4: 8 * k - 8,
             5: 8 * k - 8, 6: 8 * k - 9, 7: 8 * k - 7, 8: 8 * k - 5,
             9: 8 * k - 4, 10: 8 * k - 4}
    return table[r]


# Seed values: magnitudes for n = 1..30 and the q-exponent cycle.
_CHECKERED_SEED_MAG = [
    1, 2, 6, 6, 6, 6, 27, 486, 486, 486,
    486, 6561, 531441, 531441, 531441, 531441, 43046721,
    10460353203, 10460353203, 10460353203, 10460353203, 7625597484987,
    5559060566555523, 5559060566555523, 5559060566555523, 5559060566555523,
    24315330918113857602, 79766443076872509863361, 79766443076872509863361,
    79766443076872509863361,
]
_CHECKERED_SEED_QEXP = [2, -2, -2, 0, 0, 2, 2, 2, 0, 0]


def checkered_closed_form(n: int, q="q") -> RF:
    """Closed-form diamond value for the checkered pattern.

    Seeds cover orders 1..30; beyond that a 30-step recurrence applies with
    the weight parameter cubed twice per descent.
    """
    if n == 0:
        return RF.const(1)
    q = parse(q) if isinstance(q, str) else q
    if n <= 30:
        return (RF.const(_CHECKERED_SEED_MAG[n - 1])
                * q ** _CHECKERED_SEED_QEXP[(n - 1) % 10])
    return (RF.const(3) ** (4 * _exp_y(n))
            * checkered_closed_form(n - 30, RF.const(9) * q))


def checkered_count(n: int) -> RF:
    """Unweighted count: seeds plus the 30-step power-of-3 recurrence."""
    if n == 0:
        return RF.const(1)
    if n <= 30:
        return RF.const(_CHECKERED_SEED_MAG[n - 1])
    return RF.const(3) ** (4 * _exp_x(n)) * checkered_count(n - 30)


# ---------------------------------------------------------------------------
# Family dispatcher

# name: (period, outer factor base, n -> (diamond order, exponent of base)).
# dungeon-D carries the two-parameter x,y weight (period N); dungeon-E is
# the unweighted count (period B, which has no variables); the checkered
# pattern's n is the diamond order itself.
_FAMILIES = {
    "dungeon-D": (dungeon_period_N, "x^2+y^2",
                  lambda n: (max(2 * n - 2, 0), n * n)),
    "dungeon-E": (halfweight_period_B, "2",
                  lambda n: (2 * n + 1, (n + 1) * (n + 1))),
    "hexsquare": (hexsquare_period, "1", lambda n: (2 * n, 0)),
    "dragon": (dragon_period, "1", lambda n: (2 * n, 0)),
    "checkered": (checkered_period, "1", lambda n: (n, 0)),
}

FAMILY_NAMES = tuple(_FAMILIES)


@lru_cache(maxsize=None)
def _family_period(family: str) -> PeriodMatrix:
    """The family's period, built once; family_value never changes it."""
    return _FAMILIES[family][0]()


def family_value(family: str, n: int,
                 bindings: Optional[Dict[str, RF]] = None) -> RF:
    """Evaluate a named family at order n via the reduction pipeline.

    The value is the outer factor times the family's period evaluated on
    the translated diamond order, both read from `_FAMILIES`.  Bindings
    substitute values for the pattern's free variables in that factored
    value, which is expanded once; a binding of a variable the family's
    period does not have raises ValueError.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    period = _family_period(family)
    period.check_bindings(bindings or {})
    if n < 0:
        raise ValueError("order must be nonnegative")
    _, base, translate = _FAMILIES[family]
    order, exponent = translate(n)
    value = (evaluate_factored(AztecInstance(order, period))
             * FactoredRF.from_rf(parse(base)) ** exponent)
    # substituting factor by factor never expands the symbolic value
    return (value.substitute(bindings) if bindings else value).to_rf()
