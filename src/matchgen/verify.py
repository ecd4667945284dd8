"""Reproducible verification suites over the whole engine.

Each suite is a generator of exact checks (closed forms against the
reduction pipeline, the pipeline against the brute-force oracle, or both),
one `Case` per check, registered by name in `SUITES`.  A suite takes only
the keyword parameters it uses, so the CLI `verify` subcommand refuses a
flag the suite does not declare.  The CLI and the acceptance tests both run
these; a case passes only when expected and computed values agree as
canonical forms.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List

from .aztec import (AztecInstance, PeriodMatrix, evaluate, evaluate_factored,
                    to_graph, _edge_position, row_classes, col_classes)
from .cellular import CellularCompletion, complement
from .exprs import parse
from .families import (ColumnPairMatrix, checkered_closed_form,
                       checkered_count, checkered_period, dragon_period,
                       dragon_unit_period, dungeon_period_N, family_value,
                       hexsquare_closed_form, hexsquare_period,
                       duplicate_step, duplicate_value,
                       weighted_dungeon_period_M, quad_step, quad_value)
from .graphs import WeightedGraph, enumerate_matchings, oracle_mgf
from .orbit import detect_proportional, detect_q_shift, recurrence_constant
from .rational import FactoredRF, RationalFunction

RF = RationalFunction


@dataclass
class Case:
    """One check; built directly for a described check, or by `compare`."""

    case_id: str
    expected: str
    computed: str
    passed: bool
    provenance: str = ""

    @classmethod
    def compare(cls, case_id: str, expected, computed,
                provenance: str = "") -> "Case":
        """A value comparison: passes when the canonical forms are equal."""
        return cls(case_id, str(expected), str(computed),
                   expected == computed, provenance)


@dataclass
class SuiteResult:
    suite: str
    cases: List[Case] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "wall_time": round(self.wall_time, 3),
            "cases": [{"id": c.case_id, "expected": c.expected,
                       "computed": c.computed, "pass": c.passed,
                       "provenance": c.provenance}
                      for c in self.cases],
        }


SUITES: Dict[str, Callable[..., SuiteResult]] = {}


def _suite(name: str):
    """Register a case generator as the suite `name`.

    The registered callable takes the generator's keyword parameters (its
    signature is the generator's) and returns a SuiteResult whose
    wall_time covers the whole lazy run.
    """
    def register(gen: Callable[..., Iterator[Case]]):
        @functools.wraps(gen)
        def run(**params) -> SuiteResult:
            t0 = time.perf_counter()
            cases = list(gen(**params))
            return SuiteResult(name, cases, time.perf_counter() - t0)

        SUITES[name] = run
        return run
    return register


# ---------------------------------------------------------------------------
# Basic pipeline suites

@_suite("aztec-basic")
def suite_aztec_basic() -> Iterator[Case]:
    """All-ones diamonds count 2^(n(n+1)/2)."""
    ones = PeriodMatrix.constant(1)
    for n in range(13):
        val, _ = evaluate(AztecInstance(n, ones))
        yield Case.compare(f"all-ones-n{n}", RF.const(2 ** (n * (n + 1) // 2)),
                           val, "power-of-two count")


@_suite("cellular-random")
def suite_cellular_random(trials: int = 100, seed: int = 0) -> Iterator[Case]:
    """Randomized completions: M(H) = 2^partial * factor * M(H')."""
    rng = random.Random(seed)
    for t in range(trials):
        comp = _random_completion(rng, t)
        hp, factor, pc = complement(comp)
        left = oracle_mgf(comp.h_graph())
        right = RF.const(2 ** pc) * factor * oracle_mgf(hp)
        yield Case.compare(f"completion-{t}", left, right,
                           "oracle on both sides of the complementation "
                           "identity")


_CELL_KINDS = ("whole", "partial3", "partial2", "partial0")


def _rand_weight(rng: random.Random) -> RF:
    return RF.const(Fraction(rng.randint(1, 5), rng.randint(1, 3)))


def _add_cell(g: WeightedGraph, rng, cell, h_positions) -> set:
    """Add one cell's edges; positions in h_positions get random nonzero
    weight, the rest weight 0 (host edges outside the subgraph).  Returns
    the vertices the subgraph edges touch."""
    members = set()
    for i in range(4):
        u, v = cell[i], cell[(i + 1) % 4]
        if i in h_positions:
            g.add_edge(u, v, _rand_weight(rng))
            members |= {u, v}
        else:
            g.add_edge(u, v, RF.const(0))
    return members


def _single_cell(g, rng, tag, kind):
    cell = tuple(("c", tag, i) for i in range(4))
    positions = {"whole": (0, 1, 2, 3), "partial3": (0, 1),
                 "partial2": (0,), "partial0": ()}[kind]
    return [cell], _add_cell(g, rng, cell, positions)


def _chain_cells(g, rng, tag, kind_a, kind_b):
    """Two cells sharing one vertex; both must cover it with an H-edge."""
    m = ("m", tag)
    a = tuple(("a", tag, i) for i in range(3))
    b = tuple(("b", tag, i) for i in range(3))
    cell_a = (a[0], a[1], m, a[2])
    cell_b = (m, b[0], b[1], b[2])
    pos_a = {"whole": (0, 1, 2, 3), "partial3": (1, 2),
             "partial2": (1,)}[kind_a]
    pos_b = {"whole": (0, 1, 2, 3), "partial3": (3, 0),
             "partial2": (3,)}[kind_b]
    members = _add_cell(g, rng, cell_a, pos_a)
    members |= _add_cell(g, rng, cell_b, pos_b)
    return [cell_a, cell_b], members


def _ring_cells(g, rng, tag, whole_flags):
    """Four cells in a ring; the subgraph threads an 8-cycle through the
    shared vertices, so partial cells get exercised with nonzero counts.
    An even number of whole cells keeps the member count even."""
    m = [("rm", tag, i) for i in range(4)]
    x = [("rx", tag, i) for i in range(4)]
    y = [("ry", tag, i) for i in range(4)]
    cells = []
    members = set()
    for i in range(4):
        cell = (m[i], x[i], m[(i + 1) % 4], y[i])
        members |= _add_cell(g, rng, cell,
                             (0, 1, 2, 3) if whole_flags[i] else (0, 1))
        cells.append(cell)
    return cells, members


def _random_completion(rng: random.Random, tag: int) -> CellularCompletion:
    g = WeightedGraph()
    cells = []
    members = set()
    budget = rng.randint(1, 12)
    comp_idx = 0
    while budget > 0:
        key = (tag, comp_idx)
        roll = rng.random()
        if budget >= 4 and roll < 0.35:
            flags = [rng.random() < 0.3 for _ in range(4)]
            if sum(flags) % 2:
                flags[flags.index(True) if True in flags else 0] ^= True
            cs, ms = _ring_cells(g, rng, key, flags)
        elif budget >= 2 and roll < 0.6:
            ka, kb = (rng.choice(("whole", "partial3", "partial2"))
                      for _ in range(2))
            cs, ms = _chain_cells(g, rng, key, ka, kb)
        else:
            cs, ms = _single_cell(g, rng, key, rng.choice(_CELL_KINDS))
        cells += cs
        members |= ms
        budget -= len(cs)
        comp_idx += 1
    return CellularCompletion(g, cells, members)


# ---------------------------------------------------------------------------
# Triangle-lattice dungeon suites

_P_STR = "x^6+3*x^4*y^2+3*x^2*y^4+y^6+2*x^3+2*x*y^2+1"

_DUNGEON_D_SYMBOLIC = [
    "1",
    "x^2+y^2",
    f"x^2*y^2*({_P_STR})",
    f"x^6*y^6*({_P_STR})^3",
    f"x^10*y^14*(x^2+y^2)*({_P_STR})^5",
    f"x^16*y^24*({_P_STR})^8",
]

# counts 1, 2, 13, 13^3, 2*13^5, 13^8, then a 6-step recurrence
_DUNGEON_D_COUNT_SEED = [1, 2, 13, 13 ** 3, 2 * 13 ** 5, 13 ** 8]

_DUNGEON_E_COUNTS = [1, 2 * 13, 13 ** 3, 13 ** 5, 2 * 13 ** 8, 13 ** 12,
                     13 ** 16]


def dungeon_d_count(n: int) -> int:
    """Tiling count of the n-th diamond-contour dungeon region."""
    if n < 6:
        return _DUNGEON_D_COUNT_SEED[n]
    # T(n) = 13^(4(n-1)-8) * T(n-6)
    return 13 ** (4 * n - 12) * dungeon_d_count(n - 6)


@_suite("dungeon")
def suite_dungeon() -> Iterator[Case]:
    for n, s in enumerate(_DUNGEON_D_SYMBOLIC):
        yield Case.compare(f"symbolic-n{n}", parse(s),
                           family_value("dungeon-D", n),
                           "closed-form tiling generating function")
    one = {"x": RF.const(1), "y": RF.const(1)}
    for n in range(11):
        yield Case.compare(f"count-n{n}", RF.const(dungeon_d_count(n)),
                           family_value("dungeon-D", n, one),
                           "power-of-13 count: 6-step recurrence vs pipeline")


@_suite("dungeon-E")
def suite_dungeon_e() -> Iterator[Case]:
    for n, expected in enumerate(_DUNGEON_E_COUNTS):
        yield Case.compare(f"count-n{n}", RF.const(expected),
                           family_value("dungeon-E", n),
                           "power-of-13 count via pipeline")
    # the 6-step recurrence linking the first repeated order
    yield Case.compare("recurrence-n6", family_value("dungeon-E", 6),
                       RF.const(13 ** (4 * 6 - 8))
                       * family_value("dungeon-E", 0),
                       "T(E_6) = 13^16 * T(E_0)")


# Closed-form values as (factor, exponent) products; "R" is the shared
# quartic.  Kept factored so the comparison never expands anything large.
_WD_R = "a*b*g*h+a*c*f*g+b*d*e*h+2*c*d*e*f"
_WEIGHTED_DUNGEON_VALUES = [
    [],
    [("d*e", 1)],
    [("a*b", 1), (_WD_R, 1)],
    [("d*e", 2), ("a*b*g*h", 1), (_WD_R, 1)],
    [("2", 1), ("a*b", 2), ("c*d*e*f", 1), (_WD_R, 3)],
    [("2", 1), ("d*e", 4), ("a*b*g*h", 2), ("c*f", 1), (_WD_R, 3)],
    [("2", 3), ("a*b", 4), ("c*d*e*f", 3), ("g*h", 1), (_WD_R, 5)],
    [("2", 3), ("d*e", 7), ("a*b*g*h", 4), ("c*f", 3), (_WD_R, 5)],
    [("2", 5), ("a*b", 7), ("c*d*e*f", 5), ("g*h", 3), (_WD_R, 8)],
    [("2", 5), ("d*e", 10), ("a*b*g*h", 7), ("c*f", 5), (_WD_R, 8)],
    [("2", 8), ("a*b", 10), ("c*d*e*f", 8), ("g*h", 5), (_WD_R, 12)],
    [("2", 8), ("d*e", 14), ("a*b*g*h", 10), ("c*f", 8), (_WD_R, 12)],
]


def _weighted_dungeon_expected(n: int) -> FactoredRF:
    value = FactoredRF(1)
    for s, e in _WEIGHTED_DUNGEON_VALUES[n]:
        value = value * FactoredRF.from_rf(parse(s)) ** e
    return value


@_suite("weighted-dungeon")
def suite_weighted_dungeon() -> Iterator[Case]:
    m = weighted_dungeon_period_M()
    for n in range(12):
        yield Case.compare(f"symbolic-n{n}", _weighted_dungeon_expected(n),
                           evaluate_factored(AztecInstance(n, m)),
                           "eight-variable closed form")


# ---------------------------------------------------------------------------
# Column-pair pattern suites

def _random_pattern_cases(pattern: str, value, power: int, seed: int,
                          trials: int, provenance: str) -> Iterator[Case]:
    """Seeded random column-pair matrices at orders 1..4, each checked by
    its recurrence `value` against the pipeline and the pipeline against
    the oracle.  Each row draws two weights, raised to `power`."""
    rng = random.Random(seed)
    for n in range(1, 5):
        for t in range(trials):
            tt = ColumnPairMatrix(
                [[_rand_weight(rng) ** power, _rand_weight(rng) ** power]
                 for _ in range(2 * n)], pattern)
            rec = value(tt)
            pipe, _ = evaluate(tt.instance())
            yield Case.compare(f"recurrence-vs-pipeline-n{n}-t{t}", rec, pipe,
                               provenance)
            yield Case.compare(f"pipeline-vs-oracle-n{n}-t{t}", pipe,
                               oracle_mgf(to_graph(tt.instance())),
                               "pipeline against brute-force enumeration")


@_suite("quad-pattern")
def suite_quad_pattern(seed: int = 0, trials: int = 3) -> Iterator[Case]:
    yield from _random_pattern_cases(
        "quad", quad_value, 2, seed, trials,
        "order-lowering recurrence against the pipeline")
    rows = [[parse(f"u{i}^2"), parse(f"v{i}^2")] for i in range(1, 13)]
    r4 = ColumnPairMatrix(rows, "quad")
    for _ in range(4):
        r4 = quad_step(r4)
    sub = ColumnPairMatrix(rows[4:8], "quad")
    yield Case("r4-row-drop", "rows 5..8 of the 12-row matrix",
               "r^4 of the 12-row matrix", r4.rows == sub.rows,
               "four steps drop the outer four row pairs")


@_suite("duplicate-pattern")
def suite_duplicate_pattern(seed: int = 0, trials: int = 3) -> Iterator[Case]:
    yield from _random_pattern_cases(
        "duplicate", duplicate_value, 1, seed, trials,
        "two-order recurrence against the pipeline")
    rows = [[parse(f"u{i}"), parse(f"v{i}")] for i in range(1, 13)]
    t2 = duplicate_step(duplicate_step(ColumnPairMatrix(rows, "duplicate")))
    sub = ColumnPairMatrix(rows[4:8], "duplicate")
    yield Case("t2-row-drop", "rows 5..8 of the 12-row matrix",
               "t^2 of the 12-row matrix", t2.rows == sub.rows,
               "two steps drop the outer four row pairs")


# ---------------------------------------------------------------------------
# Squares-and-hexagons, dragon, checkered suites

@_suite("hexsquare")
def suite_hexsquare() -> Iterator[Case]:
    """Verified period-three closed form, plus the recorded refutation.

    The historical claim (exponent n(n+1) at diamond order 2n, with odd
    orders matching the preceding even ones) fails at order 4 and beyond;
    brute-force enumeration pins the true exponents, which follow the
    diamond order mod 3.  The suite checks the verified form against the
    pipeline, cross-checks small orders against the oracle, and keeps the
    counterexample as an explicit case.
    """
    p = hexsquare_period()
    for m in range(14):
        yield Case.compare(f"closed-form-m{m}", hexsquare_closed_form(m),
                           evaluate_factored(AztecInstance(m, p)),
                           "oracle-verified period-three exponent pattern")
    for m in range(1, 5):
        yield Case.compare(f"oracle-m{m}",
                           oracle_mgf(to_graph(AztecInstance(m, p))),
                           evaluate(AztecInstance(m, p))[0],
                           "pipeline against brute-force enumeration")
    claim = parse("(1+a^2)^6")  # n(n+1) with n = 2, diamond order 4
    actual, _ = evaluate(AztecInstance(4, p))
    yield Case("historical-claim-counterexample",
               "order-4 value differs from (1+a^2)^6",
               str(actual), actual != claim,
               "printed claim refuted by enumeration at order 4")
    odd = evaluate(AztecInstance(5, p))[0]
    even = evaluate(AztecInstance(4, p))[0]
    yield Case("historical-odd-even-counterexample",
               "order-5 value differs from order-4 value",
               f"{odd} vs {even}", odd != even,
               "odd-order equality also fails at orders 4, 5")


@_suite("dragon")
def suite_dragon() -> Iterator[Case]:
    base = parse("1+a^2")
    b = dragon_period()
    for n in range(6):
        yield Case.compare(f"symbolic-n{n}",
                           FactoredRF.from_rf(base) ** (n * (n + 1)),
                           evaluate_factored(AztecInstance(2 * n, b)),
                           "a-weighted diamond closed form")
    u = dragon_unit_period()
    for n in range(9):
        yield Case.compare(f"count-n{n}", RF.const(2 ** (n * (n + 1))),
                           evaluate(AztecInstance(2 * n, u))[0],
                           "power-of-two tiling count")


@_suite("checkered")
def suite_checkered() -> Iterator[Case]:
    one = {"q": RF.const(1)}
    period = checkered_period()
    for n in range(1, 36):
        val, _ = evaluate(AztecInstance(n, period))
        yield Case.compare(f"count-n{n}", checkered_count(n),
                           val.substitute(one), "tabulated magnitude at q = 1"
                           if n <= 30 else "30-step recurrence at q = 1")
        if n <= 15:
            yield Case.compare(f"symbolic-n{n}", checkered_closed_form(n), val,
                               "tabulated monomial in q")
        elif n > 30:
            yield Case.compare(f"recurrence-n{n}", checkered_closed_form(n),
                               val, "30-step recurrence with q -> 9q")


@_suite("orbit")
def suite_orbit() -> Iterator[Case]:
    rep = detect_proportional(PeriodMatrix.constant(1))
    yield Case("all-ones-period", "k=1, c=1/2",
               f"k={rep.period_length}, c={rep.scalar}",
               rep.period_length == 1
               and rep.scalar == RF.const(Fraction(1, 2)),
               "constant matrix shuffles to half itself")
    n_mat = dungeon_period_N()
    k0 = (parse("y^4*(x^3+x*y^2+1)^4*(x^4+2*x^2*y^2+y^4+x)^4")
          / (parse("(x^2+y^2)^4") * parse(_P_STR) ** 4))
    rep = detect_proportional(n_mat)
    yield Case("dungeon-period-12", "k=12, scalar as closed form",
               f"k={rep.period_length}, match={rep.scalar == k0}",
               rep.period_length == 12 and rep.scalar == k0,
               "twelfth shuffle iterate is proportional")
    k2 = (parse("(a*g+d*e)^2*(b*h+c*f)^2*(a*g+2*d*e)^2*(b*h+2*c*f)^2")
          / parse("16*(a*b*g*h+a*c*f*g+b*d*e*h+2*c*d*e*f)^4"))
    rep = detect_proportional(weighted_dungeon_period_M())
    yield Case("eight-variable-period-12", "k=12, scalar as closed form",
               f"k={rep.period_length}, match={rep.scalar == k2}",
               rep.period_length == 12 and rep.scalar == k2,
               "eight-variable twelfth iterate, 1/16 coefficient")
    rep = detect_q_shift(checkered_period())
    yield Case("checkered-q-shift", "k=30, sigma=9",
               f"k={rep.period_length}, sigma={rep.sigma}",
               rep.period_length == 30 and rep.sigma == 9,
               "thirtieth iterate rescales q by 9")
    k_const = recurrence_constant(PeriodMatrix.constant(1), 2, 1)
    yield Case.compare("recurrence-all-ones", RF.const(4), k_const,
                       "step factor times scalar power equals the value ratio")
    k_n = recurrence_constant(n_mat, 14, 12, factored=True)
    lhs = evaluate_factored(AztecInstance(14, n_mat))
    rhs = k_n * evaluate_factored(AztecInstance(2, n_mat))
    yield Case("recurrence-dungeon", "order-14 value",
               "constant times order-2 value", lhs == rhs,
               "12-step recurrence validated by direct evaluation")


@_suite("class-counts")
def suite_class_counts() -> Iterator[Case]:
    """Every matching uses n edges per row class, n+1 per column pair."""
    for n in range(1, 5):
        inst = AztecInstance(n, PeriodMatrix.constant(1))
        g = to_graph(inst)
        rows = row_classes(n)
        cols = col_classes(n)
        ok_rows = ok_cols = True
        count = 0
        for matching in enumerate_matchings(g):
            count += 1
            r_used = [0] * (2 * n + 1)
            c_used = [0] * (2 * n + 1)
            for (u, v) in matching:
                r, c = _edge_position(n, u, v)
                r_used[r + 1] += 1
                c_used[c + 1] += 1
            for cls in rows:
                if sum(r_used[i] for i in cls) != n:
                    ok_rows = False
            for cls in cols:
                if sum(c_used[i] for i in cls) != n + 1:
                    ok_cols = False
        yield Case(f"row-classes-n{n}",
                   f"n edges per row class in all {count} matchings",
                   "verified" if ok_rows else "violated", ok_rows,
                   "exhaustive enumeration")
        yield Case(f"col-classes-n{n}",
                   f"n+1 edges per column pair in all {count} matchings",
                   "verified" if ok_cols else "violated", ok_cols,
                   "exhaustive enumeration")
