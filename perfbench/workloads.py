"""The three benchmark workloads: inputs, references and exact checks.

build(name, seed) returns the workload's cases.  Building parses every
input and every reference that does not depend on the code under test, so
that work is part of set-up.  Each case's run() calls the public API and
returns (computed, expected) pairs, compared by exact canonical equality.

References are independent of the pipeline: closed forms and recurrences
from `families`, the recorded dungeon-D values and their 6-step recurrence
(kept here, not imported from `verify`, so editing a verify suite cannot
change a workload), and the brute-force oracle.  The sizes are fixed;
--seed changes only the random weights and completions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Tuple

import matchgen as mg
from matchgen import families

RF = mg.RationalFunction

Pairs = List[Tuple[object, object]]


class Case:
    """One checked computation; run() returns (computed, expected) pairs."""

    def __init__(self, name: str, run: Callable[[], Pairs], top: bool = False):
        self.name = name
        self.run = run
        self.top = top


# ---------------------------------------------------------------------------
# dungeon-expand: large MultiPoly products inside expansion, few shuffles

DUNGEON_TOP = 7

_P = "x^6+3*x^4*y^2+3*x^2*y^4+y^6+2*x^3+2*x*y^2+1"
DUNGEON_D_CLOSED = [
    "1",
    "x^2+y^2",
    f"x^2*y^2*({_P})",
    f"x^6*y^6*({_P})^3",
    f"x^10*y^14*(x^2+y^2)*({_P})^5",
    f"x^16*y^24*({_P})^8",
]
DUNGEON_D_COUNT_SEED = [1, 2, 13, 13 ** 3, 2 * 13 ** 5, 13 ** 8]


def dungeon_d_count(n: int) -> int:
    """Recorded tiling counts, T(n) = 13^(4n-12) * T(n-6) beyond the seed."""
    if n < 6:
        return DUNGEON_D_COUNT_SEED[n]
    return 13 ** (4 * n - 12) * dungeon_d_count(n - 6)


def _dungeon_expand(seed: int) -> List[Case]:
    ones = {"x": RF.const(1), "y": RF.const(1)}
    cases = []
    for n in range(DUNGEON_TOP + 1):
        count = RF.const(dungeon_d_count(n))
        closed = mg.parse(DUNGEON_D_CLOSED[n]) if n < len(DUNGEON_D_CLOSED) \
            else None

        def symbolic(n=n, count=count, closed=closed) -> Pairs:
            value = mg.family_value("dungeon-D", n)
            pairs = [(value.substitute(ones), count)]
            if closed is not None:
                pairs.append((value, closed))
            return pairs

        def bound(n=n, count=count) -> Pairs:
            return [(mg.family_value("dungeon-D", n, ones), count)]

        cases.append(Case(f"symbolic-n{n}", symbolic, top=n == DUNGEON_TOP))
        cases.append(Case(f"count-n{n}", bound))
    return cases


# ---------------------------------------------------------------------------
# checkered-orbit: many shuffles of the 20x20 period, almost no expansion

# Orders with a closed form (n <= 15) or past one q-shift period (n > 30);
# orders 16..30 repeat the same shuffles and would halve the repetitions
# that fit in a run.
CHECKERED_ORDERS = tuple(range(1, 16)) + tuple(range(31, 36))

# detect_proportional(N): shuffle^12(N) = K0 * N
_K0 = ("y^4*(x^3+x*y^2+1)^4*(x^4+2*x^2*y^2+y^4+x)^4"
       f"/((x^2+y^2)^4*({_P})^4)")


def _at_all_ones(value) -> Fraction:
    """A factored value at x = y = 1: each factor's coefficient sum."""
    out = Fraction(value.coeff)
    for f, e in value.factors.items():
        out *= Fraction(sum(f.terms.values())) ** e
    return out


def _checkered_orbit(seed: int) -> List[Case]:
    one = {"q": RF.const(1)}
    period = families.checkered_period()
    cases = []
    for n in CHECKERED_ORDERS:
        count = families.checkered_count(n)
        closed = families.checkered_closed_form(n)

        def run(n=n, count=count, closed=closed) -> Pairs:
            value, _ = mg.evaluate(mg.AztecInstance(n, period))
            return [(value.substitute(one), count), (value, closed)]

        cases.append(Case(f"evaluate-n{n}", run,
                          top=n == CHECKERED_ORDERS[-1]))

    def q_shift() -> Pairs:
        rep = mg.detect_q_shift(period)
        return [((rep.kind, rep.period_length, rep.sigma), ("q_shift", 30, 9))]

    dungeon_n = families.dungeon_period_N()
    k0 = mg.parse(_K0)

    def proportional() -> Pairs:
        rep = mg.detect_proportional(dungeon_n)
        return [((rep.kind, rep.period_length), ("proportional", 12)),
                (rep.scalar, k0)]

    # E(2m-2) at x = y = 1 is count(m) / 2^(m^2), so the 12-step constant
    # from order 14 down to order 2 is E(14) / E(2) there.
    k_ones = (Fraction(dungeon_d_count(8), 2 ** 64)
              / Fraction(dungeon_d_count(2), 2 ** 4))

    def recurrence() -> Pairs:
        k = mg.recurrence_constant(dungeon_n, 14, 12, factored=True)
        return [(_at_all_ones(k), k_ones)]

    cases.append(Case("q-shift-checkered", q_shift))
    cases.append(Case("proportional-N", proportional))
    cases.append(Case("recurrence-N-14-12", recurrence))
    return cases


# ---------------------------------------------------------------------------
# oracle-crosscheck: brute-force oracle against pipeline and complement

ORACLE_ORDERS = (1, 2, 3, 4)
RANDOM_PERIODS_PER_ORDER = 3
COMPLETIONS = 60
MAX_COMPLETION_CELLS = 8


def _weight(rng: random.Random) -> RF:
    return RF.const(Fraction(rng.randint(1, 5), rng.randint(1, 3)))


def _pipeline_vs_oracle(inst, factored: bool) -> Pairs:
    if factored:
        value = mg.evaluate_factored(inst)
    else:
        value, _ = mg.evaluate(inst)
    return [(value, mg.oracle_mgf(mg.to_graph(inst)))]


def _add_cell(g, rng, cell, in_h):
    """Cell edges in cyclic order; positions in in_h get random weights."""
    members = set()
    for i in range(4):
        u, v = cell[i], cell[(i + 1) % 4]
        if i in in_h:
            g.add_edge(u, v, _weight(rng))
            members |= {u, v}
        else:
            g.add_edge(u, v, RF.const(0))
    return members


def _random_completion(rng: random.Random, tag: int):
    """Disjoint single cells, two-cell chains and four-cell rings.

    Every vertex shared by two cells is a member touched by subgraph edges
    of both, as the complementation identity requires, so every cell kind
    (whole, three-, two- and zero-vertex partial) appears.
    """
    g = mg.WeightedGraph()
    cells, members = [], set()
    budget = rng.randint(1, MAX_COMPLETION_CELLS)
    part = 0
    while budget > 0:
        key = (tag, part)
        part += 1
        roll = rng.random()
        if budget >= 4 and roll < 0.3:
            # ring: cell i joins m[i] and m[i+1]; whole cells come in pairs
            whole = [rng.random() < 0.3 for _ in range(4)]
            if sum(whole) % 2:
                whole[whole.index(True)] = False
            m = [("rm", key, i) for i in range(4)]
            for i in range(4):
                cell = (m[i], ("rx", key, i), m[(i + 1) % 4], ("ry", key, i))
                in_h = (0, 1, 2, 3) if whole[i] else (0, 1)
                members |= _add_cell(g, rng, cell, in_h)
                cells.append(cell)
            budget -= 4
        elif budget >= 2 and roll < 0.6:
            m = ("m", key)
            a = tuple(("a", key, i) for i in range(3))
            b = tuple(("b", key, i) for i in range(3))
            cell_a, cell_b = (a[0], a[1], m, a[2]), (m, b[0], b[1], b[2])
            members |= _add_cell(g, rng, cell_a,
                                 rng.choice(((0, 1, 2, 3), (1, 2), (1,))))
            members |= _add_cell(g, rng, cell_b,
                                 rng.choice(((0, 1, 2, 3), (3, 0), (3,))))
            cells += [cell_a, cell_b]
            budget -= 2
        else:
            cell = tuple(("c", key, i) for i in range(4))
            members |= _add_cell(g, rng, cell,
                                 rng.choice(((0, 1, 2, 3), (0, 1), (0,), ())))
            cells.append(cell)
            budget -= 1
    return mg.CellularCompletion(g, cells, members)


def _complement_vs_oracle(comp) -> Pairs:
    hp, factor, partial = mg.complement(comp)
    right = RF.const(2 ** partial) * factor * mg.oracle_mgf(hp)
    return [(right, mg.oracle_mgf(comp.h_graph()))]


def _oracle_crosscheck(seed: int) -> List[Case]:
    rng = random.Random(seed)
    cases = []
    for size in (2, 4):
        for n in ORACLE_ORDERS:
            for t in range(RANDOM_PERIODS_PER_ORDER):
                period = mg.PeriodMatrix([[_weight(rng) for _ in range(size)]
                                          for _ in range(size)])
                inst = mg.AztecInstance(n, period)
                cases.append(Case(
                    f"random{size}x{size}-n{n}-t{t}",
                    lambda inst=inst: _pipeline_vs_oracle(inst, False)))
    symbolic = (("hexsquare", families.hexsquare_period()),
                ("M", families.weighted_dungeon_period_M()),
                ("N", families.dungeon_period_N()))
    top = max(ORACLE_ORDERS)
    for label, period in symbolic:
        for n in ORACLE_ORDERS:
            inst = mg.AztecInstance(n, period)
            cases.append(Case(
                f"{label}-n{n}",
                lambda inst=inst: _pipeline_vs_oracle(inst, True),
                top=(label, n) == ("N", top)))
    for t in range(COMPLETIONS):
        comp = _random_completion(rng, t)
        cases.append(Case(f"completion-{t}",
                          lambda comp=comp: _complement_vs_oracle(comp)))
    return cases


WORKLOADS = {
    "dungeon-expand": _dungeon_expand,
    "checkered-orbit": _checkered_orbit,
    "oracle-crosscheck": _oracle_crosscheck,
}


def build(name: str, seed: int) -> List[Case]:
    return WORKLOADS[name](seed)
