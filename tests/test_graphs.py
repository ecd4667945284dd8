"""Weighted graphs and the brute-force matching oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchgen import graphs, rational
from matchgen.aztec import (AztecInstance, PeriodMatrix, evaluate, reduce_step,
                            to_graph)
from matchgen.exprs import parse
from matchgen.families import (dungeon_period_N, hexsquare_period,
                               weighted_dungeon_period_M)
from matchgen.graphs import (SizeCapExceeded, WeightedGraph,
                             enumerate_matchings, graph_from_json,
                             graph_to_json, matching_weight, oracle_mgf,
                             split_vertex, strip_forced)
from matchgen.rational import FactoredRF
from matchgen.rational import RationalFunction as RF
from matchgen.rational import poly_cofactors
from matchgen.verify import _random_completion


def four_cycle():
    g = WeightedGraph()
    g.add_edge("a", "b", parse("x"))
    g.add_edge("b", "c", parse("y"))
    g.add_edge("c", "d", parse("z"))
    g.add_edge("d", "a", parse("w"))
    return g


def test_four_cycle_value():
    assert oracle_mgf(four_cycle()) == parse("x*z+y*w")


def test_single_edge_and_empty():
    g = WeightedGraph()
    g.add_edge(1, 2, parse("t"))
    assert oracle_mgf(g) == parse("t")
    assert oracle_mgf(WeightedGraph()) == RF.const(1)


def test_odd_graph_has_no_matchings():
    g = WeightedGraph()
    g.add_edge(1, 2, RF.const(1))
    g.add_edge(2, 3, RF.const(1))
    assert oracle_mgf(g) == RF.const(0)
    assert enumerate_matchings(g) == []


def test_zero_weight_edge_is_absent():
    g = four_cycle()
    g.weights[frozenset(("a", "b"))] = RF.const(0)
    assert oracle_mgf(g) == parse("y*w")


def test_enumerate_matches_oracle():
    g = four_cycle()
    total = RF.const(0)
    for m in enumerate_matchings(g):
        total = total + matching_weight(g, m)
    assert total == oracle_mgf(g)


edge_weights = st.one_of(
    st.just(RF.const(0)),
    st.fractions(min_value=-2, max_value=3, max_denominator=3).map(RF.const),
    st.sampled_from(["x", "y", "x+1", "1/y", "x*y-1",
                     # denominators that share factors with each other
                     # and with numerators
                     "1/(x+1)", "x/(x+1)^2", "-y/(x^2+y^2)",
                     "(x+y)/(x*y-1)",
                     # denominators whose irreducibles are not monic
                     "1/(2*x+1)", "y/(2*x+y)^2"]).map(parse))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    g = WeightedGraph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v, draw(edge_weights))
    return g


def _symbolic_cycle(*texts):
    g = WeightedGraph()
    for i, text in enumerate(texts):
        g.add_edge(i, (i + 1) % len(texts), parse(text))
    return g


@given(small_graphs())
# x/(x+1) + 1/(x+1): the whole denominator cancels
@example(_symbolic_cycle("x/(x+1)", "1", "1", "1/(x+1)"))
# (x+y)^2/(x*y-1)^2 - (x+y)^2/(x*y-1)^2: the sum is 0
@example(_symbolic_cycle("(x+y)/(x*y-1)", "-(x+y)/(x*y-1)",
                         "(x+y)/(x*y-1)", "(x+y)/(x*y-1)"))
# y/((2x+1)(2x+y)^2) + 1: irreducibles with leading coefficient 2 stay in
# the denominator
@example(_symbolic_cycle("1/(2*x+1)", "1", "y/(2*x+y)^2", "1"))
@settings(max_examples=80, deadline=None)
def test_oracle_equals_sum_over_enumerated_matchings(g):
    matchings = enumerate_matchings(g)
    total = RF.const(0)
    for m in matchings:
        assert frozenset().union(*m) == g.vertices
        assert all(not g.weights[e].is_zero() for e in m)
        total = total + matching_weight(g, m)
    assert oracle_mgf(g) == total
    stranded = any(all(g.weights[frozenset((v, u))].is_zero()
                       for u in g.neighbors(v)) for v in g.vertices)
    if len(g) % 2 or stranded:
        assert matchings == []
        assert oracle_mgf(g) == RF.const(0)


def _cycle(*weights):
    g = WeightedGraph()
    for i, w in enumerate(weights):
        g.add_edge(i, (i + 1) % len(weights), RF.const(w))
    return g


@st.composite
def numeric_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    g = WeightedGraph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v, RF.const(draw(st.fractions(
                    min_value=-3, max_value=3, max_denominator=4))))
    return g


@given(numeric_graphs())
@example(WeightedGraph())                     # one empty matching: 1
@example(WeightedGraph(vertices=range(4)))    # no matching: 0
@example(_cycle(1, 1, 1, -1))                 # 1*1 + 1*(-1) = 0
@example(_cycle(Fraction(-1, 2), 3, Fraction(2, 3), Fraction(-1, 4)))
@settings(max_examples=80, deadline=None)
def test_numeric_oracle_equals_fraction_sum_over_matchings(g):
    expected = sum((math.prod((g.weights[e].as_const() for e in m),
                              start=Fraction(1))
                    for m in enumerate_matchings(g)), Fraction(0))
    value = oracle_mgf(g)
    assert value.is_const() and value.as_const() == expected


def test_numeric_oracle_takes_no_gcd(monkeypatch):
    inst = AztecInstance(3, PeriodMatrix([
        [RF.const(2), RF.const(Fraction(1, 3))],
        [RF.const(Fraction(-5, 2)), RF.const(Fraction(3, 4))]]))
    expected = evaluate(inst)[0]
    calls = []

    def counting(*args):
        calls.append(args)
        return poly_cofactors(*args)

    monkeypatch.setattr(rational, "poly_cofactors", counting)
    assert oracle_mgf(to_graph(inst)) == expected
    assert calls == []


@pytest.mark.parametrize("n", [5, 6, 7])
def test_oracle_counts_aztec_diamond(n):
    # Aztec diamond theorem: the order-n diamond has 2^(n(n+1)/2) matchings
    g = to_graph(AztecInstance(n, PeriodMatrix.constant(1)))
    assert len(g) == 2 * n * (n + 1)
    assert oracle_mgf(g, size_cap=len(g)) == RF.const(2 ** (n * (n + 1) // 2))


def _generic_4x4():
    rng = random.Random(7)
    return PeriodMatrix([[RF.const(Fraction(rng.randint(1, 5),
                                            rng.randint(1, 3)))
                          for _ in range(4)] for _ in range(4)])


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("period", [
    dungeon_period_N, weighted_dungeon_period_M, hexsquare_period,
    _generic_4x4], ids=["N", "M", "hexsquare", "generic-4x4"])
def test_oracle_equals_evaluate_beyond_the_cli_cap(period, n):
    inst = AztecInstance(n, period())
    g = to_graph(inst)
    assert oracle_mgf(g, size_cap=len(g)) == evaluate(inst)[0]


def _live_components(g):
    """Each vertex's component, zero-weight edges counting as absent."""
    live = {v: set() for v in g.vertices}
    for key, w in g.weights.items():
        if not w.is_zero():
            u, v = key
            live[u].add(v)
            live[v].add(u)
    component = {}
    for root in g.vertices:
        stack = [root]
        while stack:
            v = stack.pop()
            if v not in component:
                component[v] = root
                stack += live[v]
    return live, component


@pytest.mark.parametrize("g", [
    to_graph(AztecInstance(4, dungeon_period_N())),
    _random_completion(random.Random(3), 0).host,
    WeightedGraph(["c", "z"], [("a", "e", RF.const(2)),
                               ("b", "d", RF.const(1)),
                               ("e", "c", RF.const(3)),
                               ("z", "a", RF.const(0))]),
], ids=["diamond", "completion", "components"])
def test_vertices_are_numbered_in_one_breadth_first_sweep(g):
    order, _ = graphs._indexed(g, len(g))
    assert len(order) == len(g) and set(order) == g.vertices
    live, component = _live_components(g)
    runs = [c for c, _ in itertools.groupby(component[v] for v in order)]
    assert len(runs) == len(set(runs))
    for i, v in enumerate(order):
        first = i == 0 or component[order[i - 1]] != component[v]
        assert first or live[v] & set(order[:i])


def test_oracle_normalizes_once(monkeypatch):
    g = to_graph(AztecInstance(3, dungeon_period_N()))
    calls = []

    def counting(*args):
        calls.append(args)
        return poly_cofactors(*args)

    monkeypatch.setattr(rational, "poly_cofactors", counting)
    value = oracle_mgf(g)
    assert calls == []
    assert value == evaluate(AztecInstance(3, dungeon_period_N()))[0]


def test_symbolic_oracle_takes_no_gcd_and_no_sympy_division(monkeypatch):
    inst = AztecInstance(4, dungeon_period_N())
    expected = evaluate(inst)[0]
    rational._factor_cache.clear()
    rational._irreducibles.clear()
    calls = []

    def counting(name, call):
        return lambda *args: calls.append(name) or call(*args)

    # every gcd goes through poly_cofactors or _cofactors, and every sympy
    # polynomial is built in _ring
    for name in ("poly_cofactors", "_cofactors", "_ring"):
        monkeypatch.setattr(rational, name,
                            counting(name, getattr(rational, name)))
    assert oracle_mgf(to_graph(inst)) == expected
    assert calls == []



def test_symbolic_oracle_compares_each_weight_once(monkeypatch):
    """The weights are deduplicated by value once, and each edge's numerator
    is found by its weight's identity: a lookup by value per edge would
    run MultiPoly.__eq__ about 280 times on N at order 4."""
    inst = AztecInstance(4, dungeon_period_N())
    expected = evaluate(inst)[0]
    g = to_graph(inst)
    weights = [w for _, _, w in g.edges()]
    objects = len({id(w) for w in weights})
    values = len({(w.num, w.den) for w in weights})
    calls = []
    eq = rational.MultiPoly.__eq__
    monkeypatch.setattr(rational.MultiPoly, "__eq__",
                        lambda a, b: calls.append(1) or eq(a, b))
    value = oracle_mgf(g)
    compared = len(calls)
    assert value == expected
    # a (num, den) key compares twice per object with an equal value, and
    # a denominator at most twice per value
    assert compared <= 2 * (objects + values) < len(weights)

def test_size_cap():
    g = WeightedGraph(vertices=range(50))
    with pytest.raises(SizeCapExceeded):
        oracle_mgf(g)


def test_duplicate_edge_rejected():
    g = WeightedGraph()
    g.add_edge(1, 2, RF.const(1))
    with pytest.raises(ValueError):
        g.add_edge(2, 1, RF.const(2))


def test_json_round_trip():
    g = four_cycle()
    h = graph_from_json(graph_to_json(g))
    assert set(h.vertices) == set(g.vertices)
    assert h.weights == g.weights


def test_strip_forced_preserves_value():
    g = WeightedGraph()
    g.add_edge("p", "q", parse("u"))   # pendant: forced
    g.add_edge("q", "r", parse("v"))
    g.add_edge("r", "s", parse("w"))
    g.add_edge("s", "q", RF.const(0))
    before = oracle_mgf(g)
    stripped, factor = strip_forced(g)
    assert factor * oracle_mgf(stripped) == before


def test_split_vertex_preserves_value():
    g = four_cycle()
    g.add_edge("b", "e", parse("t"))
    g.add_edge("e", "f", parse("s"))
    out = split_vertex(g, "b", ["a", "e"], ["c"])
    assert len(out.vertices) == len(g.vertices) + 2
    assert oracle_mgf(out) == oracle_mgf(g)
    with pytest.raises(ValueError):  # misses a neighbour
        split_vertex(g, "b", ["a"], ["c"])
    with pytest.raises(ValueError):  # overlapping groups
        split_vertex(g, "b", ["a", "e"], ["c", "e"])


def test_factored_edge_weights():
    inst = AztecInstance(3, PeriodMatrix([[parse("a"), RF.const(1)],
                                          [RF.const(1), parse("b")]]))
    factor, reached = reduce_step(inst)
    assert factor * oracle_mgf(to_graph(reached)) == evaluate(inst)[0]
    with pytest.raises(TypeError):
        WeightedGraph().add_edge(1, 2, "x")
    g = WeightedGraph()
    g.add_edge(1, 2, FactoredRF.from_rf(parse("(x+1)^2/y")))
    assert isinstance(g.weight(1, 2), RF)
    assert g.weight(1, 2) == parse("(x^2+2*x+1)/y")
