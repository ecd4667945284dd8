"""Weighted graphs and the brute-force matching oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen import rational
from matchgen.aztec import (AztecInstance, PeriodMatrix, evaluate, reduce_step,
                            to_graph)
from matchgen.exprs import parse
from matchgen.families import dungeon_period_N
from matchgen.graphs import (SizeCapExceeded, WeightedGraph,
                             enumerate_matchings, graph_from_json,
                             graph_to_json, matching_weight, oracle_mgf,
                             split_vertex, strip_forced)
from matchgen.rational import FactoredRF
from matchgen.rational import RationalFunction as RF
from matchgen.rational import poly_cofactors


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
                     "(x+y)/(x*y-1)"]).map(parse))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    g = WeightedGraph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v, draw(edge_weights))
    return g


@given(small_graphs())
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


def test_oracle_counts_order_5_aztec_diamond():
    # Aztec diamond theorem: the order-n diamond has 2^(n(n+1)/2) matchings
    g = to_graph(AztecInstance(5, PeriodMatrix.constant(1)))
    assert len(g) == 60
    assert oracle_mgf(g, size_cap=60) == RF.const(2 ** 15)


def test_oracle_normalizes_once(monkeypatch):
    g = to_graph(AztecInstance(3, dungeon_period_N()))
    calls = []

    def counting(*args):
        calls.append(args)
        return poly_cofactors(*args)

    monkeypatch.setattr(rational, "poly_cofactors", counting)
    value = oracle_mgf(g)
    assert len(calls) <= 1
    assert value == evaluate(AztecInstance(3, dungeon_period_N()))[0]


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
