"""Complementation on cellular graphs: per-cell rules against the oracle."""

import pytest

from matchgen.aztec import AztecInstance, PeriodMatrix, canonical_cells, to_graph
from matchgen.cellular import (CellularCompletion, CompletionError,
                               complement, find_completion, lemma26_rewrite,
                               partial_cell, urban_renewal, whole_cell)
from matchgen.exprs import parse
from matchgen.graphs import WeightedGraph, oracle_mgf
from matchgen.rational import RationalFunction as RF


def single_cell(weights, h_edges):
    """One 4-cycle host; h_edges is a set of index pairs like {(0, 1)}."""
    host = WeightedGraph()
    keep = {frozenset(e) for e in h_edges}
    members = set()
    for i in range(4):
        e = frozenset((i, (i + 1) % 4))
        w = parse(weights[i]) if e in keep else RF.const(0)
        host.add_edge(i, (i + 1) % 4, w)
        if e in keep:
            members |= e
    return CellularCompletion(host, [(0, 1, 2, 3)], members)


def check_identity(comp):
    hp, factor, partial = complement(comp)
    lhs = oracle_mgf(comp.h_graph())
    rhs = RF.const(2 ** partial) * factor * oracle_mgf(hp)
    assert lhs == rhs
    return hp, factor, partial


def test_whole_cell():
    comp = single_cell(["a", "b", "c", "d"],
                       {(0, 1), (1, 2), (2, 3), (3, 0)})
    hp, factor, partial = check_identity(comp)
    assert comp.cell_kind(0) == "whole"
    assert partial == 0
    assert factor == parse("a*c+b*d")
    assert not hp.vertices


def test_partial_two_vertex_cell():
    comp = single_cell(["a", "b", "c", "d"], {(1, 2)})
    hp, factor, partial = check_identity(comp)
    assert comp.cell_kind(0) == "partial2"
    assert partial == 1 and factor == RF.const(1)
    # the opposite edge carries half the removed weight
    assert oracle_mgf(hp) == parse("b/2")


def test_partial_empty_cell():
    host = WeightedGraph()
    for i in range(4):
        host.add_edge(i, (i + 1) % 4, RF.const(0))
    comp = CellularCompletion(host, [(0, 1, 2, 3)], set())
    assert comp.cell_kind(0) == "partial0"
    check_identity(comp)


def ring(h_pairs_per_cell):
    """Four cells around a ring; shared vertices carry two cells each."""
    host = WeightedGraph()
    cells = []
    names = "abcdefghijkl"
    k = 0
    for i in range(4):
        m, x = ("m", i), ("x", i)
        m2, y = ("m", (i + 1) % 4), ("y", i)
        cells.append((m, x, m2, y))
        pairs = h_pairs_per_cell[i]
        for pos, (u, v) in enumerate([(m, x), (x, m2), (m2, y), (y, m)]):
            if pos in pairs:
                host.add_edge(u, v, parse(names[k]))
                k += 1
            else:
                host.add_edge(u, v, RF.const(0))
    members = set()
    for e, w in host.weights.items():
        if not w.is_zero():
            members |= e
    return CellularCompletion(host, cells, members)


def test_partial_three_vertex_ring():
    # the subgraph is an 8-cycle threading all four shared vertices, so
    # every cell keeps three of its vertices and M(H) is nonzero
    comp = ring([(0, 1)] * 4)
    assert all(comp.cell_kind(i) == "partial3" for i in range(4))
    assert not oracle_mgf(comp.h_graph()).is_zero()
    check_identity(comp)


def test_mixed_ring():
    comp = ring([(0, 1, 2, 3), (0, 1), (0, 1, 2, 3), (0, 1)])
    kinds = {comp.cell_kind(i) for i in range(4)}
    assert kinds == {"whole", "partial3"}
    check_identity(comp)


def test_lines_walk_through_opposite_vertices():
    comp = ring([(0, 1)] * 4)
    lines = comp.lines()
    # one closed line through the four shared vertices plus one short line
    # per cell in the other direction
    assert sorted(len(l) for l in lines) == [1, 1, 1, 1, 4]
    closed = max(lines, key=len)
    assert sorted(closed) == [0, 1, 2, 3]


def four_cycle(weight=0):
    host = WeightedGraph()
    for i in range(4):
        host.add_edge(i, (i + 1) % 4, RF.const(weight))
    return host


def test_validation_errors():
    host = four_cycle(1)
    with pytest.raises(CompletionError, match="4 distinct vertices"):
        CellularCompletion(host, [(0, 1, 2, 2)], set(range(4)))
    with pytest.raises(CompletionError, match="uses unknown vertex 5"):
        CellularCompletion(host, [(0, 1, 2, 5)], set(range(4)))
    with pytest.raises(CompletionError, match="in two cells"):
        CellularCompletion(host, [(0, 1, 2, 3), (0, 1, 2, 3)], set(range(4)))
    with pytest.raises(CompletionError, match="not covered by a cell"):
        CellularCompletion(host, [], set())
    # three cells meet at vertex 0
    star = WeightedGraph()
    cells = []
    for i in range(3):
        cell = (0, ("a", i), ("b", i), ("c", i))
        cells.append(cell)
        for j in range(4):
            star.add_edge(cell[j], cell[(j + 1) % 4], RF.const(0))
    with pytest.raises(CompletionError, match="vertex 0 lies in 3 cells"):
        CellularCompletion(star, cells, set())
    lonely = four_cycle()
    lonely.vertices.add(9)
    with pytest.raises(CompletionError, match="vertex 9 lies in no cell"):
        CellularCompletion(lonely, [(0, 1, 2, 3)], set())
    ring_edges = {frozenset((i, (i + 1) % 4)) for i in range(4)}
    with pytest.raises(CompletionError,
                       match=r"subgraph edge \{0, 2\} not in host"):
        CellularCompletion(host, [(0, 1, 2, 3)], set(range(4)),
                           h_edges=ring_edges | {frozenset((0, 2))})
    with pytest.raises(CompletionError, match="leaves the member set"):
        CellularCompletion(host, [(0, 1, 2, 3)], {0, 1, 2},
                           h_edges=ring_edges)
    # a nonzero edge outside the declared subgraph
    with pytest.raises(CompletionError,
                       match="outside the subgraph must have weight 0"):
        CellularCompletion(host, [(0, 1, 2, 3)], {0, 1},
                           h_edges={frozenset((0, 1))})
    # ("m", 0) loses both of its edges, so it is a non-member in two cells
    with pytest.raises(CompletionError,
                       match="non-member vertices must be extremal"):
        ring([(1,), (0, 1), (0, 1), (0,)])


def test_member_must_touch_subgraph_edge_in_each_cell():
    # ("m", 0) keeps its edge in cell 0 and so stays a member, but the
    # zero edge ("x", 3)-("m", 0) leaves cell 3 without a way to reach it
    with pytest.raises(CompletionError, match="not an endpoint"):
        ring([(0, 1), (0, 1), (0, 1), (0,)])


def test_find_completion_in_diamond_host():
    inst = AztecInstance(2, PeriodMatrix.from_strings([["a", "b"],
                                                      ["c", "d"]]))
    host = to_graph(inst)
    cells = canonical_cells(inst)
    cell = cells[0]
    h = WeightedGraph()
    for i in range(4):
        u, v = cell[i], cell[(i + 1) % 4]
        h.add_edge(u, v, host.weight(u, v))
    comp = find_completion(h, host, cells)
    assert len(comp.cells) == 1
    check_identity(comp)


def test_urban_renewal():
    g = WeightedGraph()
    inner = ["i0", "i1", "i2", "i3"]
    outer = ["o0", "o1", "o2", "o3"]
    for i in range(4):
        g.add_edge(inner[i], inner[(i + 1) % 4], parse("abcd"[i]))
        g.add_edge(inner[i], outer[i], RF.const(1))
        g.add_edge(outer[i], ("z", i), parse("pqrs"[i]))
    before = oracle_mgf(g)
    out, factor = urban_renewal(g, tuple(inner), outer)
    assert factor == parse("a*c+b*d")
    assert before == factor * oracle_mgf(out)


def test_lemma26_variant_a():
    g = WeightedGraph()
    g.add_edge("A", "B", parse("x"))
    g.add_edge("B", "C", parse("y"))
    for v, leg in (("A", "a"), ("B", "b"), ("C", "c")):
        g.add_edge(v, leg, RF.const(1))
    g.add_edge("a", "p", parse("u"))
    g.add_edge("p", "b", parse("v"))
    g.add_edge("c", "q", parse("w"))
    before = oracle_mgf(g)
    out, factor = lemma26_rewrite(g, "a", ("A", "B", "C"))
    assert factor == RF.const(2)
    assert before == RF.const(2) * oracle_mgf(out)


def test_lemma26_variant_b():
    g = WeightedGraph()
    g.add_edge("A", "B", parse("x"))
    g.add_edge("A", "a", RF.const(1))
    g.add_edge("B", "b", RF.const(1))
    g.add_edge("a", "p", parse("u"))
    g.add_edge("b", "q", parse("v"))
    before = oracle_mgf(g)
    out, factor = lemma26_rewrite(g, "b", ("A", "B"))
    assert before == RF.const(2) * oracle_mgf(out)
    with pytest.raises(ValueError):
        lemma26_rewrite(g, "z", ("A", "B"))


def test_cell_rules():
    a, b, c, d, x, y = (parse(v) for v in "abcdxy")
    delta, new = whole_cell([a, b, c, d])
    assert delta == parse("a*c+b*d")
    assert list(new) == [c / delta, d / delta, a / delta, b / delta]
    zero, half = RF.const(0), RF.const(1) / 2
    s = x * x + y * y
    T, F = True, False
    # the rules are read from the first covered edge on
    assert partial_cell([zero, zero, x, y], [F, F, T, T]) == \
        [x / 2, y / 2, x / s, y / s]
    assert partial_cell([zero, x, zero, zero], [F, T, F, F]) == \
        [half, 1 / (2 * x), half, x / 2]
    assert partial_cell([zero] * 4, [F] * 4) == [half] * 4
    with pytest.raises(ValueError):  # opposite edges cover every vertex
        partial_cell([x, zero, y, zero], [T, F, T, F])


def test_zero_whole_cell_factor_names_the_cell():
    comp = single_cell(["1", "1", "1", "-1"],
                       {(0, 1), (1, 2), (2, 3), (3, 0)})
    assert comp.cell_kind(0) == "whole"
    with pytest.raises(ZeroDivisionError, match="cell 0"):
        complement(comp)


def test_zero_edge_of_two_vertex_cell_names_the_cell():
    host = WeightedGraph()
    for i in range(4):
        host.add_edge(i, (i + 1) % 4, RF.const(0))
    comp = CellularCompletion(host, [(0, 1, 2, 3)], {1, 2},
                              h_edges={frozenset((1, 2))})
    assert comp.cell_kind(0) == "partial2"
    with pytest.raises(ZeroDivisionError, match="cell 0"):
        complement(comp)


def test_urban_renewal_zero_cell_factor():
    g = WeightedGraph()
    inner = ["i0", "i1", "i2", "i3"]
    for i, w in enumerate(["1", "1", "1", "-1"]):
        g.add_edge(inner[i], inner[(i + 1) % 4], parse(w))
        g.add_edge(inner[i], ("o", i), RF.const(1))
    with pytest.raises(ZeroDivisionError):
        urban_renewal(g, tuple(inner), [("o", i) for i in range(4)])


def test_lemma26_variant_b_zero_edge():
    g = WeightedGraph()
    g.add_edge("A", "B", RF.const(0))
    g.add_edge("A", "a", RF.const(1))
    g.add_edge("B", "b", RF.const(1))
    with pytest.raises(ZeroDivisionError):
        lemma26_rewrite(g, "b", ("A", "B"))
