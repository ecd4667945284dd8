"""The reduction pipeline on diamond graphs with periodic weights."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen.aztec import (AztecInstance, PeriodMatrix, ZeroCellFactor,
                            canonical_cells, col_classes, edge_array,
                            evaluate, evaluate_factored, reduce_step,
                            row_classes, scale_col_class, scale_row_class,
                            shuffle, to_graph)
from matchgen.exprs import parse
from matchgen.graphs import oracle_mgf
from matchgen.rational import RationalFunction as RF


def test_period_shape_validation():
    with pytest.raises(ValueError):
        PeriodMatrix([[RF.const(1)]])
    with pytest.raises(ValueError):
        PeriodMatrix([[RF.const(1), RF.const(1)],
                      [RF.const(1)]])


def test_period_json_round_trip():
    p = PeriodMatrix.from_strings([["a", "2"], ["1/2", "x+y"]])
    assert PeriodMatrix.from_json(p.to_json()) == p


def test_all_ones_counts():
    ones = PeriodMatrix.constant(1)
    for n in range(9):
        val, _ = evaluate(AztecInstance(n, ones))
        assert val == RF.const(2 ** (n * (n + 1) // 2))


def test_edge_array_tiles_the_period():
    p = PeriodMatrix.from_strings([["a", "b"], ["c", "d"]])
    arr = edge_array(AztecInstance(2, p))
    assert arr[0][0] == parse("a") and arr[0][2] == parse("a")
    assert arr[3][3] == parse("d")


def test_graph_edge_count():
    # the order-n diamond has 2n(n+1) vertices and 2n(2n+... edges laid
    # out on a 2n x 2n array, one per array position
    for n in (1, 2, 3):
        g = to_graph(AztecInstance(n, PeriodMatrix.constant(1)))
        assert len(g.vertices) == 2 * n * (n + 1)
        assert len(g.weights) == 4 * n * n


def test_canonical_cells_partition_edges():
    inst = AztecInstance(3, PeriodMatrix.constant(1))
    cells = canonical_cells(inst)
    seen = set()
    for cell in cells:
        for i in range(4):
            e = frozenset((cell[i], cell[(i + 1) % 4]))
            assert e not in seen
            seen.add(e)
    assert len(seen) == len(to_graph(inst).weights)


def test_shuffle_block_inversion():
    p = PeriodMatrix.from_strings([["a", "b"], ["c", "d"]])
    q = shuffle(p)
    delta = parse("a*d+b*c")
    # inversion then a one-step cyclic shift in both directions
    assert q.entries[0][0] == parse("a") / delta
    assert q.entries[1][1] == parse("d") / delta
    assert q.entries[0][1] == parse("b") / delta
    assert q.entries[1][0] == parse("c") / delta


def test_shuffle_zero_block_raises():
    p = PeriodMatrix.from_strings([["1", "0"], ["0", "1"]])
    ok = shuffle(p)  # delta = 1, fine
    assert ok.entries[0][0] == RF.const(1)
    with pytest.raises(ZeroCellFactor):
        shuffle(PeriodMatrix.from_strings([["1", "0"], ["0", "0"]]))


def test_reduce_step_zero_block_raises():
    p = PeriodMatrix.from_strings([["1", "0"], ["0", "0"]])
    with pytest.raises(ZeroCellFactor) as exc:
        reduce_step(AztecInstance(1, p))
    assert exc.value.order == 1
    assert exc.value.block == (0, 0)


def test_unused_degenerate_block_is_not_inverted():
    # block (1,0) has a*d + b*c = 0; the order-1 array never reads it
    p = PeriodMatrix([[1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1]])
    inst = AztecInstance(1, p)
    assert evaluate(inst)[0] == oracle_mgf(to_graph(inst)) == RF.const(2)
    with pytest.raises(ZeroCellFactor) as exc:
        evaluate(AztecInstance(2, p))
    assert str(exc.value) == "zero cell-factor at order 2, block (1,0)"


def test_zero_weight_periods_match_oracle_or_raise():
    rng = random.Random(4)
    weights = [Fraction(w, 2) for w in (0, 1, 2, 3, 4, 6)]
    for _ in range(150):
        k, l = rng.choice((4, 6, 8)), rng.choice((2, 4, 6, 8))
        p = PeriodMatrix([[rng.choice(weights) for _ in range(l)]
                          for _ in range(k)])
        for n in (1, 2, 3):
            inst = AztecInstance(n, p)
            try:
                val, _ = evaluate(inst)
            except ZeroCellFactor:
                continue
            assert val == oracle_mgf(to_graph(inst))


def test_reduce_step_identity():
    p = PeriodMatrix.from_strings([["2", "3"], ["5", "7"]])
    inst = AztecInstance(3, p)
    factor, succ = reduce_step(inst)
    assert succ.n == 2
    lhs = oracle_mgf(to_graph(inst))
    rhs = factor * oracle_mgf(to_graph(succ))
    assert lhs == rhs


def test_trace_product_equals_value():
    inst = AztecInstance(4, PeriodMatrix.from_strings([["a", "b"],
                                                      ["c", "d"]]))
    val, trace = evaluate(inst)
    assert trace.product() == val
    assert len(trace.steps) == 4


def test_evaluate_factored_agrees():
    inst = AztecInstance(5, PeriodMatrix.from_strings([["a", "b"],
                                                      ["c", "d"]]))
    assert evaluate_factored(inst).to_rf() == evaluate(inst)[0]


def test_order_zero():
    val, trace = evaluate(AztecInstance(0, PeriodMatrix.constant(7)))
    assert val == RF.const(1) and trace.steps == []


small_fracs = st.fractions(min_value=Fraction(1, 3), max_value=4,
                           max_denominator=3)


@given(st.lists(small_fracs, min_size=4, max_size=4),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_pipeline_matches_oracle(vals, n):
    p = PeriodMatrix([[RF.const(vals[0]), RF.const(vals[1])],
                      [RF.const(vals[2]), RF.const(vals[3])]])
    inst = AztecInstance(n, p)
    val, _ = evaluate(inst)
    assert val == oracle_mgf(to_graph(inst))


def test_pipeline_matches_oracle_4x4_symbolic():
    rows = [["a", "1", "b", "1"],
            ["1", "c", "1", "d"],
            ["e", "1", "f", "1"],
            ["1", "g", "1", "h"]]
    inst = AztecInstance(3, PeriodMatrix.from_strings(rows))
    val, _ = evaluate(inst)
    assert val == oracle_mgf(to_graph(inst))


def test_row_and_col_scaling():
    n = 3
    base = AztecInstance(n, PeriodMatrix.constant(1))
    s = parse("s")
    for idx in range(len(row_classes(n))):
        scaled, mult = scale_row_class(base, idx, s)
        # every matching uses n edges per row class, so the value scales
        # by s^n exactly
        assert mult == s ** n
        assert oracle_mgf(to_graph(scaled)) == \
            s ** n * oracle_mgf(to_graph(base))
    for idx in range(len(col_classes(n))):
        scaled, mult = scale_col_class(base, idx, s)
        assert oracle_mgf(to_graph(scaled)) == \
            s ** (n + 1) * oracle_mgf(to_graph(base))
