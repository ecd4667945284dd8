"""The reduction pipeline on diamond graphs with periodic weights."""

import json
import math
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
from matchgen import aztec, rational
from matchgen.cellular import whole_cell
from matchgen.exprs import parse
from matchgen.families import (checkered_period, dungeon_period_N,
                               hexsquare_period, weighted_dungeon_period_M)
from matchgen.graphs import oracle_mgf
from matchgen.orbit import (detect_proportional, detect_q_shift,
                            recurrence_constant)
from matchgen.rational import FactoredRF
from matchgen.rational import RationalFunction as RF


def test_period_shape_validation():
    with pytest.raises(ValueError):
        PeriodMatrix([[RF.const(1)]])
    with pytest.raises(ValueError):
        PeriodMatrix([[RF.const(1), RF.const(1)],
                      [RF.const(1)]])
    with pytest.raises(ValueError, match="column count must be even"):
        PeriodMatrix([[RF.const(1)], [RF.const(1)]])


def test_period_json_round_trip():
    p = PeriodMatrix.from_strings([["a", "2"], ["1/2", "x+y"]])
    assert PeriodMatrix.from_json(p.to_json()) == p
    declared = json.dumps({"k": 2, "l": 4,
                           "entries": [["1", "1"], ["1", "1"]]})
    with pytest.raises(ValueError, match="disagrees with declared k, l"):
        PeriodMatrix.from_json(declared)


def test_substitute_keys_each_distinct_entry(monkeypatch):
    period = checkered_period()
    bindings = {"q": RF.var("u") ** 2}
    per_entry = PeriodMatrix([[e.substitute(bindings) for e in row]
                              for row in period.entries])
    calls = []
    substitute = FactoredRF.substitute
    monkeypatch.setattr(FactoredRF, "substitute",
                        lambda e, b: calls.append(e) or substitute(e, b))
    assert period.substitute(bindings) == per_entry
    distinct = {e for row in period.entries for e in row}
    assert len(calls) == len(distinct) == 8


def test_instance_order_validation():
    p = PeriodMatrix.constant(1)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        AztecInstance(-1, p)
    with pytest.raises(ValueError, match="cannot reduce order 0"):
        reduce_step(AztecInstance(0, p))


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
    with pytest.raises(ZeroCellFactor) as exc:
        shuffle(PeriodMatrix.from_strings([["1", "0"], ["0", "0"]]))
    # shuffle is the first step of an orbit and names it
    assert str(exc.value) == "zero cell-factor at orbit step 1, block (0,0)"
    assert exc.value.step == 1 and exc.value.order is None


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
    assert reduce_step(inst)[0] == RF.const(2)
    assert recurrence_constant(p, 1, 1) == RF.const(2)
    with pytest.raises(ZeroCellFactor) as exc:
        evaluate(AztecInstance(2, p))
    assert str(exc.value) == "zero cell-factor at order 2, block (1,0)"
    with pytest.raises(ZeroCellFactor) as exc:
        recurrence_constant(p, 2, 1)
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


def test_unused_degenerate_block_raises_whatever_order_comes_first():
    p = PeriodMatrix([[1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1]])
    aztec._LAST_ORBIT.clear()
    with pytest.raises(ZeroCellFactor) as exc:
        evaluate(AztecInstance(2, p))
    assert str(exc.value) == "zero cell-factor at order 2, block (1,0)"
    assert evaluate(AztecInstance(1, p))[0] == RF.const(2)


def _outcome(inst):
    """The factored value of inst, or the message of its ZeroCellFactor."""
    try:
        return evaluate_factored(inst)
    except ZeroCellFactor as exc:
        return str(exc)


def test_zero_cell_factor_does_not_depend_on_the_cached_orbit():
    rng = random.Random(4)
    weights = [Fraction(w, 2) for w in (0, 1, 2, 3, 4, 6)]
    for _ in range(150):
        k, l = rng.choice((4, 6, 8)), rng.choice((2, 4, 6, 8))
        p = PeriodMatrix([[rng.choice(weights) for _ in range(l)]
                          for _ in range(k)])
        runs = []
        for orders in ((1, 2, 3), (3, 2, 1)):
            aztec._LAST_ORBIT.clear()
            runs.append({n: _outcome(AztecInstance(n, p)) for n in orders})
        assert runs[0] == runs[1]


def _three_runs(period, orders):
    """Factored values at `orders`: cold each, ascending, descending."""
    runs = []
    for sequence, cold in ((orders, True), (orders, False),
                           (orders[::-1], False)):
        aztec._LAST_ORBIT.clear()
        values = {}
        for n in sequence:
            if cold:
                aztec._LAST_ORBIT.clear()
            values[n] = evaluate_factored(AztecInstance(n, period))
        runs.append(values)
    return runs


@pytest.mark.parametrize("period, orders", [
    pytest.param(checkered_period(), range(1, 41), id="checkered"),
    pytest.param(dungeon_period_N(), range(0, 21), id="N"),
    pytest.param(weighted_dungeon_period_M(), range(0, 21), id="M"),
    pytest.param(hexsquare_period(), range(0, 21), id="hexsquare"),
])
def test_values_do_not_depend_on_the_order_of_calls(period, orders):
    cold, ascending, descending = _three_runs(period, list(orders))
    assert cold == ascending == descending


@pytest.mark.parametrize("size", [4, 6])
def test_random_values_do_not_depend_on_the_order_of_calls(size):
    rng = random.Random(size)
    for _ in range(3):
        p = PeriodMatrix([[Fraction(rng.randint(1, 5), rng.randint(1, 3))
                           for _ in range(size)] for _ in range(size)])
        cold, ascending, descending = _three_runs(p, list(range(1, 9)))
        assert cold == ascending == descending


def _count_cell_moves(monkeypatch) -> list:
    """The weights of every `whole_cell` call the aztec module makes."""
    calls = []
    cell = aztec.whole_cell

    def counted(w):
        calls.append(w)
        return cell(w)

    monkeypatch.setattr(aztec, "whole_cell", counted)
    return calls


def _blocks(rows) -> set:
    """The distinct 2x2 blocks (a, b, c, d) of a period's rows."""
    return {(*rows[i][j:j + 2], *rows[i + 1][j:j + 2])
            for i in range(0, len(rows), 2)
            for j in range(0, len(rows[0]), 2)}


def test_one_orbit_walk_bounds_the_cell_moves(monkeypatch):
    period = checkered_period()
    # one walk of 35 steps with one cell move per distinct block of the
    # whole walk
    seen, p = set(), period
    for _ in range(35):
        seen, p = seen | _blocks(p.entries), shuffle(p)
    expected = len(seen)
    assert expected == 229
    rng = random.Random(40)
    big = PeriodMatrix([[rng.randint(1, 5) for _ in range(40)]
                        for _ in range(40)])
    # a cold order-2 call walks two whole steps of the period
    big_expected = len(_blocks(big.entries) | _blocks(shuffle(big).entries))
    calls = _count_cell_moves(monkeypatch)
    aztec._LAST_ORBIT.clear()
    for n in [*range(1, 16), *range(31, 36)]:
        evaluate(AztecInstance(n, period))
    assert len(calls) == expected
    calls.clear()
    evaluate(AztecInstance(2, big))
    assert len(calls) == big_expected


def test_each_distinct_block_is_keyed_once(monkeypatch):
    """An orbit reads a block factor's counts once, where its cell move
    succeeds, not at every block position or step that repeats the
    block."""
    keyed, moved, counts = [], [], FactoredRF.counts
    cell = aztec.whole_cell

    def counted_counts(value):
        keyed.append(value)
        return counts(value)

    def counted_cell(w):
        out = cell(w)
        moved.append(w)
        return out

    monkeypatch.setattr(FactoredRF, "counts", counted_counts)
    monkeypatch.setattr(aztec, "whole_cell", counted_cell)
    aztec._LAST_ORBIT.clear()
    for n in range(1, 36):
        evaluate(AztecInstance(n, checkered_period()))
    # equal factors are one interned value, read once
    assert len(set(keyed)) == len(keyed) < len(moved) == 229


def test_equal_entries_move_as_one_object(monkeypatch):
    """The checkered period builds q ** e per entry, so its equal entries
    are distinct objects; its walk interns them and moves the cells of a
    copy whose equal entries share one object."""
    period = checkered_period()
    shared = period.map(lambda e: e)
    ids = [{id(e) for row in p.entries for e in row} for p in (period, shared)]
    assert len(ids[1]) < len(ids[0])
    calls = _count_cell_moves(monkeypatch)
    runs = []
    for p in (period, shared):
        calls.clear()
        aztec._LAST_ORBIT.clear()
        runs.append((evaluate_factored(AztecInstance(35, p)), list(calls)))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 229


def test_packed_tables_match_the_naive_rectangle_sums():
    """`_Orbit.factor` unpacks its four packed rectangle sums into the
    counts the blocks give one at a time, at orders up to 10,000, with
    denominator keys whose totals are negative.  In a constant period
    every block has the same counts, so a whole step sums to the largest
    total its field width must hold."""
    rng = random.Random(34)
    pool = [parse(e) for e in ("1/a", "a/(a+1)", "2", "1/3", "a+b",
                               "b/(2*a)")]
    random_period = PeriodMatrix([[rng.choice(pool) for _ in range(6)]
                                  for _ in range(4)])
    negative = 0
    for period in (random_period, PeriodMatrix.constant(2, 4, 6),
                   PeriodMatrix.constant(Fraction(1, 3), 4, 6)):
        negative += _check_packed_tables(period, rng)
    assert negative


def _check_packed_tables(period, rng) -> int:
    """Compare 4 steps of period's packed tables with the naive rectangle
    sums; the number of reads with a negative total."""
    orbit = aztec._Orbit(period)
    kb, lb = orbit.kb, orbit.lb
    negative = 0
    for j in range(4):
        orbit.step_factor(j)
        factors, _ = _reference_step(orbit.periods[j])
        counts = [[delta.counts() for delta in row] for row in factors]
        for _ in range(25):
            a, r = divmod(rng.randrange(10_001), kb)
            b, c = divmod(rng.randrange(10_001), lb)
            expected = {}
            for i, row in enumerate(counts):
                for i2, keys in enumerate(row):
                    times = (a + (i < r)) * (b + (i2 < c))
                    for key, e in keys.items():
                        expected[key] = expected.get(key, 0) + times * e
            got = orbit.factor(j, a, r, b, c)
            assert {key: e for key, e in got.items() if e} == \
                {key: e for key, e in expected.items() if e}
            negative += any(e < 0 for e in got.values())
    return negative


def test_equal_blocks_make_one_cell_move_per_step(monkeypatch):
    base = PeriodMatrix.from_strings([["a", "b"], ["c", "d"]])
    tiled = PeriodMatrix([row * 4 for row in base.entries] * 3)
    aztec._LAST_ORBIT.clear()
    expected = evaluate_factored(AztecInstance(6, base))
    calls = _count_cell_moves(monkeypatch)
    aztec._LAST_ORBIT.clear()
    assert evaluate_factored(AztecInstance(6, tiled)) == expected
    # the orbit of a 2x2 period repeats after 2 steps
    assert len(calls) == 2
    calls.clear()
    aztec._LAST_ORBIT.clear()
    succ = shuffle(tiled)
    # the orbit search reads the step that shuffle walked
    [factor] = detect_proportional(tiled, max_iter=1).per_step_factors
    assert len(calls) == 1
    base_succ = shuffle(base)
    [base_factor] = detect_proportional(base, max_iter=1).per_step_factors
    assert factor == base_factor ** 12
    assert succ == PeriodMatrix([row * 4 for row in base_succ.entries] * 3)


def _reference_step(rows):
    """`aztec._step` with one `whole_cell` call per block position."""
    k, l = len(rows), len(rows[0])
    factors, inv = [], [[None] * l for _ in range(k)]
    for i in range(0, k, 2):
        row = []
        for j in range(0, l, 2):
            (a, b), (c, d) = rows[i][j:j + 2], rows[i + 1][j:j + 2]
            delta = None
            if not any(e is None for e in (a, b, c, d)):
                try:
                    delta, (na, nb, nd, nc) = whole_cell((a, b, d, c))
                except ZeroDivisionError:
                    pass
                else:
                    inv[i][j:j + 2] = na, nb
                    inv[i + 1][j:j + 2] = nc, nd
            row.append(delta)
        factors.append(row)
    return factors, [[inv[(i + 1) % k][(j + 1) % l] for j in range(l)]
                     for i in range(k)]


def test_step_matches_a_cell_move_per_block(monkeypatch):
    rng = random.Random(14)
    pool = [FactoredRF(w) for w in (0, 1, -1, 2, Fraction(1, 2))]
    pool += [FactoredRF.from_rf(parse(e)) for e in ("a", "a+1")] + [None]
    calls = _count_cell_moves(monkeypatch)
    for _ in range(60):
        k, l = rng.choice((2, 4, 6, 8)), rng.choice((2, 4, 6, 8))
        # a few entries each, so that blocks repeat and some are zero
        entries = rng.sample(pool, 3)
        rows = [[rng.choice(entries) for _ in range(l)] for _ in range(k)]
        expected = _reference_step(rows)
        calls.clear()
        assert aztec._step(rows) == expected
        assert len(calls) == sum(not any(e is None for e in block)
                                 for block in _blocks(rows))


def _naive_steps(period, n):
    """(order, factor) for each round of a reduction from n, each factor the
    product of the block factors its order uses, one at a time, or the
    message of the ZeroCellFactor the first used zero block raises."""
    rows, steps = period.entries, []
    for m in range(n, 0, -1):
        factors, successor = _reference_step(aztec._read_part(rows, m))
        kb, lb = len(factors), len(factors[0])
        total = FactoredRF(1)
        for i in range(m):
            for j in range(m):
                delta = factors[i % kb][j % lb]
                if delta is None:
                    return f"zero cell-factor at order {m}, block ({i},{j})"
                total = total * delta
        steps.append((m, total))
        rows = successor
    return steps


def _naive_orbit(period, steps):
    """The factors of an orbit walk, each block's once, or the message of
    the ZeroCellFactor its first zero block raises."""
    rows, out = period.entries, []
    for step in range(1, steps + 1):
        factors, rows = _reference_step(rows)
        total = FactoredRF(1)
        for i, row in enumerate(factors):
            for j, delta in enumerate(row):
                if delta is None:
                    return (f"zero cell-factor at orbit step {step}, "
                            f"block ({i},{j})")
                total = total * delta
        out.append(total)
    return out


def _or_message(fn):
    try:
        return fn()
    except ZeroCellFactor as exc:
        return str(exc)


def _converted_steps(inst):
    """The reduction rounds of inst, each round's counts as its factor."""
    orbit = aztec._kept_orbit(inst.period)
    return [(m, FactoredRF.from_counts(counts))
            for m, counts in orbit.reduction(inst.n, inst.n)]


@pytest.mark.parametrize("pool, sizes, trials, top", [
    pytest.param((0, 1, 2, 3, Fraction(1, 2)), ((2, 4, 6, 8),) * 2, 20, 8,
                 id="numeric"),
    pytest.param((0, 1, 2, "a", "a+1", "1/b"), ((2, 4),) * 2, 20, 8,
                 id="symbolic"),
    pytest.param((Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 5), ((4,), (6,)),
                 1, 16, id="generic-4x6"),
])
def test_count_tables_match_the_naive_block_products(pool, sizes, trials,
                                                     top):
    rng = random.Random(16)
    pool = [parse(e) if isinstance(e, str) else FactoredRF(e) for e in pool]
    for _ in range(trials):
        k, l = map(rng.choice, sizes)
        entries = rng.sample(pool, 4)
        p = PeriodMatrix([[rng.choice(entries) for _ in range(l)]
                          for _ in range(k)])
        aztec._LAST_ORBIT.clear()
        for n in range(1, top + 1):
            assert _or_message(lambda: _converted_steps(
                AztecInstance(n, p))) == _naive_steps(p, n)
        aztec._LAST_ORBIT.clear()
        report = _or_message(lambda: detect_proportional(p, max_iter=3))
        expected = _naive_orbit(p, 3)
        if isinstance(report, str):
            assert report == expected
        else:
            steps = len(report.per_step_factors)
            assert report.per_step_factors == expected[:steps]


def test_detection_and_recurrence_read_the_walked_orbit(monkeypatch):
    period, n_period = checkered_period(), dungeon_period_N()
    aztec._LAST_ORBIT.clear()
    q_shift = detect_q_shift(period).to_json()
    aztec._LAST_ORBIT.clear()
    constant = recurrence_constant(n_period, 14, 12, factored=True)
    calls = _count_cell_moves(monkeypatch)
    aztec._LAST_ORBIT.clear()
    for n in [*range(1, 16), *range(31, 36)]:
        evaluate(AztecInstance(n, period))
    assert len(calls) == 229
    calls.clear()
    assert detect_q_shift(period).to_json() == q_shift
    assert calls == []
    detect_proportional(n_period)
    calls.clear()
    assert recurrence_constant(n_period, 14, 12, factored=True) == constant
    assert calls == []


def _result(fn):
    """A value or an OrbitReport's JSON, or the message fn raises."""
    try:
        value = fn()
    except (ZeroCellFactor, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return value.to_json() if hasattr(value, "to_json") else value


def test_detection_and_recurrence_do_not_depend_on_the_kept_orbit():
    rng = random.Random(4)
    weights = [Fraction(w, 2) for w in (0, 1, 2, 3, 4, 6)]
    for _ in range(150):
        k, l = rng.choice((4, 6, 8)), rng.choice((2, 4, 6, 8))
        p = PeriodMatrix([[rng.choice(weights) for _ in range(l)]
                          for _ in range(k)])
        calls = [lambda: recurrence_constant(p, 3, 1, factored=True),
                 lambda: recurrence_constant(p, 3, 2, factored=True),
                 lambda: recurrence_constant(p, 2, 2, factored=True),
                 lambda: detect_proportional(p, max_iter=3),
                 lambda: detect_q_shift(p, max_iter=3)]
        cold = []
        for fn in calls:
            aztec._LAST_ORBIT.clear()
            cold.append(_result(fn))
        # the orders leave a kept orbit walked to step 3, from the first
        # order or step by step; the recurrences and searches read it
        for orders in ((1, 2, 3), (3, 2, 1)):
            aztec._LAST_ORBIT.clear()
            for n in orders:
                _outcome(AztecInstance(n, p))
            assert [_result(fn) for fn in calls] == cold


def test_reduce_step_identity():
    p = PeriodMatrix.from_strings([["2", "3"], ["5", "7"]])
    inst = AztecInstance(3, p)
    factor, succ = reduce_step(inst)
    assert succ.n == 2
    lhs = oracle_mgf(to_graph(inst))
    rhs = factor * oracle_mgf(to_graph(succ))
    assert lhs == rhs


def test_reduce_step_successor_is_the_shuffle_of_the_read_part():
    p = PeriodMatrix([[1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1]])
    factor, succ = reduce_step(AztecInstance(1, p))
    assert factor == RF.const(2)
    assert (succ.n, succ.period.k, succ.period.l) == (0, 2, 2)
    assert all(e is not None for row in succ.period.entries for e in row)
    assert succ.period == shuffle(
        PeriodMatrix([row[:2] for row in p.entries[:2]]))


def test_reduce_step_matches_the_oracle_on_random_periods():
    rng = random.Random(17)
    weights = [Fraction(w, 2) for w in (0, 1, 2, 3, 4, 6)]
    for _ in range(40):
        k, l = rng.choice((2, 4, 6, 8)), rng.choice((2, 4, 6, 8))
        p = PeriodMatrix([[rng.choice(weights) for _ in range(l)]
                          for _ in range(k)])
        for n in (1, 2, 3):
            inst = AztecInstance(n, p)
            try:
                factor, succ = reduce_step(inst)
            except ZeroCellFactor as exc:
                # evaluation's first round is the same reduction
                with pytest.raises(ZeroCellFactor) as first:
                    evaluate(inst)
                assert str(first.value) == str(exc)
                continue
            assert succ.n == n - 1
            assert factor * oracle_mgf(to_graph(succ)) == \
                oracle_mgf(to_graph(inst))


def test_trace_product_equals_value():
    inst = AztecInstance(4, PeriodMatrix.from_strings([["a", "b"],
                                                      ["c", "d"]]))
    val, steps = evaluate(inst)
    assert math.prod((f.to_rf() for _, f in steps), start=RF.const(1)) == val
    assert [order for order, _ in steps] == [4, 3, 2, 1]


def test_evaluate_factored_agrees():
    inst = AztecInstance(5, PeriodMatrix.from_strings([["a", "b"],
                                                      ["c", "d"]]))
    assert evaluate_factored(inst).to_rf() == evaluate(inst)[0]


def test_comparing_with_expanded_value_never_factors(monkeypatch):
    inst = AztecInstance(4, weighted_dungeon_period_M())
    value = evaluate_factored(inst)
    expected = oracle_mgf(to_graph(inst))
    calls = []
    monkeypatch.setattr(rational, "poly_factor",
                        lambda p, factor=rational.poly_factor:
                        calls.append(p) or factor(p))
    assert value == expected
    assert calls == []


def test_to_graph_expands_each_entry_once(monkeypatch):
    calls = []
    monkeypatch.setattr(FactoredRF, "to_rf",
                        lambda self, to_rf=FactoredRF.to_rf:
                        calls.append(1) or to_rf(self))
    g = to_graph(AztecInstance(4, hexsquare_period()))
    # 12 distinct entries of the 2x6 period, 64 edges
    assert len(calls) == 12
    assert len(g.weights) == 64


def test_order_zero():
    val, steps = evaluate(AztecInstance(0, PeriodMatrix.constant(7)))
    assert val == RF.const(1) and steps == []


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
