"""Named weight-pattern families and their closed forms."""

import pytest

from matchgen import families, rational
from matchgen.aztec import (AztecInstance, PeriodMatrix, evaluate,
                            evaluate_factored, to_graph)
from matchgen.exprs import parse
from matchgen.families import (FAMILY_NAMES, ColumnPairMatrix,
                               checkered_closed_form,
                               checkered_count, checkered_period, dragon_unit_period,
                               family_value,
                               hexsquare_closed_form, duplicate_step,
                               duplicate_value, weighted_dungeon_period_M,
                               quad_step, quad_value)
from matchgen.graphs import oracle_mgf
from matchgen.rational import FactoredRF
from matchgen.rational import RationalFunction as RF

P = "(x^6+3*x^4*y^2+3*x^2*y^4+y^6+2*x^3+2*x*y^2+1)"


def test_dungeon_d_symbolic_values():
    expected = ["1", "x^2+y^2", f"x^2*y^2*{P}", f"x^6*y^6*{P}^3"]
    for n, s in enumerate(expected):
        assert family_value("dungeon-D", n) == parse(s)


def test_dungeon_d_counts():
    ones = {"x": RF.const(1), "y": RF.const(1)}
    counts = [1, 2, 13, 13 ** 3, 2 * 13 ** 5, 13 ** 8]
    # two periods of the 6-step recurrence T(n) = 13^(4n-12) * T(n-6)
    for n in range(6, 13):
        counts.append(13 ** (4 * n - 12) * counts[n - 6])
    for n, c in enumerate(counts):
        assert family_value("dungeon-D", n, ones) == RF.const(c)


def test_dungeon_d_order_16_expands_by_the_recurrence(monkeypatch):
    # y^310*x^170*(x^2+y^2)*P^85, whose P^85 (21,931 terms) took repeated
    # squaring 15 s
    counts = [1, 2, 13, 13 ** 3, 2 * 13 ** 5, 13 ** 8]
    for n in range(6, 17):
        counts.append(13 ** (4 * n - 12) * counts[n - 6])
    value = family_value("dungeon-D", 16)
    ones = {"x": RF.const(1), "y": RF.const(1)}
    assert value.substitute(ones) == RF.const(counts[16])
    base = parse(P).num
    # no packed product at all: repeated squaring would square through it
    products = []
    packed_sum = rational._packed_sum
    monkeypatch.setattr(rational, "_packed_sum",
                        lambda pairs: products.append(pairs) or
                        packed_sum(pairs))
    assert len((base ** 85).terms) == 21931
    assert not products


def test_dungeon_e_counts():
    counts = [1, 2 * 13, 13 ** 3, 13 ** 5]
    for n, c in enumerate(counts):
        assert family_value("dungeon-E", n) == RF.const(c)


def test_dungeon_e_recurrence_to_order_64():
    counts = [family_value("dungeon-E", n) for n in range(65)]
    for n in range(6, 65):
        assert counts[n] == RF.const(13 ** (4 * n - 8)) * counts[n - 6]


def test_dungeon_spec_validation():
    with pytest.raises(ValueError):
        family_value("dungeon-F", 1)
    for family in FAMILY_NAMES:
        with pytest.raises(ValueError, match="order must be nonnegative"):
            family_value(family, -1)


def test_weighted_dungeon_small_orders():
    period = weighted_dungeon_period_M()
    v1, _ = evaluate(AztecInstance(1, period))
    assert v1 == parse("d*e")
    v2, _ = evaluate(AztecInstance(2, period))
    assert v2 == parse("a*b*(a*b*g*h+a*c*f*g+b*d*e*h+2*c*d*e*f)")


def quad(rows):
    return ColumnPairMatrix([[parse(x), parse(y)] for x, y in rows], "quad")


def dup(rows):
    return ColumnPairMatrix([[parse(x), parse(y)] for x, y in rows],
                          "duplicate")


def test_quad_value_matches_pipeline_and_oracle():
    t = quad([["u^2", "v^2"], ["v^2", "u^2"],
              ["w^2", "u^2"], ["u^2", "w^2"]])
    inst = t.instance()
    val = quad_value(t)
    assert val == evaluate(inst)[0]
    assert val == oracle_mgf(to_graph(inst))


def test_quad_step_lowers_order():
    t = quad([["u^2", "v^2"]] * 2 + [["v^2", "u^2"]] * 2
             + [["u^2", "u^2"]] * 2)
    r = quad_step(t)
    assert r.order == t.order - 1
    with pytest.raises(ValueError):
        quad_step(quad([["u^2", "v^2"], ["v^2", "u^2"]]))
    with pytest.raises(ValueError):
        quad_step(dup([["u", "v"]] * 4))


def test_quad_pattern_rejects_zero_entries():
    with pytest.raises(ValueError):
        quad([["u^2", "0"], ["v^2", "u^2"]])


def test_duplicate_value_matches_pipeline_and_oracle():
    t = dup([["u", "v"], ["v", "u"], ["w", "u"], ["u", "w"]])
    inst = t.instance()
    val = duplicate_value(t)
    assert val == evaluate(inst)[0]
    assert val == oracle_mgf(to_graph(inst))


def test_duplicate_step_drops_two_orders():
    t = dup([["u", "v"]] * 6)
    s = duplicate_step(t)
    assert s.order == t.order - 2
    with pytest.raises(ValueError):
        duplicate_step(dup([["u", "v"]] * 4))
    with pytest.raises(ValueError):
        duplicate_step(quad([["u", "v"]] * 6))


def test_hexsquare_closed_form():
    for m in range(8):
        got = FactoredRF.from_rf(family_value("hexsquare", m))
        assert got == hexsquare_closed_form(2 * m)


def test_hexsquare_exponent_is_not_n_times_n_plus_1():
    # at region order 4 the old exponent guess n(n+1) would give
    # (1+a^2)^6; the actual value differs
    actual = family_value("hexsquare", 2)
    assert actual != parse("1+a^2") ** 6
    assert actual == hexsquare_closed_form(4)


def test_dragon_values_and_counts():
    for n in range(4):
        assert family_value("dragon", n) == parse("1+a^2") ** (n * (n + 1))
    assert dragon_unit_period() == PeriodMatrix.from_strings([
        ["1", "1", "1", "1"], ["1", "0", "1", "1"],
        ["0", "1", "1", "1"], ["1", "1", "1", "1"]])
    for n in range(1, 5):
        v, _ = evaluate(AztecInstance(2 * n, dragon_unit_period()))
        assert v == RF.const(2 ** (n * (n + 1)))


def test_checkered_seeds_and_recurrence():
    assert checkered_count(3) == RF.const(6)
    assert checkered_count(7) == RF.const(27)
    assert checkered_count(31) == RF.const(3 ** (4 * 12)) * checkered_count(1)
    for n in (1, 5, 12, 31, 44):
        q1 = checkered_closed_form(n).substitute({"q": RF.const(1)})
        assert q1 == checkered_count(n)


def test_checkered_pipeline_matches_closed_form():
    for n in range(7):
        v, _ = evaluate(AztecInstance(n, checkered_period()))
        assert v == checkered_closed_form(n)


def test_checkered_factored_values_to_order_300():
    period = checkered_period()
    for n in range(1, 301):
        assert evaluate_factored(AztecInstance(n, period)) == \
            checkered_closed_form(n)


def test_checkered_counts_past_two_q_shift_periods():
    one = {"q": RF.const(1)}
    for n in range(1, 61):
        assert family_value("checkered", n, one) == checkered_count(n)


def test_checkered_period_zero_pattern():
    p = checkered_period()
    zeros = sum(1 for row in p.entries for e in row if e.is_zero())
    assert zeros == 120


@pytest.mark.parametrize("family,orders,name,values", [
    ("checkered", (3, 7, 12), "q", ("-1", "1/3", "2", "-3")),
    ("dragon", (0, 1, 3), "a", ("0", "-1", "-1/2", "2")),
    ("hexsquare", (1, 2, 4), "a", ("0", "1", "-1/2", "2")),
])
def test_family_binds_like_binding_the_period_first(family, orders, name,
                                                    values):
    # the reference binds the period first, then runs the pipeline
    period = families._family_period(family)
    diamond = 1 if family == "checkered" else 2
    for n in orders:
        for text in values:
            bindings = {name: parse(text)}
            first, _ = evaluate(AztecInstance(diamond * n,
                                              period.substitute(bindings)))
            assert family_value(family, n, bindings) == first, (n, text)


def test_family_dispatcher_errors():
    with pytest.raises(ValueError):
        family_value("nonesuch", 2)


def test_family_value_builds_each_period_once(monkeypatch):
    families._family_period.cache_clear()
    calls = []
    from_strings = PeriodMatrix.from_strings
    monkeypatch.setattr(PeriodMatrix, "from_strings", staticmethod(
        lambda rows: calls.append(rows) or from_strings(rows)))
    ones = {"x": RF.const(1), "y": RF.const(1)}
    assert family_value("dungeon-D", 2, ones) == RF.const(13)
    family_value("dungeon-D", 3)
    assert len(calls) == 1
