"""Orbit structure of period matrices under repeated shuffling."""

import random
from fractions import Fraction

import pytest

from matchgen.aztec import (AztecInstance, PeriodMatrix, ZeroCellFactor,
                            evaluate, evaluate_factored, to_graph)
from matchgen.exprs import parse
from matchgen.families import checkered_period, dungeon_period_N
from matchgen.graphs import oracle_mgf
from matchgen import aztec, orbit
from matchgen.orbit import (class_exponent, detect_orbit, detect_proportional,
                            detect_q_shift, equivalence_reduce,
                            ledger_multiplier, line_edge_count,
                            proportionality_scalar, recurrence_constant)
from matchgen.rational import FactoredRF
from matchgen.rational import RationalFunction as RF


def test_constant_period_is_a_fixed_point_up_to_scale():
    rep = detect_proportional(PeriodMatrix.constant(1))
    assert rep.kind == "proportional"
    assert rep.period_length == 1
    assert rep.scalar == RF.const(Fraction(1, 2))
    rep2 = detect_proportional(PeriodMatrix.constant(3))
    assert rep2.kind == "proportional" and rep2.period_length == 1


def generic_4x4():
    names = "abcdefghijklmnop"
    return PeriodMatrix.from_strings(
        [[names[4 * i + j] for j in range(4)] for i in range(4)])


def test_any_2x2_period_is_proportional_in_one_step():
    p = PeriodMatrix.from_strings([["a", "b"], ["c", "d"]])
    rep = detect_proportional(p, max_iter=1)
    assert rep.kind == "proportional" and rep.period_length == 1
    assert rep.scalar == RF.const(1) / parse("a*d+b*c")


def test_generic_symbolic_period_has_no_short_orbit():
    rep = detect_proportional(generic_4x4(), max_iter=2)
    assert rep.kind == "none"
    assert len(rep.per_step_factors) == 2


def test_dungeon_period_returns_after_twelve_steps():
    rep = detect_proportional(dungeon_period_N())
    assert rep.kind == "proportional"
    assert rep.period_length == 12
    k0 = parse("y^4*(x^3+x*y^2+1)^4*(x^4+2*x^2*y^2+y^4+x)^4") / \
        parse("(x^2+y^2)^4"
              "*(x^6+3*x^4*y^2+3*x^2*y^4+y^6+2*x^3+2*x*y^2+1)^4")
    assert FactoredRF.from_rf(rep.scalar) == FactoredRF.from_rf(k0)


def test_q_shift_detection():
    rep = detect_q_shift(checkered_period())
    assert rep.kind == "q_shift"
    assert rep.period_length == 30
    assert rep.sigma == 9
    # on a constant matrix the substitution is trivial; sigma must be 1
    crep = detect_q_shift(PeriodMatrix.constant(2))
    assert crep.kind == "q_shift" and crep.sigma == 1


def test_q_shift_reads_the_variable_off_the_period():
    t_period = checkered_period().substitute({"q": RF.var("t")})
    rep = detect_q_shift(t_period)
    assert (rep.kind, rep.period_length, rep.sigma) == ("q_shift", 30, 9)
    with pytest.raises(ValueError, match="at most one variable"):
        detect_q_shift(PeriodMatrix.from_strings([["a", "b"], ["1", "1"]]))


@pytest.mark.parametrize("q, expected", [
    ("u^2", ("q_shift", 30, 3)),
    ("1/u", ("q_shift", 30, Fraction(1, 9))),
    ("2*u", ("q_shift", 30, 9)),
    # 9^(1/3) is irrational, so no step reads a rational sigma off the period
    ("u^3", ("none", 0, None)),
])
def test_q_shift_reads_sigma_off_the_period(q, expected):
    period = checkered_period().substitute({"q": parse(q)})
    rep = detect_q_shift(period)
    assert (rep.kind, rep.period_length, rep.sigma) == expected
    assert len(rep.per_step_factors) == (rep.period_length or 40)


REFERENCE_SIGMAS = sorted({Fraction(a, b) for a in range(1, 13)
                           for b in range(1, 13)})


def _reference_q_shift(period, steps):
    """The first (k, sigma) with k <= steps and shuffle^k(A(q)) = A(sigma q)
    among sigma = a/b, 1 <= a, b <= 12, by substituting the whole period;
    the kept orbit of period must be walked to `steps`."""
    [q] = period.variables()
    shifted = {sigma: period.substitute({q: RF.const(sigma) * RF.var(q)})
               for sigma in REFERENCE_SIGMAS}
    periods = aztec._kept_orbit(period).periods
    for k in range(1, steps + 1):
        for sigma, p in shifted.items():
            if PeriodMatrix(periods[k]) == p:
                return k, sigma
    return None


def test_q_shift_matches_a_brute_force_reference():
    rng = random.Random(25)
    pool = [parse(s) for s in ("1", "2", "1/2", "q", "2*q", "q^2", "1/q",
                               "q+1", "(q+2)/q", "q/3")]
    hits = 0
    for _ in range(8):
        size = rng.choice((2, 4))
        entries = rng.sample(pool, 2)
        period = PeriodMatrix([[rng.choice(entries) for _ in range(size)]
                               for _ in range(size)])
        if len(period.variables()) != 1:
            continue
        aztec._LAST_ORBIT.clear()
        rep = detect_q_shift(period, max_iter=6)
        expected = None
        if rep.kind == "q_shift":
            hits += 1
            k, sigma = rep.period_length, rep.sigma
            # the hit checks out by direct substitution
            assert PeriodMatrix(aztec._kept_orbit(period).periods[k]) == \
                period.substitute({"q": RF.const(sigma) * RF.var("q")})
            expected = (k, sigma) if sigma in REFERENCE_SIGMAS else None
        # the steps up to the hit, or all 6, are walked: no reference sigma
        # matches earlier, and the reported one matches at the hit
        assert _reference_q_shift(period, rep.period_length or 6) == expected
    assert hits


def test_q_shift_search_without_a_match():
    # each step reads one sigma off the first entry with q, and up to step
    # 29 no such sigma holds for every entry
    rep = detect_q_shift(checkered_period(), max_iter=29)
    assert rep.kind == "none"
    assert len(rep.per_step_factors) == 29


def test_q_shift_substitutes_only_compared_entries(monkeypatch):
    calls = []
    for cls in (RF, FactoredRF):
        monkeypatch.setattr(
            cls, "substitute",
            lambda self, b, substitute=cls.substitute:
            calls.append(1) or substitute(self, b))
    rep = detect_q_shift(checkered_period())
    assert (rep.kind, rep.period_length, rep.sigma) == ("q_shift", 30, 9)
    # one substitution per candidate and distinct entry compared: the 20x20
    # period has 8 distinct entries, and a full shifted copy per candidate
    # would be 400 substitutions each
    assert len(calls) <= 41


@pytest.mark.parametrize("rows, step", [
    ([[1, 1], [1, -1]], 1),
    ([[1, -1, -1, -1], [-1, 1, 2, -1]], 2),
])
def test_zero_block_names_orbit_step(rows, step):
    for detect in (detect_proportional, detect_q_shift):
        with pytest.raises(ZeroCellFactor) as exc:
            detect(PeriodMatrix(rows))
        assert exc.value.step == step
        assert exc.value.order is None
        assert exc.value.block == (0, 0)
        assert str(exc.value) == \
            f"zero cell-factor at orbit step {step}, block (0,0)"


def test_proportionality_scalar():
    a = PeriodMatrix.from_strings([["a", "0"], ["b", "c"]])
    b = a.map(lambda e: e * parse("x"))
    assert proportionality_scalar(a, b) == parse("x")
    # mismatched zero patterns are never proportional
    c = PeriodMatrix.from_strings([["a", "1"], ["b", "c"]])
    assert proportionality_scalar(a, c) is None
    assert proportionality_scalar(
        a, PeriodMatrix.from_strings([["a", "0"], ["b", "2*c"]])) is None


def test_recurrence_constant_all_ones():
    ones = PeriodMatrix.constant(1)
    assert recurrence_constant(ones, 2, 1) == RF.const(4)
    # M(AD_5) = K * M(AD_2) with K = 2^{15-3}
    k = recurrence_constant(ones, 5, 3)
    assert k == RF.const(2 ** 12)


def test_recurrence_constant_at_an_order_that_cuts_the_period():
    # order 1 reads only the top-left 2x2 part of a 4x4 period
    assert recurrence_constant(PeriodMatrix.constant(1, 4, 4), 1, 1) == \
        RF.const(2)


def test_recurrence_constant_when_the_rounds_cut_the_period():
    # every block factor is 3 and shuffle(a) = a/3; order 3 reads 6 of the
    # 8 rows, and only the part order 2 reads of the reached period is
    # compared with a
    rows = [[2, 1, 1, 1], [1, 1, 1, 2], [1, 1, 2, 1], [1, 2, 1, 1]] * 2
    a = PeriodMatrix(rows)
    const = recurrence_constant(a, 3, 1)
    v3, _ = evaluate(AztecInstance(3, a))
    v2, _ = evaluate(AztecInstance(2, a))
    assert v3 == const * v2


def test_recurrence_constant_validates_against_pipeline():
    n, k = 4, 2
    p = PeriodMatrix.from_strings([["2", "1"], ["1", "3"]])
    const = recurrence_constant(p, n, k)
    vn, _ = evaluate(AztecInstance(n, p))
    vk, _ = evaluate(AztecInstance(n - k, p))
    assert vn == const * vk


def test_recurrence_constant_factored_dungeon():
    const = recurrence_constant(dungeon_period_N(), 14, 12, factored=True)
    big = evaluate_factored(AztecInstance(14, dungeon_period_N()))
    small = evaluate_factored(AztecInstance(2, dungeon_period_N()))
    assert big == const * small


def test_recurrence_constant_rejects_non_returning_period():
    rows = [["1", "2", "3", "4"], ["5", "6", "7", "8"],
            ["9", "1", "2", "3"], ["4", "5", "6", "7"]]
    with pytest.raises(ValueError):
        recurrence_constant(PeriodMatrix.from_strings(rows), 3, 1)


def test_recurrence_constant_needs_n_at_least_k():
    with pytest.raises(ValueError, match="need n >= k >= 1"):
        recurrence_constant(PeriodMatrix.constant(1), 1, 2)


def test_periods_of_different_shapes_are_not_proportional():
    assert proportionality_scalar(PeriodMatrix.constant(1),
                                  PeriodMatrix.constant(1, 4, 4)) is None


def test_line_edge_counts_sum_to_matching_size():
    for n in (1, 2, 3, 5):
        total = sum(line_edge_count(r, n) for r in range(1, 2 * n + 1))
        assert total == n * (n + 1)


def test_class_exponent_matches_direct_sum():
    n, size = 5, 4
    for idx in range(size):
        direct = sum(line_edge_count(r, n) for r in range(1, 2 * n + 1)
                     if (r - 1) % size == idx)
        assert class_exponent(idx, size, n) == direct


def test_equivalence_reduce_round_trip():
    p = PeriodMatrix.from_strings([["2*a", "4*a"], ["b", "3*b"]])
    reduced, ledger = equivalence_reduce(p)
    # pivots become 1 after scaling
    assert reduced.entries[0][0] == RF.const(1)
    n = 3
    mult = ledger_multiplier(ledger, p.k, p.l, n)
    orig = oracle_mgf(to_graph(AztecInstance(n, p)))
    red = oracle_mgf(to_graph(AztecInstance(n, reduced)))
    assert red == mult * orig


def test_equivalence_reduce_is_idempotent():
    p = PeriodMatrix.from_strings([["1", "x"], ["1", "y"]])
    reduced, ledger = equivalence_reduce(p)
    again, ledger2 = equivalence_reduce(reduced)
    assert again == reduced


def test_detect_orbit_runs_q_shift_only_without_a_proportional_hit(
        monkeypatch):
    def no_q_shift(*args):
        raise AssertionError("detect_q_shift ran after a proportional hit")

    monkeypatch.setattr(orbit, "detect_q_shift", no_q_shift)
    rep = detect_orbit(PeriodMatrix.from_strings([["q", "q"], ["q", "q"]]))
    assert rep.to_json() == ('{"kind": "proportional", "k": 1, "scalar": '
                             '"(1/2)/(q^2)", "per_step_factors": ["2*q^2"]}')


def test_detect_orbit_without_a_hit_reports_every_step():
    p = PeriodMatrix.from_strings([["q", "1", "2", "1"], ["1", "2", "1", "q"],
                                   ["2", "1", "q", "1"], ["1", "q", "1", "3"]])
    rep = detect_orbit(p, max_iter=3)
    assert rep.kind == "none" and len(rep.per_step_factors) == 3


def test_detect_orbit_walks_the_orbit_once(monkeypatch):
    aztec._LAST_ORBIT.clear()
    q_shift = detect_q_shift(checkered_period()).to_json()
    walked = []
    step = aztec._step
    monkeypatch.setattr(aztec, "_step",
                        lambda rows: walked.append(1) or step(rows))
    aztec._LAST_ORBIT.clear()
    rep = detect_orbit(checkered_period())
    # detect_proportional walks all 40 steps without a hit, and
    # detect_q_shift reads the steps it needs off the kept orbit
    assert len(walked) == 40
    assert rep.to_json() == q_shift
    assert detect_orbit(PeriodMatrix.constant(2)).to_json() == \
        detect_proportional(PeriodMatrix.constant(2)).to_json()
