"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single [PASS]/[FAIL] line for its criterion.  The
squares-and-hexagons criterion is split: the verified closed form passes,
while the historical uniform-exponent claim is kept as a strict expected
failure backed by exhaustive enumeration.
"""

import random
from fractions import Fraction

import pytest

from matchgen.aztec import AztecInstance, PeriodMatrix, evaluate, to_graph
from matchgen.exprs import parse
from matchgen.families import family_value
from matchgen.graphs import oracle_mgf
from matchgen.rational import RationalFunction as RF
from matchgen.verify import (suite_aztec_basic, suite_checkered,
                             suite_cellular_random, suite_class_counts,
                             suite_dragon, suite_dungeon, suite_dungeon_e,
                             suite_hexsquare, suite_orbit, suite_duplicate_pattern,
                             suite_weighted_dungeon, suite_quad_pattern)


def run_suite(label, suite_fn, budget=None, **kwargs):
    res = suite_fn(**kwargs)
    mark = "PASS" if res.passed else "FAIL"
    print(f"[{mark}] {label}: {len(res.cases)} cases "
          f"in {res.wall_time:.2f}s")
    failed = [c.case_id for c in res.cases if not c.passed]
    assert not failed, f"{label} failed cases: {failed}"
    if budget is not None:
        assert res.wall_time < budget, (
            f"{label} took {res.wall_time:.2f}s, budget {budget}s")


def test_criterion_01_all_ones_powers_of_two():
    run_suite("criterion-01 all-ones counts", suite_aztec_basic, budget=1.0)


def test_criterion_02_random_periods_match_oracle():
    rng = random.Random(20260823)
    passed = 0
    for trial in range(50):
        size = 2 if rng.random() < 0.6 else 4
        n = rng.randint(1, 4)
        entries = [[RF.const(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                    for _ in range(size)] for _ in range(size)]
        inst = AztecInstance(n, PeriodMatrix(entries))
        value, _ = evaluate(inst)
        assert value == oracle_mgf(to_graph(inst)), \
            f"trial {trial}: size {size}, order {n}"
        passed += 1
    print(f"[PASS] criterion-02 pipeline vs oracle: {passed}/50")


def test_criterion_03_cellular_completions():
    run_suite("criterion-03 cellular completions", suite_cellular_random,
              trials=100, seed=0)


def test_criterion_04_dungeon_d():
    run_suite("criterion-04 dungeon D", suite_dungeon, budget=120.0)


def test_criterion_05_shuffle_orbit_identities():
    run_suite("criterion-05 orbit identities", suite_orbit)


def test_criterion_06_weighted_dungeon_values():
    run_suite("criterion-06 weighted diamond values", suite_weighted_dungeon)


def test_criterion_07_dungeon_e():
    run_suite("criterion-07 dungeon E", suite_dungeon_e)


def test_criterion_08_quad_pattern_machinery():
    run_suite("criterion-08 quad-pattern recurrence", suite_quad_pattern)


def test_criterion_09_duplicate_pattern_machinery():
    run_suite("criterion-09 duplicate-pattern recurrence", suite_duplicate_pattern)


def test_criterion_10_hexsquare_closed_form():
    run_suite("criterion-10 squares-and-hexagons closed form",
              suite_hexsquare)


@pytest.mark.xfail(strict=True,
                   reason="the uniform exponent n(n+1) and the odd-even "
                          "equality both fail at region order 4; refuted "
                          "by exhaustive enumeration (see the hexsquare "
                          "suite's counterexample cases)")
def test_criterion_10_historical_uniform_exponent_claim():
    base = parse("1+a^2")
    for n in range(1, 6):
        even = family_value("hexsquare", n)
        assert even == base ** (n * (n + 1))


def test_criterion_11_dragon():
    run_suite("criterion-11 dragon", suite_dragon)


def test_criterion_12_checkered_pattern():
    run_suite("criterion-12 checkered 20x20 pattern", suite_checkered,
              budget=120.0)


def test_criterion_13_class_count_lemmas():
    run_suite("criterion-13 line class counts", suite_class_counts)
