"""The matchgen command line, run in process and as `python -m matchgen`."""

import hashlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from matchgen.aztec import AztecInstance, PeriodMatrix, evaluate, to_graph
from matchgen.cli import (MAX_ITER, MAX_TRIALS, _integer_factorization,
                          build_parser, main)
from matchgen.exprs import parse
from matchgen.families import checkered_period, dungeon_period_N
from matchgen.graphs import WeightedGraph, graph_to_json, oracle_mgf
from matchgen.orbit import DEFAULT_MAX_ITER
from matchgen.rational import FactoredRF
from matchgen.rational import RationalFunction as RF


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out.splitlines()[-1])


def period_file(tmp_path, rows, name="period.json"):
    path = tmp_path / name
    path.write_text(PeriodMatrix.from_strings(rows).to_json())
    return str(path)


def test_compute_family_count(capsys):
    code, data = run_json(capsys, "compute", "--family", "dungeon-D",
                          "--n", "2", "--bind", "x=1,y=1")
    assert code == 0
    assert data["value"] == "13"
    assert data["factorization"] == [[13, 1]]


def test_compute_family_symbolic_has_no_factorization(capsys):
    code, data = run_json(capsys, "compute", "--family", "dragon",
                          "--n", "1")
    assert code == 0
    assert parse(data["value"]) == parse("(1+a^2)^2")
    assert "factorization" not in data


def test_compute_period_with_trace(capsys, tmp_path):
    path = period_file(tmp_path, [["1", "1"], ["1", "1"]])
    code, data = run_json(capsys, "compute", "--period", path,
                          "--n", "3", "--trace")
    assert code == 0
    assert data["value"] == "64"
    factors = [parse(step["factor"]) for step in data["trace"]]
    prod = parse("1")
    for f in factors:
        prod = prod * f
    assert prod == parse("64")
    assert [step["order"] for step in data["trace"]] == [3, 2, 1]


def test_compute_period_converts_steps_only_for_a_trace(capsys, tmp_path,
                                                       monkeypatch):
    """Without --trace the value is one conversion of the summed counts;
    a trace adds one per step."""
    calls, from_counts = [], FactoredRF.from_counts

    def counted(*counts):
        calls.append(counts)
        return from_counts(*counts)

    monkeypatch.setattr(FactoredRF, "from_counts", staticmethod(counted))
    path = period_file(tmp_path, [["1", "2"], ["3", "a"]])
    code, plain = run_json(capsys, "compute", "--period", path, "--n", "5")
    assert code == 0 and len(calls) == 1
    calls.clear()
    code, traced = run_json(capsys, "compute", "--period", path, "--n", "5",
                            "--trace")
    assert code == 0 and len(calls) == 6
    assert traced["value"] == plain["value"]


GENERIC_4X6 = [["1", "3", "1/2", "3/2", "1/2", "2"],
               ["2", "2", "5", "2", "1", "1/2"],
               ["2", "1/2", "2", "2", "3", "1/2"],
               ["5", "2", "3/2", "5", "1", "3"]]


def _constant(text):
    """A printed constant, read with no limit on its number of digits."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def test_compute_prints_numbers_of_more_than_4300_digits(capsys, tmp_path):
    """int.__str__ refuses them; the step factors of a generic numeric
    period pass that size at order 12."""
    path = period_file(tmp_path, GENERIC_4X6)
    code, data = run_json(capsys, "compute", "--period", path, "--n", "12",
                          "--trace")
    assert code == 0
    assert max(len(step["factor"]) for step in data["trace"]) > 4300
    value, steps = evaluate(AztecInstance(
        12, PeriodMatrix.from_strings(GENERIC_4X6)))
    assert _constant(data["value"]) == value.as_const()
    assert [_constant(step["factor"]) for step in data["trace"]] == \
        [f.coeff for _, f in steps]


def test_compute_period_with_bindings(capsys, tmp_path):
    path = period_file(tmp_path, [["a", "b"], ["c", "d"]])
    code, data = run_json(capsys, "compute", "--period", path, "--n", "3",
                          "--bind", "a=1,b=2,c=3,d=5")
    assert code == 0
    inst = AztecInstance(3, PeriodMatrix.from_strings([["1", "2"],
                                                       ["3", "5"]]))
    value, _ = evaluate(inst)
    assert parse(data["value"]) == value == oracle_mgf(to_graph(inst))
    assert "factorization" in data


def test_compute_trace_requires_period(capsys):
    code, data = run_json(capsys, "compute", "--family", "dragon",
                          "--n", "1", "--trace")
    assert code == 1
    assert data["error"]["kind"] == "ComputationError"


@pytest.mark.parametrize("source", ["period", "family"])
def test_compute_max_order_budget(capsys, tmp_path, source):
    if source == "period":
        args = ["--period", period_file(tmp_path, [["1", "1"], ["1", "1"]])]
    else:
        args = ["--family", "checkered"]
    code, data = run_json(capsys, "compute", *args,
                          "--n", "9", "--max-order", "8")
    assert code == 1
    assert "max-order" in data["error"]["message"]


def test_compute_missing_period_file(capsys):
    code, data = run_json(capsys, "compute", "--period", "/no/such/file",
                          "--n", "1")
    assert code == 1


def test_compute_bad_binding(capsys):
    code, data = run_json(capsys, "compute", "--family", "dragon",
                          "--n", "1", "--bind", "nonsense")
    assert code == 1


def test_compute_refuses_a_variable_bound_twice(capsys):
    code, data = run_json(capsys, "compute", "--family", "dungeon-D",
                          "--n", "2", "--bind", "x=1,x=2,y=1")
    assert code == 1
    assert data["error"]["kind"] == "ComputationError"
    assert "'x'" in data["error"]["message"]


def test_orbit_detects_proportional(capsys, tmp_path):
    path = period_file(tmp_path, [["1", "1"], ["1", "1"]])
    code, data = run_json(capsys, "orbit", "--period", path)
    assert code == 0
    assert data["kind"] == "proportional"
    assert data["k"] == 1


def test_orbit_none_on_generic_period(capsys, tmp_path):
    rows = [["a", "b", "c", "d"], ["e", "f", "g", "h"],
            ["i", "j", "k", "l"], ["m", "n", "o", "p"]]
    path = period_file(tmp_path, rows)
    code, data = run_json(capsys, "orbit", "--period", path,
                          "--max-iter", "2")
    assert code == 0
    assert data["kind"] == "none"


def test_verify_pass(capsys):
    code, out = run(capsys, "verify", "aztec-basic")
    assert code == 0
    assert "[PASS] aztec-basic/" in out
    data = json.loads(out.splitlines()[-1])
    assert data["passed"] is True


def test_verify_unknown_suite(capsys):
    code = main(["verify", "nonesuch"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown suite" in captured.err


def test_oracle(capsys, tmp_path):
    g = WeightedGraph()
    g.add_edge("a", "b", parse("w"))
    g.add_edge("b", "c", parse("x"))
    g.add_edge("c", "d", parse("y"))
    g.add_edge("d", "a", parse("z"))
    path = tmp_path / "graph.json"
    path.write_text(graph_to_json(g))
    code, data = run_json(capsys, "oracle", str(path))
    assert code == 0
    assert parse(data["value"]) == parse("w*y+x*z")
    assert "factorization" not in data


def test_python_m_matchgen(capsys, tmp_path):
    inst = AztecInstance(2, dungeon_period_N())
    path = tmp_path / "graph.json"
    path.write_text(graph_to_json(to_graph(inst)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "matchgen", "oracle", str(path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert main(["oracle", str(path)]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_oracle_factorization(capsys, tmp_path):
    inst = AztecInstance(2, PeriodMatrix.constant(1))
    path = tmp_path / "graph.json"
    path.write_text(graph_to_json(to_graph(inst)))
    code, data = run_json(capsys, "oracle", str(path))
    assert code == 0
    assert data == {"value": "8", "factorization": [[2, 3]]}


def test_integer_factorization():
    assert _integer_factorization(parse("360")) == [[2, 3], [3, 2], [5, 1]]
    assert _integer_factorization(parse("-7")) == [[7, 1]]
    assert _integer_factorization(parse("0")) is None
    assert _integer_factorization(parse("1")) == []


def test_integer_factorization_is_bounded():
    # two 30-digit primes: trial division leaves their composite product
    p, q = 100000000000000000000000000319, 300000000000000000000000000007
    start = time.perf_counter()
    assert _integer_factorization(RF.const(p * q)) is None
    assert time.perf_counter() - start < 1
    # one large prime factor is still found by the primality test
    assert _integer_factorization(RF.const(12 * q)) == [[2, 2], [3, 1],
                                                        [q, 1]]


@pytest.mark.parametrize("family,bind,name", [
    ("dungeon-E", "x=5", "x"), ("dragon", "z=5", "z"),
    ("dungeon-D", "x=1,y=1,a=2", "a")])
def test_compute_refuses_binding_the_family_lacks(capsys, family, bind, name):
    code, data = run_json(capsys, "compute", "--family", family,
                          "--n", "1", "--bind", bind)
    assert code == 1
    assert data["error"]["kind"] == "ValueError"
    assert repr(name) in data["error"]["message"]


def test_compute_refuses_binding_the_period_lacks(capsys, tmp_path):
    path = period_file(tmp_path, [["a", "1"], ["1", "a"]])
    code, data = run_json(capsys, "compute", "--period", path,
                          "--n", "2", "--bind", "a=2,b=3")
    assert code == 1
    assert data["error"]["kind"] == "ValueError"
    assert "'b'" in data["error"]["message"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--n", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite,trials", [
    ("cellular-random", 0), ("quad-pattern", -3),
    ("cellular-random", MAX_TRIALS + 1)])
def test_verify_trials_bounds(capsys, suite, trials):
    code, data = run_json(capsys, "verify", suite, "--trials", str(trials))
    assert code == 1
    assert data["error"]["kind"] == "ComputationError"
    assert "--trials" in data["error"]["message"]


@pytest.mark.parametrize("max_iter", [0, MAX_ITER + 1])
def test_orbit_max_iter_bounds(capsys, tmp_path, max_iter):
    path = period_file(tmp_path, [["1", "1"], ["1", "1"]])
    code, data = run_json(capsys, "orbit", "--period", path,
                          "--max-iter", str(max_iter))
    assert code == 1
    assert data["error"]["kind"] == "ComputationError"
    assert "--max-iter" in data["error"]["message"]


def test_orbit_max_iter_default_is_the_search_default():
    args = build_parser().parse_args(["orbit", "--period", "period.json"])
    assert args.max_iter == DEFAULT_MAX_ITER


@pytest.mark.parametrize("suite,flag", [
    ("aztec-basic", ["--trials", "5"]), ("dragon", ["--trials", "2"]),
    ("orbit", ["--seed", "1"])])
def test_verify_refuses_undeclared_flag(capsys, suite, flag):
    code, data = run_json(capsys, "verify", suite, *flag)
    assert code == 1
    assert data["error"]["kind"] == "ComputationError"
    assert flag[0] in data["error"]["message"]


def test_verify_has_no_slow_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "weighted-dungeon", "--slow"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --slow" in capsys.readouterr().err


def test_verify_declared_flags(capsys):
    code, data = run_json(capsys, "verify", "quad-pattern",
                          "--trials", "1", "--seed", "2")
    assert code == 0
    # one random matrix at each of orders 1..4 gives two cases each,
    # plus the row-drop check
    assert len(data["cases"]) == 9


@pytest.mark.parametrize("command,text,field", [
    pytest.param("compute", '{"k": 2, "l": 2, "entries": 5}', "entries",
                 id="entries-not-a-list"),
    pytest.param("compute", '{"k": 2, "l": 2, "entries": [[1, 2], [3, 4]]}',
                 "entries", id="entries-not-strings"),
    pytest.param("compute", '[1, 2]', "top level", id="period-not-an-object"),
    pytest.param("orbit", '{"k": 2, "l": 2, "entries": [[1, 2], [3, 4]]}',
                 "entries", id="orbit-entries-not-strings"),
    pytest.param("oracle", '{"vertices": [[1, 2]], "edges": []}', "vertices",
                 id="vertex-a-list"),
    pytest.param("oracle",
                 '{"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "w": 3}]}',
                 "w must", id="weight-not-a-string"),
])
def test_wrong_json_shape_is_a_json_error(capsys, tmp_path, command, text,
                                          field):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = {"compute": ["compute", "--period", str(path), "--n", "1"],
            "orbit": ["orbit", "--period", str(path)],
            "oracle": ["oracle", str(path)]}[command]
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert data["error"]["kind"] == "ComputationError"
    assert field in data["error"]["message"]


# Output pinned byte for byte: a JSON line in full, a longer one by the
# sha256 of everything printed.  orbit on period N prints 1.3 MB of
# expanded per-step factors; it pins the printed form of large products.
@pytest.mark.parametrize("argv,expected", [
    pytest.param(["compute", "--period", "abcd", "--n", "3", "--trace"],
                 "2bf13540a583ac3034641393f595a9e4"
                 "dc275280c102ec54f68b1d4186890a5b", id="compute-trace"),
    pytest.param(["orbit", "--period", "N"],
                 "22cf2fd5677f552c56f64d92837a457e"
                 "36acfc8ccc2b43650c45ce10e3bb318f", id="orbit-N"),
    pytest.param(["orbit", "--period", "qqqq"],
                 '{"kind": "proportional", "k": 1, "scalar": "(1/2)/(q^2)", '
                 '"per_step_factors": ["2*q^2"]}\n', id="orbit-proportional"),
    pytest.param(["orbit", "--period", "checkered"],
                 "8de27ae55825aefe7ca3f6cec7f9006405a446fc"
                 "4cb98319ef4be9b61aa154d9", id="orbit-q-shift"),
    # x^a*y^b*(x^2+y^2)^c*P^d expanded: pins the printed graded-lex order
    pytest.param(["compute", "--family", "dungeon-D", "--n", "12"],
                 "9902f88fb04ab4c98adf8b684f5bc2c4"
                 "08b541f55dcc5745798abf9a3c6e0c24", id="dungeon-D-12"),
    pytest.param(["compute", "--family", "checkered", "--n", "12",
                  "--bind", "q=2"], '{"value": "6561/4"}\n',
                 id="checkered-family"),
    pytest.param(["compute", "--family", "dragon", "--n", "3", "--bind", "a=1"],
                 '{"value": "4096", "factorization": [[2, 12]]}\n',
                 id="dragon-family"),
    pytest.param(["oracle", "N"],
                 '{"value": "(x^8*y^6+3*x^6*y^8+3*x^4*y^10+x^2*y^12'
                 '+2*x^5*y^6+2*x^3*y^8+x^2*y^6)/(x^8+4*x^6*y^2'
                 '+6*x^4*y^4+4*x^2*y^6+y^8)"}\n', id="oracle-N3"),
    pytest.param(["compute", "--period", "zero-block", "--n", "1", "--trace"],
                 '{"value": "2", "factorization": [[2, 1]], "trace": '
                 '[{"order": 1, "factor": "2"}]}\n', id="unused-zero-block"),
    pytest.param(["compute", "--period", "zero-block", "--n", "2"],
                 '{"error": {"kind": "ZeroCellFactor", "message": '
                 '"zero cell-factor at order 2, block (1,0)"}}\n',
                 id="used-zero-block"),
])
def test_golden_output(capsys, tmp_path, argv, expected):
    # block (1,0) of zero-block is zero; only orders 2 and up read it
    periods = {"abcd": PeriodMatrix.from_strings([["a", "b"], ["c", "d"]]),
               "N": dungeon_period_N(),
               "qqqq": PeriodMatrix.from_strings([["q", "q"], ["q", "q"]]),
               "checkered": checkered_period(),
               "zero-block": PeriodMatrix([[1, 1, 1, 1], [1, 1, 1, 1],
                                           [0, 0, 1, 1], [1, 1, 1, 1]])}
    if "--period" in argv:
        i = argv.index("--period") + 1
        path = tmp_path / "period.json"
        path.write_text(periods[argv[i]].to_json())
        argv = argv[:i] + [str(path)] + argv[i + 1:]
    if argv[0] == "oracle":
        # the oracle reads the order-3 graph of the named period
        path = tmp_path / "graph.json"
        path.write_text(graph_to_json(to_graph(
            AztecInstance(3, periods[argv[1]]))))
        argv = ["oracle", str(path)]
    assert main(argv) == (1 if expected.startswith('{"error"') else 0)
    out = capsys.readouterr().out
    if not expected.startswith("{"):
        out = hashlib.sha256(out.encode()).hexdigest()
    assert out == expected
