"""Command line surface: compute, orbit, verify, oracle.

Every subcommand writes JSON to stdout so runs are machine-checkable.
Exit codes: 0 success, 1 computation error or failed verification, 2 usage
error (argparse's default).

An integer value also gets a `factorization` field, found by trial
division up to TRIAL_DIVISION_LIMIT and a primality test on what is left.
When that leaves a composite cofactor, the field is omitted, so the cost
of the field stays bounded however large the value is.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Dict, Optional

import sympy

from .aztec import (AztecInstance, PeriodMatrix, ZeroCellFactor, evaluate,
                    evaluate_factored)
from .exprs import parse
from .families import FAMILY_NAMES, family_value
from .graphs import SizeCapExceeded, graph_from_json, oracle_mgf
from .orbit import DEFAULT_MAX_ITER, detect_orbit
from .rational import RationalFunction, _strip
from .verify import SUITES

RF = RationalFunction


# Upper bounds on the work one argument can ask for.
MAX_ITER = 200
MAX_TRIALS = 1000
TRIAL_DIVISION_LIMIT = 10 ** 5


class ComputationError(RuntimeError):
    pass


def _check_range(flag: str, value: int, limit: int):
    if not 1 <= value <= limit:
        raise ComputationError(f"{flag} {value} is outside 1..{limit}")


def _parse_bindings(text: Optional[str]) -> Dict[str, RF]:
    out: Dict[str, RF] = {}
    if not text:
        return out
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ComputationError(f"binding {item!r} is not name=value")
        name, value = (part.strip() for part in item.split("=", 1))
        if name in out:
            raise ComputationError(f"variable {name!r} is bound twice")
        out[name] = parse(value)
    return out


def _integer_factorization(value: RF):
    """[[prime, exponent], ...] for a nonzero integer value, else None.

    Also None when trial division up to TRIAL_DIVISION_LIMIT leaves a
    composite cofactor.
    """
    if not value.is_integer() or value.is_zero():
        return None
    n = abs(int(value.as_const()))
    out = []
    for p in sympy.primerange(TRIAL_DIVISION_LIMIT + 1):
        if p * p > n:
            break
        n, e = _strip(n, p)
        if e:
            out.append([p, e])
    if n > 1:
        if not sympy.isprime(n):
            return None
        out.append([n, 1])
    return out


def _report(value: RF) -> dict:
    """{"value"} of a computed value, and "factorization" if it has one."""
    out = {"value": str(value)}
    fact = _integer_factorization(value)
    if fact is not None:
        out["factorization"] = fact
    return out


def _load_period(path: str) -> PeriodMatrix:
    try:
        with open(path) as fh:
            return PeriodMatrix.from_json(fh.read())
    except (OSError, ValueError, KeyError) as e:
        raise ComputationError(f"cannot read period file {path}: {e}")


def cmd_compute(args) -> int:
    bindings = _parse_bindings(args.bind)
    if args.n > args.max_order:
        raise ComputationError(
            f"order {args.n} exceeds --max-order {args.max_order}")
    if args.family:
        if args.trace:
            raise ComputationError(
                "--trace needs --period; a family's steps would not multiply "
                "to its value, which binds and scales their product")
        value = family_value(args.family, args.n, bindings or None)
    else:
        period = _load_period(args.period)
        period.check_bindings(bindings)
        if bindings:
            period = period.substitute(bindings)
        inst = AztecInstance(args.n, period)
        if args.trace:
            value, steps = evaluate(inst)
        else:
            value = evaluate_factored(inst).to_rf()
    out = _report(value)
    if args.trace:
        out["trace"] = [{"order": o, "factor": str(f)} for o, f in steps]
    print(json.dumps(out))
    return 0


def cmd_orbit(args) -> int:
    _check_range("--max-iter", args.max_iter, MAX_ITER)
    period = _load_period(args.period)
    print(detect_orbit(period, max_iter=args.max_iter).to_json())
    return 0


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from "
              f"{', '.join(sorted(SUITES))}", file=sys.stderr)
        return 2
    suite = SUITES[args.suite]
    given = {"trials": args.trials, "seed": args.seed}
    kwargs = {k: v for k, v in given.items() if v is not None}
    declared = inspect.signature(suite).parameters
    for k in kwargs:
        if k not in declared:
            raise ComputationError(
                f"suite {args.suite} does not take --{k}")
    if "trials" in kwargs:
        _check_range("--trials", args.trials, MAX_TRIALS)
    result = suite(**kwargs)
    for c in result.cases:
        mark = "PASS" if c.passed else "FAIL"
        print(f"[{mark}] {result.suite}/{c.case_id}")
    print(json.dumps(result.to_dict()))
    return 0 if result.passed else 1


def cmd_oracle(args) -> int:
    try:
        with open(args.graph) as fh:
            g = graph_from_json(fh.read())
    except (OSError, ValueError, KeyError) as e:
        raise ComputationError(f"cannot read graph file {args.graph}: {e}")
    print(json.dumps(_report(oracle_mgf(g))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="matchgen",
        description="Exact tiling generating functions of diamond-shaped "
                    "regions with periodic weights.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="evaluate a family or a period file")
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", choices=FAMILY_NAMES)
    src.add_argument("--period", metavar="FILE",
                     help="JSON period matrix (PeriodMatrix.to_json format)")
    c.add_argument("--n", type=int, required=True, help="region order")
    c.add_argument("--bind", metavar="k=v,...",
                   help="substitute values for variables")
    c.add_argument("--trace", action="store_true",
                   help="include per-step reduction factors")
    c.add_argument("--max-order", type=int, default=64,
                   help="refuse orders above this budget")
    c.set_defaults(fn=cmd_compute)

    o = sub.add_parser("orbit", help="analyze the shuffle orbit of a period")
    o.add_argument("--period", metavar="FILE", required=True)
    o.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    o.set_defaults(fn=cmd_orbit)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite", help=", ".join(sorted(SUITES)))
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.set_defaults(fn=cmd_verify)

    g = sub.add_parser("oracle",
                       help="brute-force value of a weighted graph file")
    g.add_argument("graph", metavar="FILE",
                   help="JSON graph (graph_to_json format)")
    g.set_defaults(fn=cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ComputationError, ZeroCellFactor, SizeCapExceeded,
            ZeroDivisionError, ValueError) as e:
        print(json.dumps({"error": {"kind": type(e).__name__,
                                    "message": str(e)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
