"""Outside-in span tracer for the matchgen layers.

The tracer wraps public entry points of the package from the outside: it
replaces each function object in every `matchgen` module namespace and class
dict that holds it, so calls made through names imported elsewhere (for
example `orbit` calling `shuffle`, or `__radd__` aliases of `__add__`) are
counted too.  Nothing in the package itself is edited.

Each span records an exact call count, its self time (duration minus the
time covered by child spans) and its inclusive time, counted only for
outermost calls so that recursion and nesting within one span are not
counted twice.  A share groups several spans under one name (for example
the reduction step together with the shuffles that orbit analysis calls
directly) and records the time covered by the outermost of them.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Tuple

# span name -> [(module, qualified name)], qualified name "Class.attr" for a
# method.  These are the layer boundaries named by the benchmark; spans
# deeper inside the layers would add overhead to every small-polynomial call.
SPANS: Dict[str, List[Tuple[str, str]]] = {
    "rational.mul": [("matchgen.rational", "MultiPoly.__mul__")],
    "rational.pow": [("matchgen.rational", "MultiPoly.__pow__")],
    "rational.expand": [("matchgen.rational", "FactoredValue.expand"),
                        ("matchgen.rational", "FactoredRF.to_rf")],
    "rational.factored_add": [("matchgen.rational", "FactoredRF.__add__")],
    "rational.gcd": [("matchgen.rational", "poly_gcd")],
    "rational.factor": [("matchgen.rational", "poly_factor")],
    "rational.rf_arith": [("matchgen.rational", "RationalFunction.__add__"),
                          ("matchgen.rational", "RationalFunction.__mul__")],
    "rational.substitute": [("matchgen.rational",
                             "RationalFunction.substitute")],
    "aztec.shuffle": [("matchgen.aztec", "shuffle")],
    "aztec.step": [("matchgen.aztec", "_reduce_step_factored")],
    "aztec.evaluate": [("matchgen.aztec", "evaluate"),
                       ("matchgen.aztec", "evaluate_factored")],
    "orbit.detect": [("matchgen.orbit", "detect_proportional"),
                     ("matchgen.orbit", "detect_q_shift")],
    "orbit.step_factor": [("matchgen.orbit", "period_step_factor")],
    "graphs.oracle": [("matchgen.graphs", "oracle_mgf")],
    "graphs.to_graph": [("matchgen.aztec", "to_graph")],
    "cellular.complement": [("matchgen.cellular", "complement")],
    "families.value": [("matchgen.families", "dungeon_value"),
                       ("matchgen.families", "family_value")],
    "exprs.parse": [("matchgen.exprs", "parse")],
}

# share name -> spans whose outermost calls it covers
SHARES: Dict[str, Tuple[str, ...]] = {
    "aztec.reduce": ("aztec.step", "aztec.shuffle"),
}

# the benchmark's own equality checks, wrapped by the worker
CHECK_SPAN = "check"


class _Share:
    __slots__ = ("active", "incl")

    def __init__(self):
        self.active = 0
        self.incl = 0.0


class _Span:
    __slots__ = ("calls", "self_s", "shares")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.shares: List[_Share] = []


class Tracer:
    """Span counters for one process; install() patches the package."""

    def __init__(self):
        self.spans: Dict[str, _Span] = {}
        self.shares: Dict[str, _Share] = {}
        for name in list(SPANS) + [CHECK_SPAN]:
            span = self.spans[name] = _Span()
            span.shares.append(self.shares.setdefault(name, _Share()))
        for share, members in SHARES.items():
            for name in members:
                self.spans[name].shares.append(
                    self.shares.setdefault(share, _Share()))
        self.factor_hits = 0
        # child-time accumulators of the open spans, innermost last
        self._stack: List[float] = []
        self._started = 0.0

    def wrap(self, name: str, fn: Callable, before=None) -> Callable:
        """fn wrapped in span `name`; before(*args) runs inside the span."""
        span = self.spans[name]
        shares = span.shares
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            for s in shares:
                s.active += 1
            stack.append(0.0)
            t0 = perf()
            try:
                if before is not None:
                    before(*args)
                return fn(*args, **kwargs)
            finally:
                d = perf() - t0
                child = stack.pop()
                span.calls += 1
                span.self_s += d - child
                if stack:
                    stack[-1] += d
                for s in shares:
                    s.active -= 1
                    if not s.active:
                        s.incl += d

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every reference to each spanned function in the package.

        A target the package no longer defines is reported on stderr and
        left out, so its span counts only the targets that remain.
        """
        import matchgen  # noqa: F401  (loads every submodule)
        from matchgen import rational

        cache = getattr(rational, "_factor_cache", None)

        def count_hit(p, *_):
            if p in cache:
                self.factor_hits += 1

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "matchgen" or k.startswith("matchgen.")]
        for name, targets in SPANS.items():
            before = count_hit if name == "rational.factor" \
                and cache is not None else None
            for module, qualname in targets:
                owner = sys.modules.get(module)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = vars(owner).get(attr) if owner is not None \
                    else None
                if original is None or not _replace_everywhere(
                        modules, original, self.wrap(name, original, before)):
                    print(f"spans: {module}.{qualname} not found, "
                          f"not traced", file=sys.stderr)
        self._started = time.perf_counter()

    def report(self, exclude_s: float = 0.0) -> Dict[str, float]:
        """Per-layer metrics: calls, self_s and share of the traced time,
        less exclude_s spent outside the package (calibration)."""
        total = time.perf_counter() - self._started - exclude_s
        out: Dict[str, float] = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self_s
            out[f"{name}.share"] = self.shares[name].incl / total
        for share in SHARES:
            out[f"{share}.share"] = self.shares[share].incl / total
        calls = self.spans["rational.factor"].calls
        out["rational.factor.hit_ratio"] = (self.factor_hits / calls
                                            if calls else 0.0)
        return out


def _replace_everywhere(modules, original, replacement) -> bool:
    """Rebind original to replacement in module globals and class dicts."""
    found = False
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                found = True
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, replacement)
                        found = True
    return found
