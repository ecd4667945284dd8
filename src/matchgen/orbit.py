"""Orbit analysis of period matrices under the shuffle operator.

Some weight patterns return to themselves after finitely many shuffle
rounds, either up to a single scalar multiple or up to rescaling a formal
parameter.  Detecting that periodicity turns the reduction pipeline into a
multiplicative recurrence: the diamond value at order n is an explicit
constant times the value at order n - k.  This module finds the period,
extracts the constant, and normalizes period matrices under the row and
column scalings that leave the recurrence structure unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import List, Optional, Tuple

from sympy import integer_nthroot

from .aztec import PeriodMatrix, _kept_orbit, _read_part
from .rational import FactoredRF, RationalFunction

RF = RationalFunction

DEFAULT_MAX_ITER = 40


@dataclass
class OrbitReport:
    """Outcome of an orbit search.

    kind is "proportional" when shuffle^k returns a scalar multiple of the
    start matrix, "q_shift" when it returns the start matrix with its
    parameter multiplied by sigma, and "none" when no period was found
    within the iteration budget.

    Per-step factors are kept in factored form because their expanded
    degree grows quickly along an orbit; call .to_rf() on an entry for a
    plain rational function.
    """

    kind: str
    period_length: int = 0
    scalar: Optional[RF] = None
    sigma: Optional[Fraction] = None
    per_step_factors: List[FactoredRF] = field(default_factory=list)

    def to_json(self) -> str:
        data = {"kind": self.kind, "k": self.period_length}
        if self.scalar is not None:
            data["scalar"] = str(self.scalar)
        if self.sigma is not None:
            data["sigma"] = str(self.sigma)
        data["per_step_factors"] = [str(f) for f in self.per_step_factors]
        return json.dumps(data)


def proportionality_scalar(a: PeriodMatrix,
                           b: PeriodMatrix) -> Optional[FactoredRF]:
    """The scalar c with b = c * a entrywise, or None.

    Zero entries must sit at the same positions; c is read off the first
    nonzero pair and then checked against every entry.
    """
    return _scalar(a.entries, b.entries)


def _scalar(a: List[list], b: List[list]) -> Optional[FactoredRF]:
    """proportionality_scalar on the rows of two periods."""
    if (len(a), len(a[0])) != (len(b), len(b[0])):
        return None
    c = None
    for row_a, row_b in zip(a, b):
        for ea, eb in zip(row_a, row_b):
            if ea.is_zero() != eb.is_zero():
                return None
            if ea.is_zero():
                continue
            if c is None:
                c = eb / ea
            elif eb != c * ea:
                return None
    return c


def _search(a: PeriodMatrix, max_iter: int, kind: str, match) -> OrbitReport:
    """Read up to max_iter steps of the kept orbit of a, stopping at a hit.

    After each step k, match(rows of shuffle^k(a)) is called once and
    returns the report fields of a hit or None; the report of kind `kind`
    is the first hit, with the per-step factors up to its step, or "none"
    with max_iter factors.  Steps that an earlier call walked on the same
    period are read, not walked again; a zero block raises ZeroCellFactor
    naming the first step that has one.
    """
    orbit = _kept_orbit(a)
    factors: List[FactoredRF] = []
    for k in range(1, max_iter + 1):
        factors.append(orbit.step_factor(k - 1))
        found = match(orbit.periods[k])
        if found is not None:
            return OrbitReport(kind, k, per_step_factors=factors, **found)
    return OrbitReport("none", per_step_factors=factors)


def detect_proportional(a: PeriodMatrix,
                        max_iter: int = DEFAULT_MAX_ITER) -> OrbitReport:
    """Smallest k with shuffle^k(a) = c * a, searched up to max_iter."""
    def match(cur):
        c = _scalar(a.entries, cur)
        return None if c is None else {"scalar": c.to_rf()}

    return _search(a, max_iter, "proportional", match)


def detect_q_shift(aq: PeriodMatrix,
                   max_iter: int = DEFAULT_MAX_ITER) -> OrbitReport:
    """Smallest k with shuffle^k(A(q)) = A(sigma * q), sigma positive rational.

    q is the one variable of A; a matrix with two or more variables raises
    ValueError.  As detect_proportional reads c, each step reads sigma off
    the first entry of A that has q (`_sigma`), then checks it entry by
    entry, substituting sigma*q into each distinct entry of A a comparison
    reaches; a matrix without a variable is compared as it is (sigma = 1).
    Nothing is kept between steps; they are read off the kept orbit of A.
    """
    variables = sorted(aq.variables())
    if len(variables) > 1:
        raise ValueError("a q-shift needs at most one variable, the period "
                         f"has {len(variables)}: {', '.join(variables)}")

    def match(cur):
        pairs = list(zip(chain(*cur), chain(*aq.entries)))
        sigma = next((_sigma(e, c) for c, e in pairs if e.factors),
                     Fraction(1))
        if sigma is None:
            return None
        bindings = {v: RF.const(sigma) * RF.var(v) for v in variables}
        shift = cache(lambda e: e.substitute(bindings))
        if all(c == shift(e) for c, e in pairs):
            return {"sigma": sigma}
        return None

    return _search(aq, max_iter, "q_shift", match)


def _sigma(e: FactoredRF, c: FactoredRF) -> Optional[Fraction]:
    """The only positive rational sigma that can give e(sigma q) = c, or None.

    q -> sigma q keeps e's term degrees and multiplies the ratio of its
    numerator's degree-i to its denominator's degree-j coefficient by
    sigma^(i - j).  As e has q, i != j for (top of the numerator, bottom of
    the denominator) or (bottom, top).  None if c is 0, has other term
    degrees, or gives sigma^|i - j| no positive rational root.
    """
    en, ed, cn, cd = ({x[0] if x else 0: a for x, a in p.terms.items()}
                      for f in (e.to_rf(), c.to_rf()) for p in (f.num, f.den))
    if en.keys() != cn.keys() or ed.keys() != cd.keys():
        return None
    i, j = (max(en), min(ed)) if max(en) != min(ed) else (min(en), max(ed))
    r = (cn[i] * ed[j] / (cd[j] * en[i])) ** (1 if i > j else -1)
    (a, exact_a), (b, exact_b) = (integer_nthroot(abs(x), abs(i - j))
                                  for x in (r.numerator, r.denominator))
    return Fraction(a, b) if r > 0 and exact_a and exact_b else None


def detect_orbit(a: PeriodMatrix,
                 max_iter: int = DEFAULT_MAX_ITER) -> OrbitReport:
    """detect_proportional, else detect_q_shift when a has one variable.

    A proportional hit within max_iter wins over any q-shift, so
    detect_q_shift runs only after detect_proportional finds none, and
    reads the steps that search walked off the kept orbit.
    """
    rep = detect_proportional(a, max_iter)
    if rep.kind == "none" and len(a.variables()) == 1:
        rep = detect_q_shift(a, max_iter)
    return rep


def recurrence_constant(a: PeriodMatrix, n: int, k: int,
                        factored: bool = False):
    """The constant K with M(order n; a) = K * M(order n - k; a).

    Reads k reduction rounds from order n off the kept orbit of a (the
    one `evaluate` and `detect_proportional` read, so rounds they walked
    are not walked again), multiplies their step factors, and absorbs the
    proportionality scalar c of shuffle^k(a) = c * a: the order n - k
    diamond has (n - k)(n - k + 1) matched edges, so scaling every weight
    by c scales its value by c to that power.  Only the part the order
    n - k array reads (`_read_part`) of a and of the orbit's period k is
    compared; at n = k nothing is compared, since c enters to the power 0.

    With factored=True the constant comes back as a FactoredRF; its
    expanded form can be enormous (high powers of the block factors) even
    when every factor is small.
    """
    if k < 1 or n < k:
        raise ValueError("need n >= k >= 1")
    orbit = _kept_orbit(a)
    total = FactoredRF.from_counts(*(c for _, c in orbit.reduction(n, k)))
    m = n - k
    if m:
        c = _scalar(_read_part(a.entries, m), _read_part(orbit.periods[k], m))
        if c is None:
            raise ValueError(f"shuffle^{k} of the matrix is not a scalar "
                             "multiple of it")
        total = total * c ** (m * (m + 1))
    return total if factored else total.to_rf()


def line_edge_count(line: int, n: int) -> int:
    """Edges every perfect matching uses in one array row or column.

    Lines are 1-indexed across the 2n x 2n array; the count is the same
    for rows and columns: n - i + 1 on line 2i - 1 and i on line 2i.
    """
    i = (line + 1) // 2
    return n - i + 1 if line % 2 else i


def class_exponent(period_index: int, period_size: int, n: int) -> int:
    """Total matched edges over all array lines hitting one period line."""
    return sum(line_edge_count(r, n) for r in range(1, 2 * n + 1)
               if (r - 1) % period_size == period_index)


def equivalence_reduce(a: PeriodMatrix) -> Tuple[PeriodMatrix, list]:
    """Normalize under single row and column scalings.

    Scales each period row so its first nonzero entry is 1, then each
    column, rows before columns.  Returns the normal form and a ledger of
    ("row"|"col", index, factor) entries recording the multiplier applied
    to that line; ledger_multiplier reconstructs the induced change of the
    diamond value at any order.  Uniqueness of the normal form is only
    observed, not proven, for matrices with zero entries.
    """
    lines = [row[:] for row in a.entries]
    ledger = []
    for kind in ("row", "col"):
        for i, line in enumerate(lines):
            pivot = next((e for e in line if not e.is_zero()), None)
            if pivot is not None and pivot != 1:
                s = pivot.inverse()
                lines[i] = [e * s for e in line]
                ledger.append((kind, i, s))
        lines = [list(col) for col in zip(*lines)]  # rows <-> columns
    return PeriodMatrix(lines), ledger


def ledger_multiplier(ledger, k: int, l: int, n: int) -> RF:
    """Value multiplier induced by a scaling ledger at order n.

    If equivalence_reduce(a) = (b, ledger) then
    M(order n; b) = ledger_multiplier(ledger, a.k, a.l, n) * M(order n; a).
    """
    out = FactoredRF(1)
    for kind, index, s in ledger:
        size = k if kind == "row" else l
        out = out * s ** class_exponent(index, size, n)
    return out.to_rf()
