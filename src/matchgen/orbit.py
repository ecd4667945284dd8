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
from typing import List, Optional, Tuple

from .aztec import (AztecInstance, PeriodMatrix, _block_product,
                    _block_round, _reduce_rounds)
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


def _as_plain(e) -> RF:
    if isinstance(e, FactoredRF):
        return e.to_rf()
    return e


def proportionality_scalar(a: PeriodMatrix, b: PeriodMatrix) -> Optional[RF]:
    """The scalar c with b = c * a entrywise, or None.

    Zero entries must sit at the same positions; c is read off the first
    nonzero pair and then checked against every entry.
    """
    if (a.k, a.l) != (b.k, b.l):
        return None
    c = None
    for i in range(a.k):
        for j in range(a.l):
            ea = FactoredRF._coerce(a.entries[i][j])
            eb = FactoredRF._coerce(b.entries[i][j])
            if ea.is_zero() != eb.is_zero():
                return None
            if ea.is_zero():
                continue
            if c is None:
                c = eb / ea
            elif eb != c * ea:
                return None
    return None if c is None else c.to_rf()


def _search(a: PeriodMatrix, max_iter: int, kind: str, match) -> OrbitReport:
    """Walk the shuffle orbit of a for up to max_iter steps.

    After each step, match(successor, per-step factors so far) returns the
    report fields of a hit or None; the first hit ends the search.
    """
    factors: List[FactoredRF] = []
    cur = a.map(FactoredRF._coerce)
    for k in range(1, max_iter + 1):
        deltas, cur = _block_round(cur, step=k)
        factors.append(_block_product(deltas, [1] * len(deltas),
                                      [1] * len(deltas[0])))
        found = match(cur, factors)
        if found is not None:
            return OrbitReport(kind, k, per_step_factors=factors, **found)
    return OrbitReport("none", per_step_factors=factors)


def detect_proportional(a: PeriodMatrix,
                        max_iter: int = DEFAULT_MAX_ITER) -> OrbitReport:
    """Smallest k with shuffle^k(a) = c * a, searched up to max_iter."""
    def match(cur, factors):
        c = proportionality_scalar(a, cur)
        return None if c is None else {"scalar": c}

    return _search(a, max_iter, "proportional", match)


def _square_candidates(factors: List[FactoredRF]) -> List[Fraction]:
    """Integer squares up to 100 plus squares of constant step factors."""
    cands = [Fraction(i * i) for i in range(1, 11)]
    for f in factors:
        if not f.factors:
            v = f.coeff
            if v > 0:
                for s in (v * v, 1 / (v * v)):
                    if s not in cands:
                        cands.append(s)
    # sigma = 1 first, so a parameter-free matrix reports the identity shift
    return sorted(set(cands), key=lambda s: (s != 1, s))


def detect_q_shift(aq: PeriodMatrix, var: str = "q",
                   max_iter: int = DEFAULT_MAX_ITER) -> OrbitReport:
    """Smallest k with shuffle^k(A(q)) = A(sigma * q) for a candidate sigma.

    Candidate multipliers are the integer squares up to 100 together with
    squares of any constant per-step factors encountered along the orbit.
    Each candidate is compared entry by entry in factored form, and sigma*q
    is substituted into an entry of A only when a comparison reaches it;
    the first entry that differs settles a candidate, so no shifted copy
    of A is built.  A matrix without the parameter is handled by the same
    loop, since substitution is then the identity (sigma = 1).
    """
    q = RF.var(var)
    shifted = {}

    def entry(sigma: Fraction, i: int, j: int) -> FactoredRF:
        key = (sigma, i, j)
        if key not in shifted:
            shifted[key] = FactoredRF.from_rf(_as_plain(
                aq.entries[i][j]).substitute({var: RF.const(sigma) * q}))
        return shifted[key]

    def match(cur, factors):
        for sigma in _square_candidates(factors):
            if all(cur.entries[i][j] == entry(sigma, i, j)
                   for i in range(aq.k) for j in range(aq.l)):
                return {"sigma": sigma}
        return None

    return _search(aq, max_iter, "q_shift", match)


def recurrence_constant(a: PeriodMatrix, n: int, k: int,
                        factored: bool = False):
    """The constant K with M(order n; a) = K * M(order n - k; a).

    Runs k reduction rounds from order n, multiplies their step factors,
    and absorbs the proportionality scalar c of shuffle^k(a) = c * a: the
    order n - k diamond has (n - k)(n - k + 1) matched edges, so scaling
    every weight by c scales its value by c to that power.  Only the part
    the order n - k array reads is compared, the top-left
    min(k', 2(n - k)) x min(l', 2(n - k)) part of a and of the reached
    period (k' x l'); at n = k nothing is compared, since c enters to the
    power 0.

    With factored=True the constant comes back as a FactoredRF; its
    expanded form can be enormous (high powers of the block factors) even
    when every factor is small.
    """
    if k < 1 or n < k:
        raise ValueError("need n >= k >= 1")
    total, inst = _reduce_rounds(AztecInstance(n, a), k)
    m = n - k
    if m:
        p = inst.period
        rows, cols = min(p.k, 2 * m), min(p.l, 2 * m)
        c = proportionality_scalar(
            PeriodMatrix([row[:cols] for row in a.entries[:rows]]),
            PeriodMatrix([row[:cols] for row in p.entries[:rows]]))
        if c is None:
            raise ValueError(f"shuffle^{k} of the matrix is not a scalar "
                             "multiple of it")
        total = total * FactoredRF.from_rf(c) ** (m * (m + 1))
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
    rows = [[_as_plain(e) for e in row] for row in a.entries]
    ledger = []
    for i in range(a.k):
        pivot = next((e for e in rows[i] if not e.is_zero()), None)
        if pivot is not None and pivot != RF.const(1):
            s = pivot.inverse()
            rows[i] = [e * s for e in rows[i]]
            ledger.append(("row", i, s))
    for j in range(a.l):
        pivot = next((rows[i][j] for i in range(a.k)
                      if not rows[i][j].is_zero()), None)
        if pivot is not None and pivot != RF.const(1):
            s = pivot.inverse()
            for i in range(a.k):
                rows[i][j] = rows[i][j] * s
            ledger.append(("col", j, s))
    return PeriodMatrix(rows), ledger


def ledger_multiplier(ledger, k: int, l: int, n: int) -> RF:
    """Value multiplier induced by a scaling ledger at order n.

    If reduce(a) = (b, ledger) then
    M(order n; b) = ledger_multiplier(ledger, a.k, a.l, n) * M(order n; a).
    """
    out = RF.const(1)
    for kind, index, s in ledger:
        size = k if kind == "row" else l
        out = out * s ** class_exponent(index, size, n)
    return out
