"""Aztec diamond graphs with periodic edge weights.

The edges of the order-n diamond form a 2n x 2n array; a weight pattern is
given by an even-by-even period matrix tiled over that array.  The shuffle
operator applies the whole-cell complementation of `cellular.whole_cell` to
each 2x2 block of the period and shifts the result one step, tracking how
the weights transform under one complementation round.  One round
multiplies the matching generating function by the product of all
block factors and drops the order by one, so iterating to order zero gives
the exact generating function with a full audit trail.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Tuple

from .cellular import whole_cell
from .exprs import parse
from .graphs import WeightedGraph
from .rational import FactoredRF, RationalFunction

RF = RationalFunction


class ZeroCellFactor(ArithmeticError):
    """A 2x2 block has x*z + y*w = 0, so the shuffle step is undefined.

    Raised before anything is divided.  `order` is the diamond order of a
    failing reduction round and `step` the 1-based step of a failing orbit
    search (detect_proportional, detect_q_shift); each is None when it does
    not apply, so a direct `shuffle` names only the block.  A reduction
    only inverts the blocks its edge array uses.
    """

    def __init__(self, order: Optional[int], block_row: int, block_col: int,
                 step: Optional[int] = None):
        if step is not None:
            where = f" at orbit step {step}"
        elif order is not None:
            where = f" at order {order}"
        else:
            where = ""
        super().__init__(
            f"zero cell-factor{where}, block ({block_row},{block_col})")
        self.order = order
        self.step = step
        self.block = (block_row, block_col)


class PeriodMatrix:
    """k x l matrix of rational functions, k and l even, tiled over arrays.

    Entries are held as FactoredRF: the constructor converts each entry
    (int, Fraction, RationalFunction or FactoredRF) once, so the shuffle
    rounds and orbit tests that read them never convert again.
    """

    def __init__(self, entries: List[List[FactoredRF]]):
        k = len(entries)
        if k == 0 or k % 2:
            raise ValueError("row count must be even and positive")
        l = len(entries[0])
        if l == 0 or l % 2:
            raise ValueError("column count must be even and positive")
        if any(len(row) != l for row in entries):
            raise ValueError("ragged rows")
        self.k = k
        self.l = l
        self.entries = [[FactoredRF._coerce(e) for e in row]
                        for row in entries]

    @staticmethod
    def from_strings(rows: List[List[str]]) -> "PeriodMatrix":
        """Parse a period, each distinct entry string once."""
        distinct = dict.fromkeys(s for row in rows for s in row)
        values = {s: parse(s) for s in distinct}
        return PeriodMatrix([[values[s] for s in row] for row in rows])

    @staticmethod
    def constant(c, k: int = 2, l: int = 2) -> "PeriodMatrix":
        v = FactoredRF._coerce(c)
        return PeriodMatrix([[v] * l for _ in range(k)])

    def at(self, r: int, c: int) -> FactoredRF:
        """Entry at array position (r, c), 0-indexed, read modulo the period."""
        return self.entries[r % self.k][c % self.l]

    def __eq__(self, other):
        if not isinstance(other, PeriodMatrix):
            return NotImplemented
        return (self.k, self.l) == (other.k, other.l) and \
            self.entries == other.entries

    def map(self, fn) -> "PeriodMatrix":
        return PeriodMatrix([[fn(e) for e in row] for row in self.entries])

    def substitute(self, bindings) -> "PeriodMatrix":
        return self.map(lambda e: e.substitute(bindings))

    def variables(self) -> set:
        """The variables of the entries, read off their irreducible factors."""
        return {v for row in self.entries for e in row
                for f in e.factors for v in f.variables}

    def check_bindings(self, bindings):
        """Raise ValueError naming a bound variable no entry has."""
        unknown = sorted(set(bindings) - self.variables())
        if unknown:
            raise ValueError(f"the period has no variable {unknown[0]!r} "
                             "to bind")

    def __str__(self):
        return "\n".join("  ".join(str(e) for e in row)
                         for row in self.entries)

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k,
            "l": self.l,
            "entries": [[str(e) for e in row] for row in self.entries],
        })

    @staticmethod
    def from_json(text: str) -> "PeriodMatrix":
        data = json.loads(text)
        m = PeriodMatrix.from_strings(data["entries"])
        if (m.k, m.l) != (data["k"], data["l"]):
            raise ValueError("entry shape disagrees with declared k, l")
        return m


def _block_round(p: PeriodMatrix, order: Optional[int] = None,
                 step: Optional[int] = None):
    """Block factors of p and the shuffled period, in one pass over the blocks.

    Block [[a,b],[c,d]] is the cell a, b, d, c in cyclic order, so
    deltas[bi][bj] = a*d + b*c and the block's new weights both come from
    one `whole_cell` call.  A zero factor raises ZeroCellFactor naming
    `order` or `step` and the block.  The period's FactoredRF entries keep
    the shuffled weights small.
    """
    deltas = []
    inv = [[None] * p.l for _ in range(p.k)]
    for bi in range(0, p.k, 2):
        row = []
        for bj in range(0, p.l, 2):
            a, b = p.entries[bi][bj:bj + 2]
            c, d = p.entries[bi + 1][bj:bj + 2]
            try:
                delta, (na, nb, nd, nc) = whole_cell((a, b, d, c))
            except ZeroDivisionError:
                raise ZeroCellFactor(order, bi // 2, bj // 2, step) from None
            row.append(delta)
            inv[bi][bj], inv[bi][bj + 1] = na, nb
            inv[bi + 1][bj], inv[bi + 1][bj + 1] = nc, nd
        deltas.append(row)
    shifted = [[inv[(i + 1) % p.k][(j + 1) % p.l] for j in range(p.l)]
               for i in range(p.k)]
    return deltas, PeriodMatrix(shifted)


def _block_product(deltas, row_mult: List[int],
                   col_mult: List[int]) -> FactoredRF:
    """Product of deltas[bi][bj] ** (row_mult[bi] * col_mult[bj]), factored."""
    out = FactoredRF(1)
    for bi, row in enumerate(deltas):
        for bj, delta in enumerate(row):
            e = row_mult[bi] * col_mult[bj]
            if e:
                out = out * delta ** e
    return out


def shuffle(p: PeriodMatrix) -> PeriodMatrix:
    """One weight-transformation round on the period matrix.

    Each 2x2 block [[a,b],[c,d]] (top-left at even indices) becomes
    [[d,c],[b,a]] / (a*d + b*c), then all columns are shifted up one row
    and all rows one column left.
    """
    return _block_round(p)[1]


class AztecInstance:
    """Order-n Aztec diamond carrying a periodic edge-weight pattern."""

    def __init__(self, n: int, period: PeriodMatrix):
        if n < 0:
            raise ValueError("order must be nonnegative")
        self.n = n
        self.period = period


def edge_array(inst: AztecInstance) -> List[List[FactoredRF]]:
    """The 2n x 2n array of edge weights, period read modulo its size."""
    n = inst.n
    return [[inst.period.at(r, c) for c in range(2 * n)]
            for r in range(2 * n)]


def _edge_position(n: int, du: Tuple[int, int], dv: Tuple[int, int]):
    """Array position (0-indexed) of the edge between two vertices.

    Vertices are stored in doubled coordinates (odd, odd).  The midpoint of
    an edge, also doubled, lands on one even and one odd coordinate; the
    rotated map below sends the 4 edges of the order-1 diamond to a 2x2
    array and extends to a bijection onto the 2n x 2n array.
    """
    mx = (du[0] + dv[0]) // 2
    my = (du[1] + dv[1]) // 2
    row = n + (1 - my + mx) // 2 - 1
    col = n + (1 + mx + my) // 2 - 1
    return row, col


def to_graph(inst: AztecInstance) -> WeightedGraph:
    """Build the weighted diamond graph matching the edge array.

    Vertex ids are doubled integer coordinates (2p+1, 2q+1) with
    |2p+1| + |2q+1| <= 2n.  Each distinct period entry is expanded once.
    """
    n, p = inst.n, inst.period
    expanded = {}
    g = WeightedGraph()
    verts = [(a, b)
             for a in range(-2 * n + 1, 2 * n, 2)
             for b in range(-2 * n + 1, 2 * n, 2)
             if abs(a) + abs(b) <= 2 * n]
    for v in verts:
        g.vertices.add(v)
    vset = set(verts)
    for (a, b) in verts:
        for (da, db) in ((2, 0), (0, 2)):
            u = (a + da, b + db)
            if u in vset:
                r, c = _edge_position(n, (a, b), u)
                key = (r % p.k, c % p.l)
                if key not in expanded:
                    expanded[key] = p.at(r, c).to_rf()
                g.add_edge((a, b), u, expanded[key])
    return g


def canonical_cells(inst: AztecInstance):
    """The 4-cycles of the diamond graph in cyclic vertex order.

    These are the unit squares of the region; their edges fill exactly the
    2x2 blocks of the edge array with even top-left indices.
    """
    n = inst.n
    vset = {(a, b)
            for a in range(-2 * n + 1, 2 * n, 2)
            for b in range(-2 * n + 1, 2 * n, 2)
            if abs(a) + abs(b) <= 2 * n}
    cells = []
    for (a, b) in sorted(vset):
        p, q = (a - 1) // 2, (b - 1) // 2
        if (p + q) % 2 == n % 2:
            continue
        quad = [(a, b), (a + 2, b), (a + 2, b + 2), (a, b + 2)]
        if all(v in vset for v in quad):
            cells.append(tuple(quad))
    return cells


def reduce_step(inst: AztecInstance) -> Tuple[RF, AztecInstance]:
    """One complementation round: order n to n-1.

    Returns (factor, successor) with
    M(order n; weights) = factor * M(order n-1; successor weights).
    The factor is the product of the block factors of all n^2 blocks of the
    edge array, computed per distinct period block with multiplicities.
    The successor period is the shuffle of the period's top-left
    min(k, 2n) x min(l, 2n) part, the only part the order-n array reads;
    when that cuts the period, its last row and column wrap around the cut
    and differ from shuffle(inst.period), but the order n-1 array never
    reads them.
    """
    factor, succ = _reduce_rounds(inst, 1)
    return factor.to_rf(), succ


class ReductionTrace:
    """The step factors of one run of the pipeline to order 0.

    `steps` holds one (order, factor) pair per reduction round, in the
    order the rounds ran, each factor in factored form.
    """

    def __init__(self):
        self.steps: List[Tuple[int, FactoredRF]] = []

    def product(self) -> RF:
        return math.prod((f for _, f in self.steps),
                         start=FactoredRF(1)).to_rf()


def _reduce_rounds(inst: AztecInstance, rounds: int,
                   trace: Optional[ReductionTrace] = None
                   ) -> Tuple[FactoredRF, AztecInstance]:
    """Run `rounds` reduction rounds from inst.

    Returns the product of the step factors and the instance reached, so
    M(inst) = product * M(reached).  Block (i, j) of the order-n edge
    array uses period block (i mod kb, j mod lb), so each round raises a
    block factor to the number of array blocks that use it.  A round at
    order n first cuts the period to its top-left min(k, 2n) x min(l, 2n)
    part, the only entries the order-n array reads, so that no unused
    block is inverted.
    """
    if rounds > inst.n:
        raise ValueError("cannot reduce order 0")
    total = FactoredRF(1)
    n, period = inst.n, inst.period
    for _ in range(rounds):
        if 2 * n < max(period.k, period.l):
            period = PeriodMatrix([row[:2 * n]
                                   for row in period.entries[:2 * n]])
        deltas, period = _block_round(period, n)
        row_mult = [0] * len(deltas)
        col_mult = [0] * len(deltas[0])
        for i in range(n):
            row_mult[i % len(row_mult)] += 1
            col_mult[i % len(col_mult)] += 1
        factor = _block_product(deltas, row_mult, col_mult)
        total = total * factor
        if trace is not None:
            trace.steps.append((n, factor))
        n -= 1
    return total, AztecInstance(n, period)


def evaluate(inst: AztecInstance) -> Tuple[RF, ReductionTrace]:
    """Exact matching generating function via repeated reduction."""
    trace = ReductionTrace()
    total, _ = _reduce_rounds(inst, inst.n, trace)
    return total.to_rf(), trace


def evaluate_factored(inst: AztecInstance) -> FactoredRF:
    """Exact matching generating function, left in factored form.

    Same pipeline as evaluate, but the product of step factors is never
    expanded; useful when the value has small factors at high powers.
    """
    return _reduce_rounds(inst, inst.n)[0]


def row_classes(n: int) -> List[List[int]]:
    """Row classes of the 2n x 2n array (1-indexed rows).

    Every perfect matching uses exactly n edges within each class.
    """
    out = [[1]]
    out += [[2 * i, 2 * i + 1] for i in range(1, n)]
    out.append([2 * n])
    return out


def col_classes(n: int) -> List[List[int]]:
    """Column classes (1-indexed): pairs {2i-1, 2i}.

    Every perfect matching uses exactly n+1 edges within each class.
    """
    return [[2 * i - 1, 2 * i] for i in range(1, n + 1)]


def scale_row_class(inst: AztecInstance, class_index: int, s) -> Tuple[AztecInstance, RF]:
    """Multiply every weight in a row class by s.

    Returns the rescaled instance (period expanded to the full array) and
    the multiplier s^n by which the generating function changes.
    """
    s = FactoredRF._coerce(s)
    classes = row_classes(inst.n)
    if not 0 <= class_index < len(classes):
        raise ValueError(f"row class index out of range: {class_index}")
    arr = edge_array(inst)
    for r in classes[class_index]:
        arr[r - 1] = [s * e for e in arr[r - 1]]
    return AztecInstance(inst.n, PeriodMatrix(arr)), (s ** inst.n).to_rf()


def scale_col_class(inst: AztecInstance, class_index: int, s) -> Tuple[AztecInstance, RF]:
    """Multiply every weight in a column pair by s; multiplier s^(n+1)."""
    s = FactoredRF._coerce(s)
    classes = col_classes(inst.n)
    if not 0 <= class_index < len(classes):
        raise ValueError(f"column class index out of range: {class_index}")
    arr = edge_array(inst)
    for row in arr:
        for c in classes[class_index]:
            row[c - 1] = s * row[c - 1]
    return (AztecInstance(inst.n, PeriodMatrix(arr)),
            (s ** (inst.n + 1)).to_rf())
