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
from itertools import accumulate, chain
from operator import add, itemgetter
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
    round (a direct `shuffle` is step 1); the other one is None.  An orbit
    walks every block of every step and records a zero block as None; a
    reduction raises only on a block its order uses, and an orbit step on
    any block of the step.
    """

    def __init__(self, order: Optional[int], block_row: int, block_col: int,
                 step: Optional[int] = None):
        where = f"orbit step {step}" if step is not None else f"order {order}"
        super().__init__(
            f"zero cell-factor at {where}, block ({block_row},{block_col})")
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
        """fn applied to each distinct entry once, as parsing is."""
        values = {e: fn(e) for e in dict.fromkeys(chain(*self.entries))}
        return PeriodMatrix([[values[e] for e in row] for row in self.entries])

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

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k,
            "l": self.l,
            "entries": [[str(e) for e in row] for row in self.entries],
        })

    @staticmethod
    def from_json(text: str) -> "PeriodMatrix":
        """Read a to_json text; ValueError names a field of a wrong shape."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("the top level must be a JSON object")
        rows = data["entries"]
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and all(isinstance(e, str) for e in row)
                for row in rows)):
            raise ValueError("entries must be a list of lists of strings")
        m = PeriodMatrix.from_strings(rows)
        if (m.k, m.l) != (data["k"], data["l"]):
            raise ValueError("entry shape disagrees with declared k, l")
        return m


def _read_part(rows: List[list], m: int) -> List[list]:
    """The top-left min(k, 2m) x min(l, 2m) part of a period's rows.

    This is the only part the order-m edge array reads.  `reduce_step`
    shuffles this part, so its successor has the part's shape, and
    `recurrence_constant` compares only this part of a period and of its
    shuffle.  An orbit walks the whole period (see `_Orbit`).
    """
    return [row[:2 * m] for row in rows[:2 * m]]


# a zero or undefined block's cell: no factor, None for its new weights
_UNDEFINED = None, (None, None), (None, None)
_FACTOR, _UPPER, _LOWER = itemgetter(0), itemgetter(1), itemgetter(2)


def _move(a, b, c, d, intern: dict) -> tuple:
    """The cell of block [[a,b],[c,d]]: (factor, new upper pair, new lower
    pair), the factor and weights interned, or `_UNDEFINED` for a zero
    block or one with a None entry."""
    # by identity: `None in block` would call the entries' __eq__
    if a is None or b is None or c is None or d is None:
        return _UNDEFINED
    try:
        cell = whole_cell((a, b, d, c))
    except ZeroDivisionError:
        return _UNDEFINED
    delta, na, nb, nd, nc = (intern.setdefault(x, x)
                             for x in (cell[0], *cell[1]))
    return delta, (na, nb), (nc, nd)


def _step(rows: List[list], cells: Optional[dict] = None,
          intern: Optional[dict] = None) -> Tuple[List[list], List[list]]:
    """One shuffle step on a period's rows: its block factors and successor.

    Block [[a,b],[c,d]] is the cell a, b, d, c in cyclic order.  `cells`
    maps a block, keyed by the ids of its four entries, to its factor
    a*d + b*c and new weights (`_move`); a block not in it gets one
    `whole_cell` call, whose factor and new weights are interned in
    `intern`, so equal values the step makes are one object.  An orbit
    passes the same two tables to every step, so a block seen at any
    earlier step moves no cell again; every entry of the rows it passes
    is interned there, which keeps its id from being reused.  A call
    without the tables keys the blocks of `rows` alone.  A zero or
    undefined (None entry) block has factor None and leaves None where
    its new weights would go.  The successor is the new weights shifted
    one row up and one column left, by slicing.  Entries need only +, *,
    /, is_zero, == and hash.
    """
    cells = {} if cells is None else cells
    intern = {} if intern is None else intern
    factors, inv = [], []
    for upper, lower in zip(rows[::2], rows[1::2]):
        parts = upper[::2], upper[1::2], lower[::2], lower[1::2]
        keys = list(zip(*[map(id, part) for part in parts]))
        moved = list(map(cells.get, keys))
        if None in moved:
            for i, key in enumerate(keys):
                if key not in cells:
                    cells[key] = _move(*[part[i] for part in parts],
                                       intern=intern)
            moved = list(map(cells.__getitem__, keys))
        factors.append(list(map(_FACTOR, moved)))
        inv.append(list(chain.from_iterable(map(_UPPER, moved))))
        inv.append(list(chain.from_iterable(map(_LOWER, moved))))
    return factors, [row[1:] + row[:1] for row in inv[1:] + inv[:1]]


def _tables(factors: List[list], read: dict) -> tuple:
    """Packed prefix count table of one step's block factors, its count
    keys, their field width, the bias `_Orbit.factor` unpacks with and the
    step's zero blocks.

    The factors are `_step`'s.  `read` maps id(factor) to the factor's
    counts (`FactoredRF.counts`) and is filled here for a factor not in
    it; an orbit passes one table, and its factors are interned, so it
    reads each distinct factor's counts once.  Each factor's counts are
    packed into one signed int, the count of keys[i] times 2^(width*i).
    A rectangle sum of blocks has at most kb*lb terms, so with width one
    bit wider than kb*lb * max|count| every field of it stays within
    (-2^(width-1), 2^(width-1)) and the packed sums never carry from one
    key into the next.  table[i][j] sums the packed counts over the
    blocks above block row i and left of block column j.  Zero or
    undefined blocks (None) pack to 0 and are listed in row-major order.
    """
    bad = [(bi, bj) for bi, row in enumerate(factors)
           for bj, delta in enumerate(row) if delta is None]
    distinct = {id(delta): delta for row in factors for delta in row
                if delta is not None}
    for i, delta in distinct.items():
        if i not in read:
            read[i] = delta.counts()
    counts = [read[i] for i in distinct]
    keys = list(dict.fromkeys(chain.from_iterable(counts)))
    blocks = len(factors) * len(factors[0])
    width = (blocks * max(map(abs, chain.from_iterable(
        c.values() for c in counts)), default=0)).bit_length() + 1
    shift = {key: width * i for i, key in enumerate(keys)}
    packed = {i: sum(e << shift[key] for key, e in c.items())
              for i, c in zip(distinct, counts)}
    packed[id(None)] = 0
    table = [[0] * (len(factors[0]) + 1)]
    for row in factors:
        prefix = accumulate(map(packed.__getitem__, map(id, row)), initial=0)
        table.append(list(map(add, table[-1], prefix)))
    # 2^(width-1) in every field, which makes every field of a sum nonnegative
    bias = sum(1 << (width * i + width - 1) for i in range(len(keys)))
    return table, keys, width, bias, bad


class _Orbit:
    """The shuffle orbit P_0, P_1 = shuffle(P_0), ... of a period, walked once.

    `periods[j]` holds the rows of shuffle^j of the period, which step j
    starts from.  Every step has the period's block size (kb, lb) and keeps
    the packed count `_tables` of its block factors, from which `factor`
    reads the counts of any multiset of its blocks that an order or an
    orbit step uses.  The orbit keeps one intern table and one cell table
    for its whole walk: the period's entries and every factor and weight
    `_step` makes are interned, so equal values are one object, a block is
    keyed by the ids of its entries, and a block seen at any step moves
    its cell once.  The interned values keep those ids alive.  `_tables`
    reads each distinct factor's counts once per orbit, and
    `FactoredRF.from_counts` turns the sum of an order's counts into one
    value.

    No step is cut to the part an order reads, and none needs to be.  Step
    j serves order m = n - j, which leaves a block unused only when the
    period has more than m block rows or more than m block columns.  The
    successor entries of an unused block land only in rows or columns that
    order m - 1 does not read, the row and column that wrap around
    included.  So no used block ever reads the None a zero block leaves:
    the used factors, and every ZeroCellFactor an order raises, are those
    of the period cut to its read part (`_read_part`) at every step.
    """

    def __init__(self, period: PeriodMatrix):
        self.kb, self.lb = period.k // 2, period.l // 2
        self._intern: dict = {}
        self._cells: dict = {}
        self._counts: dict = {}
        self.periods: List[List[list]] = [
            [[self._intern.setdefault(e, e) for e in row]
             for row in period.entries]]
        self.steps: List[tuple] = []

    def _extend(self, count: int):
        """Walk until `count` steps are known."""
        while len(self.steps) < count:
            factors, successor = _step(self.periods[-1], self._cells,
                                       self._intern)
            self.periods.append(successor)
            self.steps.append(_tables(factors, self._counts))

    def factor(self, j: int, a: int = 1, r: int = 0, b: int = 1,
               c: int = 0) -> dict:
        """The counts of step j's block factors, each block's once by default.

        Block (i, i') is taken (a + [i < r]) * (b + [i' < c]) times, so the
        exponent of each key is the rectangle sum
        S[kb][lb]*ab + S[kb][c]*a + S[r][lb]*b + S[r][c] of its count table
        S.  The four packed sums are unpacked field by field, lowest key
        first: each plus the bias has the field 2^(width-1) + S, so the
        2^(width-1)'s of the four come off together as
        (a + 1)(b + 1) * 2^(width-1).
        """
        s, keys, width, bias, _ = self.steps[j]
        full, part = s[self.kb], s[r]
        whole, right = full[self.lb] + bias, full[c] + bias
        low, corner = part[self.lb] + bias, part[c] + bias
        mask, ab = (1 << width) - 1, a * b
        off = (a + 1) * (b + 1) << (width - 1)
        out = {}
        for key in keys:
            out[key] = ((whole & mask) * ab + (right & mask) * a
                        + (low & mask) * b + (corner & mask) - off)
            whole >>= width
            right >>= width
            low >>= width
            corner >>= width
        return out

    def step_factor(self, j: int) -> FactoredRF:
        """The factor of orbit step j + 1, each block's once.

        A zero or undefined block raises ZeroCellFactor naming the 1-based
        step and the first such block in row-major order.
        """
        self._extend(j + 1)
        bad = self.steps[j][-1]
        if bad:
            raise ZeroCellFactor(None, *bad[0], step=j + 1)
        return FactoredRF.from_counts(self.factor(j))

    def reduction(self, n: int, rounds: int) -> List[Tuple[int, dict]]:
        """(order, counts) for the first `rounds` reduction rounds from n.

        Block (i, j) of the order-m edge array uses period block
        (i mod kb, j mod lb), so with a, r = divmod(m, kb) and
        b, c = divmod(m, lb) block (i, j) of the step is used
        (a + [i < r]) * (b + [j < c]) times.  A zero or undefined block
        the order uses raises ZeroCellFactor naming the order and the
        first such block in row-major order.
        """
        out = []
        for j in range(rounds):
            self._extend(j + 1)
            m = n - j
            used = [(bi, bj) for bi, bj in self.steps[j][-1]
                    if bi < m and bj < m]
            if used:
                raise ZeroCellFactor(m, *used[0])
            out.append((m, self.factor(j, *divmod(m, self.kb),
                                       *divmod(m, self.lb))))
        return out


# the orbit read last, with the (k, l, entries) key of its period
_LAST_ORBIT: list = []


def _kept_orbit(period: PeriodMatrix) -> _Orbit:
    """The orbit of period, kept until a call asks for another period's.

    The orbit serves every order and every orbit step, so evaluation,
    orbit search, recurrence constants and shuffle all read the kept
    orbit and share its walk.  The key is a snapshot of the entries, so
    a period changed in place gets a new orbit; it is compared with ==,
    which short-cuts on identity entry by entry and hashes nothing.
    """
    key = (period.k, period.l, tuple(map(tuple, period.entries)))
    if not (_LAST_ORBIT and _LAST_ORBIT[0] == key):
        _LAST_ORBIT[:] = key, _Orbit(period)
    return _LAST_ORBIT[1]


def shuffle(p: PeriodMatrix) -> PeriodMatrix:
    """One weight-transformation round on the period matrix.

    Each 2x2 block [[a,b],[c,d]] (top-left at even indices) becomes
    [[d,c],[b,a]] / (a*d + b*c), then all columns are shifted up one row
    and all rows one column left.  The result is step 1 of p's kept
    orbit; a zero block raises ZeroCellFactor naming orbit step 1.
    """
    orbit = _kept_orbit(p)
    orbit.step_factor(0)
    return PeriodMatrix(orbit.periods[1])


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


def _diamond_vertices(n: int) -> List[Tuple[int, int]]:
    """The order-n vertices (a, b), both odd, |a| + |b| <= 2n, sorted."""
    return [(a, b)
            for a in range(-2 * n + 1, 2 * n, 2)
            for b in range(-2 * n + 1, 2 * n, 2)
            if abs(a) + abs(b) <= 2 * n]


def to_graph(inst: AztecInstance) -> WeightedGraph:
    """Build the weighted diamond graph matching the edge array.

    Vertex ids are doubled integer coordinates (2p+1, 2q+1) with
    |2p+1| + |2q+1| <= 2n.  Each distinct period entry is expanded once.
    """
    n, p = inst.n, inst.period
    expanded = {}
    g = WeightedGraph()
    verts = _diamond_vertices(n)
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
    verts = _diamond_vertices(n)
    vset = set(verts)
    cells = []
    for (a, b) in verts:
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
    edge array, read off the count tables of the period's blocks.  The
    successor period is the shuffle of the part the order-n array reads
    (`_read_part`), at every order including 1, walked on an orbit of
    that part that is not kept.  Order 0 raises ValueError; a zero block
    the order uses raises ZeroCellFactor naming the order.
    """
    if inst.n == 0:
        raise ValueError("cannot reduce order 0")
    orbit = _Orbit(PeriodMatrix(_read_part(inst.period.entries, inst.n)))
    [(_, counts)] = orbit.reduction(inst.n, 1)
    return FactoredRF.from_counts(counts).to_rf(), AztecInstance(
        inst.n - 1, PeriodMatrix(orbit.periods[1]))


def evaluate(inst: AztecInstance
             ) -> Tuple[RF, List[Tuple[int, FactoredRF]]]:
    """Exact matching generating function and its (order, factor) steps.

    The steps are read off the kept orbit of the period, so orders on
    one period share its walk; each step's counts become its factor.
    """
    steps = _kept_orbit(inst.period).reduction(inst.n, inst.n)
    return (FactoredRF.from_counts(*(c for _, c in steps)).to_rf(),
            [(m, FactoredRF.from_counts(c)) for m, c in steps])


def evaluate_factored(inst: AztecInstance) -> FactoredRF:
    """Exact matching generating function, left in factored form.

    Same pipeline as evaluate, but the sum of the steps' counts is never
    expanded; useful when the value has small factors at high powers.
    """
    steps = _kept_orbit(inst.period).reduction(inst.n, inst.n)
    return FactoredRF.from_counts(*(c for _, c in steps))


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
