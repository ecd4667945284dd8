"""Cellular completions and complementation on arbitrary graphs.

A cellular graph has its edges partitioned into 4-cycles (cells) with each
vertex in at most two cells.  Given a subgraph H of such a host, the
complement H' is another graph on the symmetric difference of V(H) with the
extremal vertices, carrying a derived weight, and

    M(H) = 2^{#partial cells} * (product of whole-cell factors) * M(H').

A cell whose four vertices H covers follows `whole_cell`, which the Aztec
shuffle (aztec.py) applies to every 2x2 block; any other cell follows
`partial_cell`.  The local rewrites apply the same rules to one gadget.
The rules were fixed by requiring exactly this identity to hold, verified
against the brute-force oracle on randomized completions covering every
cell kind (see tests); they are not guesses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .graphs import Vertex, WeightedGraph
from .rational import RationalFunction

RF = RationalFunction

Cell = Tuple[Vertex, Vertex, Vertex, Vertex]

# a cell's kind, keyed by how many of its vertices its subgraph edges touch
_KIND = {4: "whole", 3: "partial3", 2: "partial2", 0: "partial0"}


class CompletionError(ValueError):
    pass


def cell_edges(cell: Cell) -> List[FrozenSet[Vertex]]:
    return [frozenset((cell[i], cell[(i + 1) % 4])) for i in range(4)]


class CellularCompletion:
    """A host cellular graph G together with the subgraph H it completes.

    H is the member vertex set plus the edges in h_edges (zero weights are
    allowed in H; host edges outside H must carry weight 0).  When h_edges
    is omitted it defaults to the nonzero host edges between members.
    """

    def __init__(self, host: WeightedGraph, cells: Sequence[Cell],
                 members: Set[Vertex], h_edges=None):
        self.host = host
        self.cells = [tuple(c) for c in cells]
        self.members = set(members)
        if h_edges is None:
            h_edges = {e for e, w in host.weights.items()
                       if not w.is_zero() and e <= self.members}
        self.h_edges = {frozenset(e) for e in h_edges}
        self._validate()

    def _validate(self):
        seen: Dict[FrozenSet[Vertex], int] = {}
        # each vertex's cells in cell order, the one incidence map that the
        # checks, extremal_vertices and lines read
        self._cells_at: Dict[Vertex, List[int]] = {
            v: [] for v in self.host.vertices}
        for idx, cell in enumerate(self.cells):
            if len(set(cell)) != 4:
                raise CompletionError(f"cell {idx} must have 4 distinct vertices")
            for v in cell:
                if v not in self._cells_at:
                    raise CompletionError(f"cell {idx} uses unknown vertex {v!r}")
                self._cells_at[v].append(idx)
            for e in cell_edges(cell):
                if e not in self.host.weights:
                    raise CompletionError(f"cell {idx} edge {set(e)} not in host")
                if e in seen:
                    raise CompletionError(f"edge {set(e)} in two cells")
                seen[e] = idx
        for e in self.host.weights:
            if e not in seen:
                raise CompletionError(f"host edge {set(e)} not covered by a cell")
        for v, at in self._cells_at.items():
            if len(at) > 2:
                raise CompletionError(f"vertex {v!r} lies in {len(at)} cells")
            if not at:
                raise CompletionError(f"vertex {v!r} lies in no cell")
        for e in self.h_edges:
            if e not in self.host.weights:
                raise CompletionError(f"subgraph edge {set(e)} not in host")
            if not e <= self.members:
                raise CompletionError(
                    f"subgraph edge {set(e)} leaves the member set")
        for e, w in self.host.weights.items():
            if not w.is_zero() and e not in self.h_edges:
                raise CompletionError(
                    f"host edge {set(e)} outside the subgraph must have "
                    "weight 0")
        extremal = self.extremal_vertices()
        outside = self.host.vertices - self.members
        if not outside <= extremal:
            raise CompletionError(
                "non-member vertices must be extremal: "
                f"{sorted(outside - extremal, key=repr)}")
        # each cell must account for all of its member vertices through its
        # own subgraph edges; a member attached elsewhere but dangling here
        # is outside the reach of the complementation identity
        for idx, cell in enumerate(self.cells):
            touched = self._touched(cell)
            for v in cell:
                if v in self.members and v not in touched:
                    raise CompletionError(
                        f"member vertex {v!r} of cell {idx} is not an "
                        "endpoint of any of its subgraph edges")

    def extremal_vertices(self) -> Set[Vertex]:
        """Vertices lying in exactly one cell (the ends of all paths)."""
        return {v for v, at in self._cells_at.items() if len(at) == 1}

    def lines(self) -> List[List[int]]:
        """Cell sequences obtained by walking through opposite vertices.

        Each cell lies on two lines, one per diagonal.  A line is returned
        as the list of cell indices along the walk.
        """
        def other_cell(v: Vertex, idx: int):
            for j in self._cells_at[v]:
                if j != idx:
                    return j
            return None

        def walk(idx: int, v: Vertex):
            # follow v out of cell idx, jumping to opposite vertices; a
            # walk that comes back to its starting cell is a closed line
            out = []
            start = idx
            while True:
                j = other_cell(v, idx)
                if j is None:
                    return out, False
                if j == start:
                    return out, True
                out.append(j)
                cell = self.cells[j]
                v = cell[(cell.index(v) + 2) % 4]
                idx = j

        found = []
        seen = set()
        for idx, cell in enumerate(self.cells):
            for diag in (0, 1):
                x0, y0 = cell[diag], cell[diag + 2]
                fwd, closed = walk(idx, y0)
                if closed:
                    line = [idx] + fwd
                else:
                    back, _ = walk(idx, x0)
                    line = list(reversed(back)) + [idx] + fwd
                key = (closed, frozenset(line))
                if key not in seen:
                    seen.add(key)
                    found.append(line)
        return found

    def h_graph(self) -> WeightedGraph:
        """The subgraph H itself."""
        g = WeightedGraph(self.members)
        for e in self.h_edges:
            u, v = tuple(e)
            g.add_edge(u, v, self.host.weights[e])
        return g

    def _touched(self, cell: Cell) -> Set[Vertex]:
        """Vertices of the cell that are endpoints of its subgraph edges."""
        touched: Set[Vertex] = set()
        for e in cell_edges(cell):
            if e in self.h_edges:
                touched |= e
        return touched

    def cell_kind(self, idx: int) -> str:
        return _KIND[len(self._touched(self.cells[idx]))]


def whole_cell(w: Sequence) -> Tuple:
    """(delta, new) for a cell with weights w in cyclic order, all covered.

    delta = w0*w2 + w1*w3 is the cell's value and new = (w2, w3, w0, w1) /
    delta; a zero delta raises ZeroDivisionError before any division.
    Takes RationalFunction or FactoredRF weights.
    """
    delta = w[0] * w[2] + w[1] * w[3]
    if delta.is_zero():
        raise ZeroDivisionError("zero cell-factor w0*w2 + w1*w3")
    return delta, (w[2] / delta, w[3] / delta, w[0] / delta, w[1] / delta)


def partial_cell(w: Sequence[RF], covered: Sequence[bool]) -> List[RF]:
    """New weights of a cell with weights w, not all of its vertices covered.

    covered[i] says whether edge i (cell vertex i to i + 1) lies in the
    subgraph.  Read from the first covered edge on, the new weights are
      three covered vertices (edges x, y):  x/s, y/s, x/2, y/2, s = x^2 + y^2;
      two covered vertices (edge x):        1/(2x), 1/2, x/2, 1/2;
      no covered vertex:                    1/2 on every edge.
    A zero s or x raises ZeroDivisionError before anything is divided.
    """
    touched = sum(bool(covered[i] or covered[i - 1]) for i in range(4))
    if touched == 4:
        raise ValueError("every vertex of the cell is covered")
    half = RF.const(Fraction(1, 2))
    if touched == 0:
        return [half] * 4
    r = next(i for i in range(4) if covered[i] and not covered[i - 1])
    x = w[r]
    if touched == 3:
        y = w[(r + 1) % 4]
        s = x * x + y * y
        if s.is_zero():
            raise ZeroDivisionError(
                "degenerate weights x^2 + y^2 = 0 on a three-vertex cell")
        new = [x / s, y / s, x / 2, y / 2]
    else:
        if x.is_zero():
            raise ZeroDivisionError(
                "zero weight on the only edge of a two-vertex cell")
        new = [1 / (2 * x), half, x / 2, half]
    return new[-r:] + new[:-r]  # new[0] lands on edge r


def complement(comp: CellularCompletion):
    """Build (H', factor, partial_count) with
    M(H) = 2^partial_count * factor * M(H').
    """
    extremal = comp.extremal_vertices()
    new_vertices = comp.members ^ extremal
    hp = WeightedGraph(new_vertices)
    factor = RF.const(1)
    partial_count = 0
    for idx, cell in enumerate(comp.cells):
        edges = cell_edges(cell)
        w = [comp.host.weights[e] for e in edges]
        try:
            if comp.cell_kind(idx) == "whole":
                delta, new_w = whole_cell(w)
                factor = factor * delta
            else:
                new_w = partial_cell(w, [e in comp.h_edges for e in edges])
                partial_count += 1
        except ZeroDivisionError as err:
            raise ZeroDivisionError(f"cell {idx}: {err}") from None
        for e, wt in zip(edges, new_w):
            if e <= new_vertices:
                u, v = tuple(e)
                hp.add_edge(u, v, wt)
    return hp, factor, partial_count


def find_completion(h: WeightedGraph, host: WeightedGraph,
                    cells: Sequence[Cell]) -> CellularCompletion:
    """Complete h inside the given cellular host.

    Keeps only cells that meet an edge of h, zeroes host edges that are not
    in h, and detaches unused structure so the remaining non-member
    vertices are extremal.
    """
    for e in h.weights:
        if e not in host.weights:
            raise CompletionError(f"subgraph edge {set(e)} not in host")
    h_edge_set = set(h.weights)
    kept = [tuple(cell) for cell in cells
            if any(e in h_edge_set for e in cell_edges(cell))]
    used: Set[Vertex] = set()
    for cell in kept:
        used |= set(cell)
    g = WeightedGraph(used)
    for cell in kept:
        for e in cell_edges(cell):
            u, v = tuple(e)
            w = h.weights.get(e, RF.const(0))
            g.add_edge(u, v, w)
    if not set(h.vertices) <= used:
        raise CompletionError(
            "isolated subgraph vertices cannot be completed: "
            f"{sorted(set(h.vertices) - used, key=repr)}")
    return CellularCompletion(g, kept, set(h.vertices), h_edges=h_edge_set)


def _replace_gadget(g: WeightedGraph, gadget: Set[Vertex],
                    cycle: Sequence[Vertex], weights: Sequence[RF]):
    """g without the gadget's vertices, plus the 4-cycle `cycle`.

    Edge i of the cycle (cycle[i] to cycle[i + 1]) gets weights[i]; an
    edge that is already present raises ValueError.
    """
    out = WeightedGraph()
    out.vertices = g.vertices - gadget
    for e, wt in g.weights.items():
        if not e & gadget:
            out.weights[e] = wt
    for i in range(4):
        out.add_edge(cycle[i], cycle[(i + 1) % 4], weights[i])
    return out


def urban_renewal(g: WeightedGraph, inner: Cell,
                  outer: Sequence[Vertex]):
    """Replace a 4-cycle-with-pendants gadget by a plain 4-cycle.

    `inner` is a 4-cycle (cyclic order) whose vertices have no neighbors
    outside the gadget except through the pendant edges to the
    corresponding `outer` vertices.  The outer cycle carries the whole-cell
    weights of the inner one, scaled by the pendant weights at its ends.
    Returns (new graph, factor) with M(g) = factor * M(new graph).
    """
    delta, new = whole_cell([g.weight(inner[i], inner[(i + 1) % 4])
                             for i in range(4)])
    inner_set = set(inner)
    legs = []
    for i, v in enumerate(inner):
        nbrs = set(g.neighbors(v))
        if not nbrs <= inner_set | {outer[i]}:
            raise ValueError(f"inner vertex {v!r} has stray neighbors")
        legs.append(g.weight(v, outer[i]) if outer[i] in nbrs
                    else RF.const(0))
    weights = [legs[i] * legs[(i + 1) % 4] * new[i] for i in range(4)]
    return _replace_gadget(g, inner_set, outer, weights), delta


def _leg(g: WeightedGraph, v: Vertex, gadget: Set[Vertex]) -> Vertex:
    """The unique unit-weight edge leaving the gadget at v."""
    outside = [u for u in g.neighbors(v) if u not in gadget]
    if len(outside) != 1:
        raise ValueError(f"gadget vertex {v!r} needs exactly one outside "
                         f"neighbor, has {len(outside)}")
    if g.weight(v, outside[0]) != RF.const(1):
        raise ValueError(f"leg at {v!r} must have weight 1")
    return outside[0]


def lemma26_rewrite(g: WeightedGraph, variant: str,
                    embedding: Sequence[Vertex]):
    """Local factor-2 rewrites complementing partial cells.

    variant "a": embedding = (A, B, C), a path with edges AB, BC whose
    vertices attach to the rest of the graph only through unit-weight legs
    A-a, B-b, C-c.  The path is removed and replaced by a 4-cycle
    a-b-c-D with a fresh vertex D, weighted as a three-vertex partial cell.

    variant "b": embedding = (A, B), a single edge with unit legs A-a and
    B-b; replaced by a 4-cycle a-b-C-D with two fresh vertices, weighted as
    a two-vertex partial cell.

    Either way M(g) = 2 * M(result): matchings covering the gadget
    internally correspond to matchings exposing the leg ends, and vice
    versa, in a two-to-one weighted fashion.
    """
    zero = RF.const(0)
    if variant == "a":
        a_, b_, c_ = embedding
        w = [g.weight(a_, b_), g.weight(b_, c_), zero, zero]
        covered = [True, True, False, False]
        fresh = [("l26a", a_, b_, c_)]
    elif variant == "b":
        a_, b_ = embedding
        w = [g.weight(a_, b_), zero, zero, zero]
        covered = [True, False, False, False]
        fresh = [("l26b_c", a_, b_), ("l26b_d", a_, b_)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    gadget = set(embedding)
    cycle = [_leg(g, v, gadget) for v in embedding] + fresh
    return (_replace_gadget(g, gadget, cycle, partial_cell(w, covered)),
            RF.const(2))
