"""Weighted graphs and the exhaustive matching generating function oracle.

The oracle is deliberately simple: number the vertices once in a
breadth-first sweep, branch on the lowest vertex still alive and recurse,
with each call memoizing its values on the set of vertices still alive.
Everything else in the package is ultimately checked against it.
It writes every edge weight over one common denominator D, sums products
of the numerators as packed integer terms, and divides the sum by D^(|V|/2)
once, at the end, by dividing out the irreducible factors of D while they
go: no gcd is taken.  An all-constant graph sums ints over the lcm of its
weights' denominators instead.  Enumerating matchings and summing
`matching_weight` in RationalFunction arithmetic is the slow, independent
reference for it.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, Hashable, Iterable, List, Tuple

from .exprs import parse
from .rational import RationalFunction, common_denominator

Vertex = Hashable
Edge = Tuple[Vertex, Vertex, RationalFunction]

DEFAULT_SIZE_CAP = 40


class SizeCapExceeded(RuntimeError):
    pass


class WeightedGraph:
    """Undirected graph with RationalFunction edge weights.

    At most one edge per vertex pair. Zero-weight edges are allowed; they
    stand for absent edges but keep the incidence structure explicit.
    add_edge converts int, Fraction and FactoredRF weights.
    """

    def __init__(self, vertices: Iterable[Vertex] = (),
                 edges: Iterable[Edge] = ()):
        self.vertices = set(vertices)
        self.weights: Dict[FrozenSet[Vertex], RationalFunction] = {}
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_edge(self, u: Vertex, v: Vertex, w):
        if u == v:
            raise ValueError(f"loop at {u!r}")
        w = RationalFunction._coerce(w)
        key = frozenset((u, v))
        if key in self.weights:
            raise ValueError(f"duplicate edge {u!r}-{v!r}")
        self.vertices.add(u)
        self.vertices.add(v)
        self.weights[key] = w

    def edges(self) -> List[Edge]:
        out = []
        for key, w in self.weights.items():
            u, v = sorted(key, key=repr)
            out.append((u, v, w))
        return out

    def weight(self, u: Vertex, v: Vertex) -> RationalFunction:
        return self.weights[frozenset((u, v))]

    def neighbors(self, v: Vertex) -> List[Vertex]:
        out = []
        for key in self.weights:
            if v in key:
                (other,) = key - {v}
                out.append(other)
        return out

    def copy(self) -> "WeightedGraph":
        g = WeightedGraph()
        g.vertices = set(self.vertices)
        g.weights = dict(self.weights)
        return g

    def __len__(self):
        return len(self.vertices)


def graph_to_json(g: WeightedGraph) -> str:
    vids = sorted(g.vertices, key=repr)
    return json.dumps({
        "vertices": [repr(v) if not isinstance(v, (str, int)) else v
                     for v in vids],
        "edges": [{"u": u if isinstance(u, (str, int)) else repr(u),
                   "v": v if isinstance(v, (str, int)) else repr(v),
                   "w": str(w)}
                  for u, v, w in g.edges()],
    })


def graph_from_json(text: str) -> WeightedGraph:
    """Read a graph_to_json text; ValueError names a wrong-shaped field."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("the top level must be a JSON object")
    vertices, edges = data["vertices"], data["edges"]
    if not (isinstance(vertices, list)
            and all(isinstance(v, (str, int)) for v in vertices)):
        raise ValueError("vertices must be a list of strings or ints")
    if not (isinstance(edges, list)
            and all(isinstance(e, dict) for e in edges)):
        raise ValueError("edges must be a list of objects")
    g = WeightedGraph(vertices)
    for e in edges:
        if not all(isinstance(e[x], (str, int)) for x in "uv"):
            raise ValueError("an edge's u and v must be strings or ints")
        if not isinstance(e["w"], str):
            raise ValueError("an edge's w must be a string")
        g.add_edge(e["u"], e["v"], parse(e["w"]))
    return g


def _indexed(g: WeightedGraph, size_cap: int):
    """Index g for the brute-force routines, in one sweep order.

    The order is breadth-first from a vertex of least degree, one
    component after another, with ties broken by repr (Cuthill-McKee).
    Branching on the lowest alive vertex then removes vertices along the
    sweep, so the alive sets reached differ only on the sweep's frontier.
    Returns the vertices in that order and one (index, weight) list per
    vertex.  Zero-weight edges stand for absent edges and are dropped here.
    """
    if len(g.vertices) > size_cap:
        raise SizeCapExceeded(
            f"{len(g.vertices)} vertices exceeds cap {size_cap}")
    adj: Dict[Vertex, List[Tuple[Vertex, RationalFunction]]] = {
        v: [] for v in g.vertices}
    for key, w in g.weights.items():
        if not w.is_zero():
            u, v = key
            adj[u].append((v, w))
            adj[v].append((u, w))
    index: Dict[Vertex, int] = {}
    for root in sorted(adj, key=lambda v: (len(adj[v]), repr(v))):
        if root in index:
            continue
        index[root] = len(index)
        queue = [root]
        for v in queue:  # breadth-first: the queue grows while it is read
            for u in sorted((u for u, _ in adj[v]), key=repr):
                if u not in index:
                    index[u] = len(index)
                    queue.append(u)
    order = list(index)
    nbrs = [[(index[u], w) for u, w in adj[v]] for v in order]
    return order, nbrs


def oracle_mgf(g: WeightedGraph, size_cap: int = DEFAULT_SIZE_CAP) -> RationalFunction:
    """Sum over all perfect matchings of the product of edge weights.

    Branches on the lowest alive vertex of `_indexed`'s sweep order.  Each
    call memoizes its values on the set of vertices still alive, so a
    residual region reached along many partial matchings is summed once.
    Every weight is first written over one common denominator D
    (`rational.common_denominator`), and since a perfect matching has
    |V|/2 edges, the value is the sum of products of numerators (its
    `dot`, on packed integer terms) over D^(|V|/2), put in canonical form
    once, at the end, by its `quotient`.
    If every weight is constant, D is the lcm of their denominators and
    the sum runs in ints.
    """
    _, nbrs = _indexed(g, size_cap)
    numerator, one, dot, quotient = common_denominator(
        (w for ws in nbrs for _, w in ws), len(nbrs) // 2)
    edges = [[(u, numerator(w)) for u, w in ws] for ws in nbrs]
    memo: Dict[int, object] = {}

    def go(alive: int):
        if not alive:
            return one
        total = memo.get(alive)
        if total is None:
            v = (alive & -alive).bit_length() - 1
            total = memo[alive] = dot(
                [(w, go(alive & ~(1 << v | 1 << u)))
                 for u, w in edges[v] if alive >> u & 1])
        return total

    return quotient(go((1 << len(nbrs)) - 1))


def enumerate_matchings(g: WeightedGraph, size_cap: int = DEFAULT_SIZE_CAP):
    """All perfect matchings, each a frozenset of vertex-pair frozensets.

    Zero-weight edges are treated as absent here: a matching through a
    missing edge contributes nothing.  Branches like oracle_mgf, on the
    lowest alive vertex of the same sweep order, without a memo, since
    every matching is listed.
    """
    order, nbrs = _indexed(g, size_cap)
    out = []

    def go(alive: int, chosen):
        if not alive:
            out.append(frozenset(chosen))
            return
        v = (alive & -alive).bit_length() - 1
        for u, _ in nbrs[v]:
            if alive >> u & 1:
                chosen.append(frozenset((order[v], order[u])))
                go(alive & ~(1 << v | 1 << u), chosen)
                chosen.pop()

    go((1 << len(order)) - 1, [])
    return out


def matching_weight(g: WeightedGraph, matching) -> RationalFunction:
    w = RationalFunction.const(1)
    for key in matching:
        w = w * g.weights[key]
    return w


def strip_forced(g: WeightedGraph):
    """Peel forced boundary edges.

    Removes degree-1 vertices together with their unique (nonzero) edge,
    repeatedly; returns (residual graph, product of removed edge weights)
    with M(g) = factor * M(residual). A stranded vertex means no perfect
    matching exists: factor 0, empty residual.
    """
    g = g.copy()
    factor = RationalFunction.const(1)
    while True:
        degree: Dict[Vertex, List[Vertex]] = {v: [] for v in g.vertices}
        for key, w in g.weights.items():
            if w.is_zero():
                continue
            u, v = tuple(key)
            degree[u].append(v)
            degree[v].append(u)
        dead = [v for v, ns in degree.items() if not ns]
        if dead:
            return WeightedGraph(), RationalFunction.const(0)
        leaves = [v for v, ns in degree.items() if len(ns) == 1]
        if not leaves:
            return g, factor
        v = leaves[0]
        u = degree[v][0]
        factor = factor * g.weight(v, u)
        for other in list(g.neighbors(v)):
            del g.weights[frozenset((v, other))]
        for other in list(g.neighbors(u)):
            del g.weights[frozenset((u, other))]
        g.vertices.discard(v)
        g.vertices.discard(u)


_split_counter = [0]


def split_vertex(g: WeightedGraph, v: Vertex, group_a, group_b) -> WeightedGraph:
    """Split v into two vertices joined by a two-edge unit path.

    group_a / group_b partition v's neighbors; each side keeps its edges.
    The matching generating function is unchanged.
    """
    if v not in g.vertices:
        raise ValueError(f"no vertex {v!r}")
    nbrs = set(g.neighbors(v))
    ga, gb = set(group_a), set(group_b)
    if ga | gb != nbrs or ga & gb:
        raise ValueError("groups must partition the neighbors")
    _split_counter[0] += 1
    tag = _split_counter[0]
    va, vm, vb = ("split_a", v, tag), ("split_m", v, tag), ("split_b", v, tag)
    out = WeightedGraph()
    out.vertices = (g.vertices - {v}) | {va, vm, vb}
    for key, w in g.weights.items():
        if v in key:
            (other,) = key - {v}
            side = va if other in ga else vb
            out.weights[frozenset((side, other))] = w
        else:
            out.weights[key] = w
    out.weights[frozenset((va, vm))] = RationalFunction.const(1)
    out.weights[frozenset((vm, vb))] = RationalFunction.const(1)
    return out
