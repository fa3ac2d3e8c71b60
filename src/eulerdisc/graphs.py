"""Bipartite coefficient-pattern graphs and Feynman-style multigraphs.

Pattern graphs encode which entries of a coefficient matrix are nonzero:
left vertices 0..k are matrix rows, right vertices k+1..n are columns, and
an edge (i, j) means entry z_ij is a free variable.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, NamedTuple, Sequence, Tuple

from .errors import HypothesisError, InputError, SizeLimitError

__all__ = [
    "PatternGraph",
    "BipartiteSubgraph",
    "CosmoGraph",
    "SubgraphSelection",
    "induced",
    "is_connected",
    "reachable",
    "neighborhood",
    "condition_star",
    "star_violation",
    "connected_subgraphs",
    "automorphisms",
]


class PatternGraph:
    """Bipartite graph with left vertices 0..L-1 and right vertices L..L+R-1."""

    __slots__ = ("left_size", "right_size", "edges")

    def __init__(self, left_size: int, right_size: int, edges):
        edges = frozenset((int(i), int(j)) for i, j in edges)
        if left_size < 1 or right_size < 1:
            raise InputError("both sides must be nonempty")
        if not edges:
            raise InputError("edge set must be nonempty")
        L = left_size
        for i, j in edges:
            if not (0 <= i < L and L <= j < L + right_size):
                raise InputError(f"edge ({i}, {j}) out of range")
        # E edges cover at most 2E vertices: refuse a larger declared size
        # before building a set of that size
        if L + right_size > 2 * len(edges):
            raise InputError(
                f"isolated vertices not allowed: {L + right_size} vertices, "
                f"but {len(edges)} edges cover at most {2 * len(edges)}"
            )
        covered = {v for e in edges for v in e}
        missing = set(range(L + right_size)) - covered
        if missing:
            raise InputError(f"isolated vertices not allowed: {sorted(missing)}")
        self.left_size = left_size
        self.right_size = right_size
        self.edges = edges

    @property
    def left(self) -> Tuple[int, ...]:
        return tuple(range(self.left_size))

    @property
    def right(self) -> Tuple[int, ...]:
        return tuple(range(self.left_size, self.left_size + self.right_size))

    def edge_order(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def var_name(self, i: int, j: int) -> str:
        return f"z{i}{j}" if max(self.left_size + self.right_size - 1, 9) <= 9 else f"z{i}_{j}"

    def __eq__(self, other):
        return (
            isinstance(other, PatternGraph)
            and (self.left_size, self.right_size, self.edges)
            == (other.left_size, other.right_size, other.edges)
        )

    def __hash__(self):
        return hash((self.left_size, self.right_size, self.edges))

    def __repr__(self):
        return f"PatternGraph({self.left_size}, {self.right_size}, {sorted(self.edges)})"


class BipartiteSubgraph(NamedTuple):
    """Induced subgraph of a PatternGraph; isolated vertices are retained."""

    left: Tuple[int, ...]
    right: Tuple[int, ...]
    edges: FrozenSet[Tuple[int, int]]

    @property
    def vertices(self):
        return self.left + self.right


def induced(g: PatternGraph, I, J) -> BipartiteSubgraph:
    """Subgraph induced by I (left) and J (right), keeping isolated vertices."""
    I = tuple(sorted(I))
    J = tuple(sorted(J))
    if not set(I) <= set(g.left) or not set(J) <= set(g.right):
        raise InputError("induced subgraph vertices must come from the graph")
    keep = frozenset(e for e in g.edges if e[0] in set(I) and e[1] in set(J))
    return BipartiteSubgraph(I, J, keep)


def reachable(start, edges) -> set:
    """The vertices that start reaches along edges, start included.  Each
    edge is a sequence whose first two entries are its endpoints."""
    adj = {}
    for e in edges:
        adj.setdefault(e[0], []).append(e[1])
        adj.setdefault(e[1], []).append(e[0])
    seen = {start}
    stack = [start]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_connected(g) -> bool:
    """True iff the vertex set (isolated vertices included) is one component."""
    if isinstance(g, CosmoGraph):
        vertices, edges = range(1, g.vertex_count + 1), g.edges
    else:
        vertices, edges = g.left + g.right, g.edges
    return not vertices or len(reachable(vertices[0], edges)) == len(vertices)


def neighborhood(g, T) -> frozenset:
    """All vertices joined by an edge to some element of T."""
    T = set(T)
    out = set()
    for i, j in g.edges:
        if i in T:
            out.add(j)
        if j in T:
            out.add(i)
    return frozenset(out)


def condition_star(g) -> bool:
    """Expansion condition on a balanced bipartite (sub)graph.

    True iff either the left side is a single vertex and the graph is
    connected, or every nonempty proper subset W of the left side satisfies
    |W| < |N(W)|.
    """
    return star_violation(g) is None


def star_violation(g):
    """None when the condition holds, else a witness (a bad subset W or ())."""
    left = g.left
    if len(left) != len(g.right):
        raise InputError("condition requires equal side sizes")
    if len(left) > 12:
        raise SizeLimitError("left side larger than 12")
    if len(left) == 1:
        return None if is_connected(g) else ()
    for size in range(1, len(left)):
        for W in combinations(left, size):
            if len(neighborhood(g, W)) <= len(W):
                return frozenset(W)
    return None


# ---------------------------------------------------------------------------
# Feynman-style graphs (parallel edges allowed)


class CosmoGraph:
    """Connected multigraph on vertices 1..n; parallel edges carry unique ids."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Sequence[Tuple[int, int, str]]):
        edges = tuple((int(i), int(j), str(eid)) for i, j, eid in edges)
        if vertex_count < 1:
            raise InputError("need at least one vertex")
        ids = [eid for _, _, eid in edges]
        if len(set(ids)) != len(ids):
            raise InputError("edge ids must be unique")
        for i, j, _ in edges:
            if not (1 <= i <= j <= vertex_count):
                raise InputError(f"edge ({i}, {j}) out of range (need i <= j)")
        self.vertex_count = vertex_count
        self.edges = edges
        if not is_connected(self):
            raise HypothesisError("graph must be connected")

    @classmethod
    def from_pairs(cls, vertex_count: int, pairs) -> "CosmoGraph":
        """Build from (i, j) pairs; parallel edges get letter ids a, b, ..."""
        pairs = [tuple(sorted((int(i), int(j)))) for i, j in pairs]
        counts = {}
        for p in pairs:
            counts[p] = counts.get(p, 0) + 1
        parallel = sum(k for k in counts.values() if k > 1)
        if parallel > 26:
            raise InputError(f"{parallel} parallel edges: letter ids a-z allow at most 26")
        letters = iter("abcdefghijklmnopqrstuvwxyz")
        edges = []
        for p in pairs:
            if counts[p] == 1:
                edges.append((p[0], p[1], f"{p[0]}{p[1]}"))
            else:
                edges.append((p[0], p[1], next(letters)))
        return cls(vertex_count, edges)

    def is_tree(self) -> bool:
        return len(self.edges) == self.vertex_count - 1

    def __repr__(self):
        return f"CosmoGraph({self.vertex_count}, {list(self.edges)})"


def automorphisms(g: CosmoGraph):
    """Every automorphism of g, as (vertex map, edge-id map) dict pairs,
    the identity first and then in lexicographic order of vertex images.

    Vertex maps are found by backtracking over 1..n, keeping those that
    preserve the number of edges between every pair of vertices (loops
    included).  The k-th edge on a vertex pair, in edge order, goes to
    the k-th edge on the image pair, so composing two maps gives a third:
    the maps form a group.
    """
    n = g.vertex_count
    on_pair = {}
    for i, j, eid in g.edges:
        on_pair.setdefault((i, j), []).append(eid)

    def mult(u, v):
        return len(on_pair.get((min(u, v), max(u, v)), ()))

    out = []
    image = [0] * (n + 1)

    def extend(v, used):
        if v > n:
            vmap = {u: image[u] for u in range(1, n + 1)}
            emap = {}
            for (i, j), eids in on_pair.items():
                a, b = sorted((image[i], image[j]))
                emap.update(zip(eids, on_pair[(a, b)]))
            out.append((vmap, emap))
            return
        for t in range(1, n + 1):
            if t in used:
                continue
            image[v] = t
            if all(mult(u, v) == mult(image[u], t) for u in range(1, v + 1)):
                extend(v + 1, used | {t})

    extend(1, frozenset())
    return out


class SubgraphSelection(NamedTuple):
    """A vertex subset together with an endpoint-closed edge-id subset."""

    vertices: Tuple[int, ...]
    edge_ids: Tuple[str, ...]


def connected_subgraphs(g: CosmoGraph):
    """All connected subgraphs (V, E) with E inside the edges induced on V.

    Deterministic order: by |V|, then the sorted vertex tuple, then the
    sorted edge-id tuple.  Refuses a graph of more than 8 vertices or 12
    edges.
    """
    if g.vertex_count > 8 or len(g.edges) > 12:
        raise SizeLimitError("graph exceeds bounds (8 vertices / 12 edges)")
    out = []
    vertices = list(range(1, g.vertex_count + 1))
    for size in range(1, g.vertex_count + 1):
        for V in combinations(vertices, size):
            vs = set(V)
            inside = [e for e in g.edges if e[0] in vs and e[1] in vs]
            for esize in range(len(inside) + 1):
                for E in combinations(inside, esize):
                    if len(reachable(V[0], E)) == size:
                        out.append(
                            SubgraphSelection(V, tuple(sorted(e[2] for e in E)))
                        )
    return out

