"""Core hypergraph machinery: ordered hypergraphs, proper colorings,
exact chromatic search, and girth via the bipartite incidence graph.

The vertex order 0..n-1 of an :class:`OrderedHypergraph` is semantically
meaningful everywhere in this package (it carries the within-stage order of
the constructions and the x-order of geometric incidence hypergraphs), so no
operation here ever renumbers vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DomainError, NodeBudgetExceeded

DEFAULT_NODE_BUDGET = 10**9

Infinite = math.inf


class _LazySequence(Sequence):
    """A read-only sequence whose items are computed on demand by
    ``_item(i)`` for ``0 <= i < len(self)``.  Slices return lists,
    negative indices count from the end, and the view equals any sequence
    holding the same items in the same order.  Unhashable, like a list."""

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self._item(i)

    def __iter__(self):
        return map(self._item, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


class OrderedHypergraph:
    """A hypergraph on vertices ``0..n-1`` with a fixed, meaningful order.

    Edges are strictly increasing tuples of vertex indices, duplicate-free
    within each edge; the edge sequence may contain repeats (multiset
    semantics).  A hand-made or parsed hypergraph holds them in a list; a
    staged instance, built or loaded, holds a read-only sequence that
    computes each edge from its parent array
    (``construction._StagedEdges``).
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        if n < 0:
            raise DomainError("vertex count must be nonnegative", n=n)
        canonical = []
        for e in edges:
            t = tuple(sorted(set(e)))
            if t and (t[0] < 0 or t[-1] >= n):
                raise DomainError(
                    "edge vertex out of range", edge=list(t), n=n
                )
            canonical.append(t)
        self.n = n
        self.edges = canonical

    @classmethod
    def _from_sorted(cls, n: int, edges: Sequence) -> "OrderedHypergraph":
        # Internal fast path for builders that guarantee canonical edges
        # (strictly increasing tuples, in range), as a list or a computed
        # sequence.  Skips per-edge validation, which matters for
        # multi-million-edge instances.
        self = cls.__new__(cls)
        self.n = n
        self.edges = edges
        return self

    def __eq__(self, other):
        return (
            isinstance(other, OrderedHypergraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"OrderedHypergraph(n={self.n}, m={len(self.edges)})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "OrderedHypergraph":
        try:
            n, edges = d["n"], d["edges"]
            if type(edges) is not list or any(type(e) is not list for e in edges):
                raise DomainError("edges must be a JSON list of lists of vertex ids")
            if type(n) is not int or any(type(v) is not int for e in edges for v in e):
                raise DomainError("vertex count and vertex ids must be ints")
            return cls(n, edges)
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed hypergraph JSON: {exc}")


@dataclass(frozen=True)
class Coloring:
    """A map from vertices to the palette ``[0, c)``.

    ``colors`` may be any random-access integer sequence; large random
    colorings are handled as ``bytes`` so generation stays O(n) in C.
    """

    c: int
    colors: Sequence[int]

    def to_json_dict(self) -> dict:
        return {"c": self.c, "colors": list(self.colors)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Coloring":
        try:
            c, colors = d["c"], d["colors"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed coloring JSON: {exc}")
        if type(colors) is not list:
            raise DomainError("colors must be a JSON list")
        if type(c) is not int or c < 1:
            raise DomainError("palette size must be an int >= 1", c=c)
        for v, x in enumerate(colors):
            if type(x) is not int or not 0 <= x < c:
                raise DomainError("color must be an int in [0, c)", vertex=v, color=x, c=c)
        return cls(c, colors)


@dataclass(frozen=True)
class CyclesReport:
    """Girth plus one witness cycle.

    ``girth`` is a positive integer or the distinguished ``Infinite``
    (``math.inf``) when the hypergraph is acyclic.  A finite witness is a
    pair ``(vertices, edges)`` encoding the alternating cycle
    ``v_1, E_1, v_2, E_2, ..., v_g, E_g`` with ``v_i, v_{i+1}`` in ``E_i``
    and ``v_g, v_1`` in ``E_g``; vertices and edges are each distinct.
    """

    girth: float
    witness: Optional[tuple]

    def to_json_dict(self) -> dict:
        if self.girth is Infinite or self.girth == Infinite:
            return {"girth": "Infinite", "witness": None}
        vs, es = self.witness
        return {
            "girth": int(self.girth),
            "witness": {"vertices": list(vs), "edges": list(es)},
        }


def _check_coloring(H: OrderedHypergraph, col: Coloring) -> None:
    if len(col.colors) != H.n:
        raise DomainError(
            "coloring length does not match vertex count",
            expected=H.n,
            got=len(col.colors),
        )
    if H.n and max(col.colors) >= col.c:
        raise DomainError("color id out of palette", c=col.c)


def is_proper_coloring(H: OrderedHypergraph, col: Coloring) -> bool:
    """True iff no edge of ``H`` is monochromatic under ``col``.

    Edges of size <= 1 count as monochromatic by convention, so their
    presence makes every coloring improper.
    """
    return naive_monochromatic_edge(H, col) is None


def naive_monochromatic_edge(H: OrderedHypergraph, col: Coloring) -> Optional[int]:
    """Smallest index of a monochromatic edge, scanning everything.

    This is the oracle the constructive finder is cross-validated against.
    """
    _check_coloring(H, col)
    colors = col.colors
    for i, e in enumerate(H.edges):
        if not e:
            return i
        it = iter(e)
        c0 = colors[next(it)]
        if all(colors[v] == c0 for v in it):
            return i
    return None


def is_c_colorable(
    H: OrderedHypergraph, c: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[Coloring]:
    """A proper c-coloring of ``H``, or None if none exists.

    Exact backtracking in vertex order with the first vertex pinned to
    color 0 (proper colorability is invariant under palette permutation).
    The returned coloring is deterministic: the lexicographically first
    one in search order.  ``node_budget`` bounds the number of attempted
    assignments; exceeding it raises :class:`NodeBudgetExceeded`.
    """
    if c < 1:
        raise DomainError("palette size must be >= 1", c=c)
    if any(len(e) <= 1 for e in H.edges):
        return None  # such an edge is monochromatic under every coloring
    n = H.n
    if n == 0:
        return Coloring(c, ())

    # An edge can only become monochromatic when its largest vertex is
    # colored, so hang each edge off that vertex.
    by_last = [[] for _ in range(n)]
    for e in H.edges:
        by_last[e[-1]].append(e)

    assign = [0] * n
    # next_try[v]: the next color to attempt at vertex v when we are at it
    next_try = [0] * n
    next_try[0] = 0
    limit_first = 1  # vertex 0 is pinned to color 0
    v = 0
    nodes = 0
    while True:
        limit = limit_first if v == 0 else c
        tried = next_try[v]
        placed = False
        while tried < limit:
            nodes += 1
            if nodes > node_budget:
                raise NodeBudgetExceeded(
                    "chromatic search exceeded its node budget",
                    node_budget=node_budget,
                )
            assign[v] = tried
            ok = True
            for e in by_last[v]:
                col0 = assign[e[0]]
                if col0 == tried and all(assign[u] == col0 for u in e[1:-1]):
                    ok = False
                    break
            if ok:
                next_try[v] = tried + 1
                placed = True
                break
            tried += 1
        if placed:
            v += 1
            if v == n:
                return Coloring(c, tuple(assign))
            next_try[v] = 0
        else:
            # backtrack
            v -= 1
            if v < 0:
                return None


def chromatic_number(
    H: OrderedHypergraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Least c >= 1 admitting a proper c-coloring.

    Edges of size <= 1 are rejected: they are monochromatic under every
    coloring, so no finite palette works and the minimum is undefined.
    """
    return _least_coloring(H, node_budget).c


def _least_coloring(H: OrderedHypergraph, node_budget: int = DEFAULT_NODE_BUDGET) -> Coloring:
    """:func:`is_c_colorable`'s coloring for the least c that has one,
    found by trying c = 1, 2, … once each; the search
    :func:`chromatic_number` reports."""
    for e in H.edges:
        if len(e) <= 1:
            raise DomainError(
                "chromatic number undefined: edge of size <= 1 present",
                edge=list(e),
            )
    c = 1
    while True:
        col = is_c_colorable(H, c, node_budget=node_budget)
        if col is not None:
            return col
        c += 1


def edge_multiset_equal(H1: OrderedHypergraph, H2: OrderedHypergraph) -> bool:
    """True iff the edge multisets coincide under the identity vertex map."""
    if H1.n != H2.n:
        raise DomainError(
            "vertex-count mismatch", n1=H1.n, n2=H2.n
        )
    return sorted(H1.edges) == sorted(H2.edges)


def _incidence_adjacency(H: OrderedHypergraph):
    """Adjacency of the bipartite incidence graph.

    Nodes 0..n-1 are vertices; nodes n..n+m-1 are edges.
    """
    n = H.n
    adj = [[] for _ in range(n + len(H.edges))]
    for i, e in enumerate(H.edges):
        enode = n + i
        for v in e:
            adj[v].append(enode)
            adj[enode].append(v)
    return adj


def _trace_cycle(parent, u, w):
    """Node cycle through BFS-tree paths of u and w plus the edge (u, w)."""
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    path_w = [w]
    while parent[path_w[-1]] != -1:
        path_w.append(parent[path_w[-1]])
    # Trim the shared suffix down to the lowest common ancestor.
    while len(path_u) > 1 and len(path_w) > 1 and path_u[-2] == path_w[-2]:
        path_u.pop()
        path_w.pop()
    # path_u ends at the LCA, path_w too; avoid repeating it.
    return path_u + path_w[-2::-1]


def _canonical_witness(cycle_nodes, n):
    """Lexicographically smallest (vertices, edges) form over all rotations
    and both directions of an incidence-graph node cycle, in O(L).

    The cycle is simple, so each vertex occurs once and the smallest form
    starts at the smallest vertex.  Only two candidates remain: from there
    forward and from there backward."""
    start = cycle_nodes.index(min(cycle_nodes))  # vertex nodes are below n
    forward = cycle_nodes[start:] + cycle_nodes[:start]
    backward = forward[:1] + forward[:0:-1]
    return min(
        (tuple(nodes[0::2]), tuple(x - n for x in nodes[1::2]))
        for nodes in (forward, backward)
    )


def hypergraph_girth(H: OrderedHypergraph, node_budget: int = DEFAULT_NODE_BUDGET) -> CyclesReport:
    """Girth of ``H`` with a canonical witness.

    The girth is half the length of the shortest cycle of the bipartite
    vertex-edge incidence graph, found by BFS from the vertex nodes in id
    order (Itai & Rodeh), each search cut once it is deeper than half the
    shortest cycle so far.  An acyclic hypergraph reports the
    distinguished ``Infinite``.  Among the minimum-length cycles the sweep
    discovers, the returned witness is the lexicographically smallest
    canonical form (rotation + direction), which makes golden tests
    deterministic.

    One union-find pass over the edges first finds each component's
    vertices, edge nodes and arcs, hence its cycle rank (arcs − nodes + 1).
    A root is skipped when its component has rank 0, or rank 1 and its one
    cycle has been traced already: such a search could offer no cycle or
    only that one again, which changes neither the girth, the witness nor
    the depth cut of any later search.

    Before the first search, and before the incidence adjacency is built,
    the step bound Σ size_c·w_c over components c (size_c its incidence
    nodes plus arcs, n_c its vertices) is checked against
    ``node_budget``; past it, :class:`NodeBudgetExceeded`.  An acyclic
    component is never searched: w_c = 0.  The first cyclic one, if
    of rank 1, is searched once, uncut, and traces its cycle: w_c = 1.  Any
    other may search from every root, since a later one-cycle component's
    searches can all be cut short of its cycle: w_c = n_c.  A connected
    input of rank >= 2 gets n·(n + m + Σ|e|).  Tracing and canonicalizing
    each length-L cycle met costs O(L) more.
    """
    n = H.n
    # One union-find pass over the edges labels each vertex's component
    # and sums the component's edge nodes and arcs at its root (an empty
    # edge joins nothing and is never searched).
    up = list(range(n))
    edge_nodes, arcs = [0] * n, [0] * n
    for e in H.edges:
        a = -1
        for b in e:
            while up[b] != b:
                up[b] = b = up[up[b]]
            if a < 0:
                a = b
            elif b != a:
                up[b] = a
                edge_nodes[a] += edge_nodes[b]
                arcs[a] += arcs[b]
        if a >= 0:
            edge_nodes[a] += 1
            arcs[a] += len(e)
    # Components are numbered by their lowest vertex.  The cycle rank is
    # arcs − nodes + 1 (edges are canonical, so no two arcs join the same
    # pair); a component whose searches can offer no new cycle gets rank 0.
    comp, roots, verts = [0] * n, [], []
    label = [-1] * n
    for v in range(n):
        r = v
        while up[r] != r:
            up[r] = r = up[up[r]]
        if label[r] < 0:
            label[r] = len(roots)
            roots.append(r)
            verts.append(0)
        comp[v] = c = label[r]
        verts[c] += 1
    rank = []
    steps = 0
    for r, nv in zip(roots, verts):
        nodes = nv + edge_nodes[r]
        rank.append(arcs[r] - nodes + 1)
        if rank[-1]:
            # steps is 0 until the first cyclic component
            steps += (nodes + arcs[r]) * (1 if rank[-1] == 1 and not steps else nv)
    if steps > node_budget:
        raise NodeBudgetExceeded(
            "girth sweep would exceed the node budget", steps=steps, node_budget=node_budget
        )

    adj = _incidence_adjacency(H)
    total = len(adj)
    best_len = None  # incidence-graph cycle length (= 2 * girth)
    best_witness = None
    parent = [-1] * total
    stamp = [0] * total  # run in which the node was reached
    done = [0] * total  # run in which the node was expanded
    run = 0
    for root in range(n):
        c = comp[root]
        if not rank[c]:
            continue
        run += 1
        parent[root] = -1
        stamp[root] = run
        frontier = [root]
        d = 0
        while frontier:
            if best_len is not None and 2 * d > best_len:
                break
            nxt = []
            for u in frontier:
                done[u] = run
                for w in adj[u]:
                    if stamp[w] != run:
                        stamp[w] = run
                        parent[w] = u
                        nxt.append(w)
                    elif done[w] != run and parent[w] != u:
                        # a closing edge, met from whichever end expands
                        # first; the other end would trace the same cycle
                        cyc = _trace_cycle(parent, u, w)
                        clen = len(cyc)
                        if rank[c] == 1:
                            # the component's only cycle: later roots there
                            # could only offer it again
                            rank[c] = 0
                        if best_len is None or clen < best_len:
                            best_len = clen
                            best_witness = _canonical_witness(cyc, n)
                        elif clen == best_len and min(cyc) <= best_witness[0][0]:
                            # a witness starts at its cycle's smallest vertex
                            cand = _canonical_witness(cyc, n)
                            if cand < best_witness:
                                best_witness = cand
            frontier = nxt
            d += 1

    if best_len is None:
        return CyclesReport(Infinite, None)
    return CyclesReport(best_len // 2, best_witness)
