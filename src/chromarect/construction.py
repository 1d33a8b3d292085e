"""Builders for the explicit hypergraph families and the constructive
monochromatic-edge finder.

Two families are built here:

* ``build_Hkc(k, c)`` — the staged k-uniform hypergraph that no proper
  c-coloring can avoid.  Its vertices are organized in *stages* of *levels*
  0..k-1; a stage of level j has m**(k-j) vertices split into consecutive
  *blocks* of m, where m is the vertex count of the (k, c-1) instance.
  Each block carries an embedded copy of the (k, c-1) instance (the
  *transversal* edges), and every level-(k-1) vertex contributes its
  root-to-leaf *path* edge.

* ``build_Gcg(c, g)`` — a 2-uniform analogue with girth at least g and
  chromatic number above c, grown around a certified auxiliary hypergraph.

Both produce a :class:`StagedHypergraph`, whose stage layout is
level-homogeneous: every stage of a level has the same size, block shape
and child count.  A stage is therefore its level's :class:`LevelInfo`
record plus its position within the level; nothing per stage is stored.
That keeps stage metadata O(levels) instead of O(stages), keeps vertex ids
contiguous per stage, and lets the finder walk the stages by arithmetic —
the multi-million-vertex instances depend on it.

Vertex global order is creation order: stages level by level, stages of a
level in lexicographic parent order, vertices within a stage in stage
order.  Edge global order is: all path edges (by their defining last-level
vertex), then all transversal edges (by stage, block, then edge index
within the embedded copy).

A staged instance, built or loaded, stores no edge list.  Its
``base.edges`` is a read-only sequence computed from the parent array: a
path edge is a leaf and its ancestors, and a transversal edge is a
template edge shifted into its block.  The H(3,2) instance (2,184,822
edges) thus keeps three integer arrays instead of some 300 MB of tuples.
A staged file holds the header (kind, k, c, m, n), the parents, the
edges and the copy template; the loader derives the level layout from
the header, rebuilds the instance through the builders' own assembly
code, and rejects a file whose edges differ from the computed ones.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from operator import eq, ne
from typing import Callable, Optional, Sequence

from .errors import (
    DomainError,
    PaletteExceedsGuarantee,
    SearchBudgetExceeded,
    SizeLimitExceeded,
)
from .hypergraph import (
    Coloring,
    OrderedHypergraph,
    _LazySequence,
    hypergraph_girth,
    is_c_colorable,
)

DEFAULT_MAX_VERTICES = 10**7


@dataclass(frozen=True)
class LevelInfo:
    """Shape shared by all stages of one level.  Stage ``pos`` of the level
    holds vertices ``first_vertex + pos * stage_size`` onwards; its child
    stages are positions ``pos * children_per_stage`` onwards on the next
    level."""

    n_stages: int
    first_vertex: int
    stage_size: int
    block_size: int
    blocks_per_stage: int
    children_per_stage: int


class _StagedEdges(_LazySequence):
    """The edges of a staged instance, computed from its parent array rather
    than stored.

    Path edges come first, one per leaf ``first_leaf..n-1``: path edge i is
    leaf ``first_leaf + i`` and its k-1 ancestors, root first.  Then the
    transversal edges, one copy of ``template`` per block of ``stride``
    vertices from ``origin`` to n: transversal edge t is template edge
    ``t % len(template)`` shifted by ``origin + (t // len(template)) *
    stride``.  An item costs O(k); :meth:`columns` gives all edges at once
    as k integer arrays, and iteration walks those columns."""

    def __init__(
        self,
        k: int,
        parent: array,
        root: array,
        first_leaf: int,
        template: Sequence[tuple],
        origin: int,
        stride: int,
    ):
        self._k = k
        self._parent = parent
        self._root = root
        self._first_leaf = first_leaf
        # one block's worth of edges, so holding them as tuples is cheap
        self._template = tuple(template)
        self._origin = origin
        self._stride = stride
        self._n_path = len(parent) - first_leaf
        self._n_blocks = (len(parent) - origin) // stride
        self._len = self._n_path + self._n_blocks * len(self._template)

    def __len__(self) -> int:
        return self._len

    def _item(self, i: int) -> tuple:
        if i < self._n_path:
            v = self._first_leaf + i
            path = [v]
            for _ in range(self._k - 1):
                v = self._parent[v]
                path.append(v)
            return tuple(reversed(path))
        block, t = divmod(i - self._n_path, len(self._template))
        shift = self._origin + block * self._stride
        return tuple(map(shift.__add__, self._template[t]))

    def __iter__(self):
        return zip(*self.columns())

    def columns(self) -> list:
        """The k edge columns as ``array('l')``: column j holds member j
        of every edge, in edge order.  Path columns are slices of the
        parent and root arrays (a C-level parent lookup per extra level
        when k > 3); transversal columns interleave one strided range per
        template edge."""
        lo, parent = self._first_leaf, self._parent
        cols = [array("l", range(lo, len(parent)))]
        if self._k > 1:
            cols.append(parent[lo:])
        for _ in range(self._k - 3):
            cols.append(array("l", map(parent.__getitem__, cols[-1])))
        if self._k > 2:
            cols.append(self._root[lo:])
        cols.reverse()
        per_copy, stride = len(self._template), self._stride
        span = self._n_blocks * stride
        for col, members in zip(cols, zip(*self._template)):
            part = array("l", [0]) * (self._n_blocks * per_copy)
            for t, u in enumerate(members):
                start = self._origin + u
                part[t::per_copy] = array("l", range(start, start + span, stride))
            col.extend(part)
        return cols


class StagedHypergraph:
    """A staged instance plus all its stage metadata: ``levels`` holds one
    :class:`LevelInfo` per level, and a stage is a level record plus a
    position within that level.

    ``kind`` is ``"hkc"`` for the staged k-uniform family and ``"gcg"`` for
    the large-girth graphs (whose level-1 stages hang off auxiliary-edge
    parents rather than f_m subsets, and whose level-0 stage has no blocks).
    Both builders and :meth:`from_json_dict` end in :func:`_staged`, so a
    built instance and its loaded file hold the same fields.
    """

    __slots__ = (
        "kind",
        "base",
        "k",
        "c",
        "m",
        "parent",
        "root",
        "levels",
        "path_edges",
        "copy_template",
    )

    def __init__(
        self,
        kind: str,
        base: OrderedHypergraph,
        k: int,
        c: int,
        m: int,
        parent: array,
        root: array,
        levels: Sequence[LevelInfo],
        n_path_edges: int,
        copy_template: Optional["StagedHypergraph"],
    ):
        self.kind = kind
        self.base = base
        self.k = k
        self.c = c
        self.m = m
        self.parent = parent
        self.root = root
        self.levels = tuple(levels)
        self.path_edges = range(n_path_edges)
        self.copy_template = copy_template

    @property
    def n(self) -> int:
        return self.base.n

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: the header, the edges and the parent array.  The level
        layout follows from the header and the parents, so it is not written."""
        d = self.base.to_json_dict()
        d["parents"] = [None if p < 0 else p for p in self.parent]
        d["kind"] = self.kind
        d["k"] = self.k
        d["c"] = self.c
        d["m"] = self.m
        d["copy_template"] = (
            self.copy_template.to_json_dict() if self.copy_template else None
        )
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "StagedHypergraph":
        """Parse a staged file.  The header must name an instance the
        builders can make, the parents must fit its level layout, and
        ``edges`` must be exactly the edges those parents define.  Other
        keys are ignored."""
        try:
            kind, k, c, m, n = d["kind"], d["k"], d["c"], d["m"], d["n"]
            parents, edges, sub = d["parents"], d["edges"], d["copy_template"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed staged-hypergraph JSON: {exc}")
        if kind not in ("hkc", "gcg"):
            raise DomainError("staged kind must be hkc or gcg", kind=kind)
        if any(type(x) is not int or x < 1 for x in (k, c, m, n)):
            raise DomainError("k, c, m and n must be ints >= 1", k=k, c=c, m=m, n=n)
        if (sub is None) != (c == 1):
            raise DomainError("copy_template must be null exactly when c == 1", c=c)
        template = None
        if c == 1:
            if not k == m == n:
                raise DomainError("a c = 1 instance has k = m = n", k=k, m=m, n=n)
        else:
            template = cls.from_json_dict(sub)
            if (template.kind, template.k, template.c, template.n) != (kind, k, c - 1, m):
                raise DomainError(
                    "copy_template must be the c - 1 instance of the same kind "
                    "and k, on m vertices",
                    kind=kind,
                    k=k,
                    c=c,
                    m=m,
                )
        # checked before any level is derived: a false hkc header could ask
        # for double-exponentially many stages
        if kind == "hkc" and _vertices_capped(k, c, n) != n:
            raise DomainError("n is not the vertex count of H(k, c)", k=k, c=c, n=n)
        if kind == "gcg" and k != 2:
            raise DomainError("gcg instances are 2-uniform", k=k)
        if c == 1:
            levels = _base_levels(n)
        elif kind == "hkc":
            levels = _hkc_levels(k, m)
        else:
            n_h = parents.count(None) if isinstance(parents, list) else 0
            if (n - n_h) % m:
                raise DomainError(
                    "the vertices below level 0 must fill stages of m", n=n, m=m, level_0=n_h
                )
            levels = _gcg_levels(n_h, m, (n - n_h) // m)
        parent = _parents_from_json(parents, levels, n)
        root = array("l", [0]) * n
        for v in range(n):
            p = parent[v]
            root[v] = v if p < 0 else root[p]
        S = _staged(kind, k, c, m, parent, root, levels, template)
        computed = S.base.edges
        if (
            not isinstance(edges, list)
            or len(edges) != len(computed)
            or not set(map(type, edges)) <= {list}
            or not set(map(type, chain.from_iterable(edges))) <= {int}
        ):
            raise DomainError(
                "edges must be a list of int lists, one per edge of the instance",
                expected=len(computed),
            )
        if not all(map(eq, map(tuple, edges), computed)):
            bad = next(compress(count(), map(ne, map(tuple, edges), computed)))
            raise DomainError("edges disagree with the edges the parents define", edge=bad)
        return S


def _parents_from_json(parents, levels, n) -> array:
    """The parent array: None (-1) on level 0, a previous-level vertex elsewhere."""
    if not isinstance(parents, list) or len(parents) != n:
        raise DomainError("parents must hold one entry per vertex", n=n)
    parent = array("l", [-1]) * n
    top = levels[0]
    if any(p is not None for p in parents[: top.n_stages * top.stage_size]):
        raise DomainError("level-0 vertices must have no parent")
    for j, (prev, li) in enumerate(zip(levels, levels[1:]), start=1):
        lo, hi = prev.first_vertex, li.first_vertex
        for v in range(hi, hi + li.n_stages * li.stage_size):
            p = parents[v]
            if type(p) is not int or not lo <= p < hi:
                raise DomainError(
                    "parent must be a vertex of the previous level",
                    vertex=v,
                    parent=p,
                    level=j,
                )
            parent[v] = p
    return parent


def _staged(kind, k, c, m, parent, root, levels, template) -> StagedHypergraph:
    """The instance on ``parent`` and ``levels``, with its edges computed
    (:class:`_StagedEdges`).  A c = 1 instance is a single edge on all its
    vertices; it counts as the embedded copy of itself, which keeps the
    recursion uniform.  Otherwise the path edges run from the first
    last-level vertex, and the template's edges repeat in every block of
    m vertices: from vertex 0 for hkc, from the first level-1 vertex for
    gcg, whose level 0 has no blocks."""
    n = len(parent)
    if c == 1:
        first_leaf, origin, copy = n, 0, [tuple(range(n))]
    else:
        first_leaf = levels[-1].first_vertex
        origin = first_leaf if kind == "gcg" else 0
        copy = template.base.edges
    edges = _StagedEdges(k, parent, root, first_leaf, copy, origin, m)
    base = OrderedHypergraph._from_sorted(n, edges)
    return StagedHypergraph(kind, base, k, c, m, parent, root, levels, n - first_leaf, template)


def _base_levels(n: int) -> list:
    """Level layout of a c = 1 instance: one stage holding one block."""
    return [LevelInfo(1, 0, n, n, 1, 0)]


def _base_instance(kind: str, k: int) -> StagedHypergraph:
    """The c = 1 instance: one edge on k vertices, each its own root."""
    parent = array("l", [-1]) * k
    return _staged(kind, k, 1, k, parent, array("l", range(k)), _base_levels(k), None)


# ---------------------------------------------------------------------------
# H_k^c


_PREDICT_CEILING = 10**18


def _capped_pow(base: int, exp: int, cap: int) -> int:
    """base**exp, or cap + 1 as soon as the power passes cap.  Counting the
    stage cascade exactly would form double-exponential integers; this
    never multiplies past the cap."""
    if base <= 1:
        return base
    r = 1
    for _ in range(exp):
        r *= base
        if r > cap:
            return cap + 1
    return r


def _vertices_capped(k: int, c: int, cap: int) -> int:
    """Vertex count of the (k, c) instance, or cap + 1 once the total is
    known to exceed cap.  Exact whenever the returned value is <= cap."""
    if c == 1:
        return k
    m = _vertices_capped(k, c - 1, cap)
    if m > cap:
        return cap + 1
    n = 0
    stages = 1
    for j in range(k):
        n += stages * _capped_pow(m, k - j, cap)
        if n > cap:
            return cap + 1
        if j < k - 1:
            blocks = _capped_pow(m, k - j - 1, cap)
            stages *= _capped_pow(m, blocks, cap)
            if stages > cap:
                return cap + 1
    return n


def predict_hkc_counts(k: int, c: int) -> tuple:
    """(vertex count, edge count) of build_Hkc(k, c), by closed-form stage
    counting — no construction involved.  Counts are double-exponential in
    c: beyond desk scale the exact integers are too large to materialize,
    so size guards use :func:`_vertices_capped` instead."""
    if k < 1 or c < 1:
        raise DomainError("k and c must be positive", k=k, c=c)
    if c == 1:
        return k, 1
    m, template_edges = predict_hkc_counts(k, c - 1)
    vertices = 0
    transversal_blocks = 0
    stages = 1
    for j in range(k):
        vertices += stages * m ** (k - j)
        transversal_blocks += stages * m ** (k - j - 1)
        if j < k - 1:
            stages *= m ** (m ** (k - j - 1))
    leaves = stages * m  # `stages` is now the last-level stage count
    return vertices, leaves + transversal_blocks * template_edges


def _hkc_levels(k: int, m: int) -> list:
    """Level layout of H(k, c) for c > 1, where m is the vertex count of
    H(k, c - 1): a level-j stage holds m**(k-j) vertices in blocks of m,
    and each stage of a non-last level has m**blocks child stages."""
    levels = []
    first_vertex = 0
    n_stages = 1
    for j in range(k):
        size = m ** (k - j)
        blocks = m ** (k - j - 1)
        children = m**blocks if j < k - 1 else 0
        levels.append(LevelInfo(n_stages, first_vertex, size, m, blocks, children))
        first_vertex += n_stages * size
        n_stages *= children if children else 1
    return levels


def build_Hkc(
    k: int, c: int, max_vertices: int = DEFAULT_MAX_VERTICES
) -> StagedHypergraph:
    """The staged k-uniform hypergraph with no proper c-coloring."""
    if k < 1 or c < 1:
        raise DomainError("k and c must be positive", k=k, c=c)
    ceiling = max(max_vertices, _PREDICT_CEILING)
    predicted = _vertices_capped(k, c, ceiling)
    if predicted > max_vertices:
        raise SizeLimitExceeded(
            "predicted vertex count exceeds the limit",
            predicted_vertices=(
                predicted if predicted <= ceiling else f"> {ceiling}"
            ),
            max_vertices=max_vertices,
        )

    if c == 1:
        return _base_instance("hkc", k)

    template = build_Hkc(k, c - 1, max_vertices)
    m = template.n
    levels = _hkc_levels(k, m)
    n = levels[-1].first_vertex + levels[-1].n_stages * levels[-1].stage_size

    parent = array("l", [-1]) * n
    root = array("l", [0]) * n
    for v in range(levels[0].stage_size):
        root[v] = v

    # Fill parents level by level.  Child stages of a stage enumerate the
    # f_m choice tuples in lexicographic order; an odometer over the choice
    # digits avoids re-deriving each tuple from its rank.
    for j in range(k - 1):
        li, lj = levels[j], levels[j + 1]
        child_size = lj.stage_size
        v = lj.first_vertex
        for p_pos in range(li.n_stages):
            p_start = li.first_vertex + p_pos * li.stage_size
            choice = [0] * li.blocks_per_stage
            for _ in range(li.children_per_stage):
                for b in range(child_size):
                    pv = p_start + b * m + choice[b]
                    parent[v] = pv
                    root[v] = root[pv]
                    v += 1
                d = child_size - 1
                while d >= 0 and choice[d] == m - 1:
                    choice[d] = 0
                    d -= 1
                if d >= 0:
                    choice[d] += 1

    return _staged("hkc", k, c, m, parent, root, levels, template)


# ---------------------------------------------------------------------------
# constructive finder


def _find_mono(S: StagedHypergraph, colors, voffset: int, palette: tuple) -> int:
    """Locate a monochromatic edge of the copy of S living at vertex offset
    ``voffset``, assuming the copy is colored only with ``palette`` colors.
    Returns a local edge index of S.  The walk visits one stage per level,
    as a (level record, position) pair; cost is polynomial in the number
    of levels and block shapes — no edge scan."""
    if S.c == 1 or len(palette) == 1:
        # Either the base instance (whose single edge is monochromatic under
        # any 1-coloring), or a single-color palette: the first path edge's
        # members all carry palette[0] if the precondition held.  Path edges
        # come first, so either way the guaranteed edge is edge 0; the
        # top-level verification checks it.
        return 0
    tracked = palette[0]
    m = S.m
    pos = 0
    blocks_before = 0  # transversal blocks on the levels above
    for li in S.levels:
        start = li.first_vertex + pos * li.stage_size
        rank = 0
        for b in range(li.blocks_per_stage):
            lo = start + b * m
            for u in range(lo, lo + m):
                if colors[voffset + u] == tracked:
                    rank = rank * m + (u - lo)  # choice digit within the block
                    break
            else:
                # Block omits the tracked color entirely: its embedded copy
                # is colored with the remaining palette and must contain a
                # monochromatic edge of its own.
                sub = _find_mono(S.copy_template, colors, voffset + lo, palette[1:])
                block = blocks_before + pos * li.blocks_per_stage + b
                return len(S.path_edges) + block * len(S.copy_template.base.edges) + sub
        if not li.children_per_stage:
            # Last level, a single block with the tracked color present: that
            # leaf's whole path was built through tracked picks, so its path
            # edge is forced.
            return start + rank - li.first_vertex
        # Descend into the child stage selected by the tracked picks.
        blocks_before += li.n_stages * li.blocks_per_stage
        pos = pos * li.children_per_stage + rank


def find_monochromatic_edge(
    S: StagedHypergraph, col: Coloring, tracked_color: int = 0
) -> int:
    """Index of a monochromatic edge under ``col``, found *without* scanning
    the edge set.

    Follows the non-colorability argument: track one color down the stages,
    descending through the child stage picked by per-block tracked vertices;
    a block missing the tracked color hands the problem to its embedded
    copy with the remaining palette.  The result is verified in O(k); if the
    coloring used more colors than the structure's guarantee covers and the
    walk produced a non-monochromatic edge, ``PaletteExceedsGuarantee`` is
    raised.
    """
    if S.kind != "hkc":
        raise DomainError("finder applies to the staged k-uniform family only")
    if len(col.colors) != S.n:
        raise DomainError(
            "coloring length does not match vertex count",
            expected=S.n,
            got=len(col.colors),
        )
    # the walk reads at most S.c palette entries, so a huge col.c costs nothing
    others = (x for x in range(col.c) if x != tracked_color)
    palette = tuple(islice(chain((tracked_color,), others), S.c))
    idx = _find_mono(S, col.colors, 0, palette)
    e = S.base.edges[idx]
    colors = col.colors
    c0 = colors[e[0]]
    if any(colors[u] != c0 for u in e):
        raise PaletteExceedsGuarantee(
            "no monochromatic edge on the traversed blocks; the coloring "
            "exceeds the palette this structure guarantees against",
            colors_used=len(set(colors)),
            guarantee=S.c,
        )
    return idx


# ---------------------------------------------------------------------------
# auxiliary providers and G^c(g)


def odd_cycle_supply(uniformity: int, g: int, c: int) -> OrderedHypergraph:
    """The cycle C_g' for the smallest odd g' >= max(g, 3), exhaustively
    checked (girth computed, 2-colorability decided).  Odd cycles fit only
    2-uniform, chromatic-bound-3 requests."""
    if uniformity != 2 or c != 2:
        raise DomainError(
            "odd-cycle provider only supplies 2-uniform auxiliaries with "
            "chromatic number 3",
            uniformity=uniformity,
            c=c,
        )
    if g < 2:
        raise DomainError("girth requirement must be >= 2", g=g)
    gp = g if g % 2 else g + 1
    gp = max(gp, 3)
    edges = [(i, i + 1) for i in range(gp - 1)] + [(0, gp - 1)]
    H = OrderedHypergraph(gp, edges)
    assert hypergraph_girth(H).girth == gp
    assert is_c_colorable(H, 2) is None
    return H


def random_search_provider(
    uniformity: int, g: int, c: int, budget: int, seed: int = 0
) -> OrderedHypergraph:
    """Sample random uniform edge sets until one verifies (girth >= g and
    not properly c-colorable, both machine-checked), or the trial budget
    runs out."""
    if uniformity < 2 or g < 2 or c < 1 or budget < 1:
        raise DomainError(
            "bad provider parameters", uniformity=uniformity, g=g, c=c, budget=budget
        )
    rng = random.Random(seed)
    base_n = max(uniformity + 1, g, 5)
    for trial in range(budget):
        n = base_n + (trial % 8)
        want = n + (trial % 3) * max(1, n // 4)
        edges = set()
        for _ in range(want):
            edges.add(tuple(sorted(rng.sample(range(n), uniformity))))
        H = OrderedHypergraph(n, sorted(edges))
        if hypergraph_girth(H).girth < g:
            continue
        if is_c_colorable(H, c) is not None:
            continue
        return H
    raise SearchBudgetExceeded(
        "no certified auxiliary hypergraph found within the trial budget",
        budget=budget,
        uniformity=uniformity,
        g=g,
        c=c,
    )


def _gcg_levels(n_h: int, m: int, n_edges_h: int) -> list:
    """Level layout of G(c, g) for c > 1 around an auxiliary hypergraph of
    n_h vertices and n_edges_h edges of size m: a blockless level-0 stage,
    then one m-vertex stage per auxiliary edge."""
    return [
        LevelInfo(1, 0, n_h, m, 0, n_edges_h),
        LevelInfo(n_edges_h, n_h, m, m, 1, 0),
    ]


def build_Gcg(
    c: int,
    g: int,
    provider: Callable = odd_cycle_supply,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> StagedHypergraph:
    """2-uniform graph with girth >= g and no proper c-coloring.

    For c = 1 this is a single edge (its stage metadata is one level-0
    stage of two vertices with one internal edge — a deliberate degenerate
    shape so the recursion stays uniform).  For c > 1 the level-0 stage is
    the auxiliary hypergraph's vertex set with NO internal edges; each
    auxiliary edge S spawns a level-1 stage holding one child per vertex of
    S (in S's order) plus an embedded copy of the (c-1)-instance.
    ``provider(m, g, c)`` returns that auxiliary :class:`OrderedHypergraph`,
    m-uniform with girth >= g and no proper c-coloring.
    """
    if c < 1 or g < 2:
        raise DomainError("need c >= 1 and g >= 2", c=c, g=g)
    if c == 1:
        return _base_instance("gcg", 2)

    template = build_Gcg(c - 1, g, provider, max_vertices)
    m = template.n
    aux = provider(m, g, c)
    for e in aux.edges:
        if len(e) != m:
            raise DomainError(
                "auxiliary hypergraph has wrong uniformity",
                expected=m,
                got=len(e),
            )
    n_h = aux.n
    n_edges_h = len(aux.edges)
    n = n_h + n_edges_h * m
    if n > max_vertices:
        raise SizeLimitExceeded(
            "predicted vertex count exceeds the limit",
            predicted_vertices=n,
            max_vertices=max_vertices,
        )
    levels = _gcg_levels(n_h, m, n_edges_h)
    parent = array("l", [-1]) * n
    root = array("l", [0]) * n
    for v in range(n_h):
        root[v] = v
    v = n_h
    for e in aux.edges:
        for pv in e:
            parent[v] = pv
            root[v] = pv
            v += 1
    return _staged("gcg", 2, c, m, parent, root, levels, template)
