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
and child count.  That makes stage metadata O(levels) instead of O(stages),
keeps vertex ids contiguous per stage, and gives the finder arithmetic
O(1) navigation — the multi-million-vertex instances depend on it.

Vertex global order is creation order: stages level by level, stages of a
level in lexicographic parent order, vertices within a stage in stage
order.  Edge global order is: all path edges (by their defining last-level
vertex), then all transversal edges (by stage, block, then edge index
within the embedded copy).

A built instance stores no edge list.  Its ``base.edges`` is a read-only
sequence computed from the parent array: a path edge is a leaf and its
ancestors, and a transversal edge is a template edge shifted into its
block.  The H(3,2) instance (2,184,822 edges) thus keeps three integer
arrays instead of some 300 MB of tuples.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

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

CERT_VERIFIED = "verified_exhaustively"


@dataclass(frozen=True)
class LevelInfo:
    """Shape shared by all stages of one level."""

    level: int
    first_stage: int
    n_stages: int
    first_vertex: int
    stage_size: int
    block_size: int
    blocks_per_stage: int
    children_per_stage: int


@dataclass(frozen=True)
class Stage:
    """One stage: a contiguous run of vertices on a (future) common line."""

    id: int
    level: int
    start: int
    size: int
    block_size: int
    blocks: int
    first_child: Optional[int]
    n_children: int

    @property
    def vertices(self) -> range:
        return range(self.start, self.start + self.size)

    def block_range(self, b: int) -> range:
        if not 0 <= b < self.blocks:
            raise DomainError("block index out of range", stage=self.id, block=b)
        lo = self.start + b * self.block_size
        return range(lo, lo + self.block_size)


class TransversalEdge(NamedTuple):
    """Tag locating one transversal edge: which stage, block and which edge
    of the embedded copy it is."""

    edge: int
    stage: int
    block: int
    copy_edge: int


class _StageSequence(_LazySequence):
    """Stages derived on demand from per-level metadata."""

    def __init__(self, levels: Sequence[LevelInfo]):
        self._levels = levels
        self._starts = [li.first_stage for li in levels]
        self._total = levels[-1].first_stage + levels[-1].n_stages if levels else 0

    def __len__(self) -> int:
        return self._total

    def _item(self, i: int) -> Stage:
        li = self._levels[bisect_right(self._starts, i) - 1]
        pos = i - li.first_stage
        if li.children_per_stage:
            nxt = self._levels[li.level + 1]
            first_child = nxt.first_stage + pos * li.children_per_stage
        else:
            first_child = None
        return Stage(
            id=i,
            level=li.level,
            start=li.first_vertex + pos * li.stage_size,
            size=li.stage_size,
            block_size=li.block_size,
            blocks=li.blocks_per_stage,
            first_child=first_child,
            n_children=li.children_per_stage,
        )


class _TransversalTags(_LazySequence):
    """Lazy (edge, stage, block, copy_edge) tags in global transversal order."""

    def __init__(self, owner: "StagedHypergraph"):
        self._o = owner

    def __len__(self) -> int:
        return len(self._o.base.edges) - len(self._o.path_edges)

    def _item(self, t: int) -> TransversalEdge:
        o = self._o
        per_copy = o.edges_per_copy
        block_index, copy_edge = divmod(t, per_copy)
        # locate the level holding this global block index
        li = o.levels[bisect_right(o._cum_blocks, block_index) - 1]
        within = block_index - o._cum_blocks[li.level]
        stage_pos, block = divmod(within, li.blocks_per_stage)
        return TransversalEdge(
            edge=len(o.path_edges) + t,
            stage=li.first_stage + stage_pos,
            block=block,
            copy_edge=copy_edge,
        )


class _StagedEdges(_LazySequence):
    """The edges of a built instance, computed from its parent array rather
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
    """A built instance plus all its stage metadata.

    ``kind`` is ``"hkc"`` for the staged k-uniform family and ``"gcg"`` for
    the large-girth graphs (whose level-1 stages hang off auxiliary-edge
    parents rather than f_m subsets, and whose level-0 stage has no blocks).
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
        "stages",
        "path_edges",
        "transversal_edges",
        "copy_template",
        "auxiliary",
        "_cum_blocks",
        "_level_vertex_starts",
        "_level_stage_starts",
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
        auxiliary=None,
    ):
        self.kind = kind
        self.base = base
        self.k = k
        self.c = c
        self.m = m
        self.parent = parent
        self.root = root
        self.levels = tuple(levels)
        self.stages = _StageSequence(self.levels)
        self.path_edges = range(n_path_edges)
        self.copy_template = copy_template
        self.auxiliary = auxiliary
        cum = [0]
        for li in self.levels:
            cum.append(cum[-1] + li.n_stages * li.blocks_per_stage)
        self._cum_blocks = cum
        self._level_vertex_starts = [li.first_vertex for li in self.levels]
        self._level_stage_starts = [li.first_stage for li in self.levels]
        self.transversal_edges = _TransversalTags(self)

    # -- navigation ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def edges_per_copy(self) -> int:
        """Edges contributed by one block's embedded copy."""
        return len(self.copy_template.base.edges) if self.copy_template else 1

    def parent_of(self, v: int) -> Optional[int]:
        p = self.parent[v]
        return None if p < 0 else p

    def root_of(self, v: int) -> int:
        return self.root[v]

    def level_of_vertex(self, v: int) -> LevelInfo:
        if not 0 <= v < self.n:
            raise DomainError("vertex out of range", v=v)
        return self.levels[bisect_right(self._level_vertex_starts, v) - 1]

    def stage_of_vertex(self, v: int) -> Stage:
        li = self.level_of_vertex(v)
        return self.stages[li.first_stage + (v - li.first_vertex) // li.stage_size]

    def path_edge_index(self, v: int) -> int:
        """Edge index of path(v) for a last-level vertex v."""
        last = self.levels[-1]
        if v < last.first_vertex or v >= self.n:
            raise DomainError("not a last-level vertex", v=v)
        return v - last.first_vertex

    def transversal_edge_index(self, stage_id: int, block: int, copy_edge: int) -> int:
        li = self.levels[bisect_right(self._level_stage_starts, stage_id) - 1]
        global_block = (
            self._cum_blocks[li.level]
            + (stage_id - li.first_stage) * li.blocks_per_stage
            + block
        )
        return len(self.path_edges) + global_block * self.edges_per_copy + copy_edge

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Full JSON form.  Materializes every stage record: fine at desk
        scale, deliberately avoided by in-process pipelines for the
        multi-million-vertex instances."""
        d = self.base.to_json_dict()
        d["parents"] = [None if p < 0 else p for p in self.parent]
        d["stages"] = [
            {
                "id": s.id,
                "level": s.level,
                "vertices": list(s.vertices),
                "block_size": s.block_size,
                "blocks": s.blocks,
            }
            for s in self.stages
        ]
        d["path_edges"] = list(self.path_edges)
        d["transversal_edges"] = [
            {"edge": t.edge, "stage": t.stage, "block": t.block, "copy_edge": t.copy_edge}
            for t in self.transversal_edges
        ]
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
        try:
            base = OrderedHypergraph.from_json_dict(d)
            kind = d["kind"]
            k, c, m = d["k"], d["c"], d["m"]
            parents = d["parents"]
            stage_records = d["stages"]
            n_path = len(d["path_edges"])
            template = (
                cls.from_json_dict(d["copy_template"]) if d.get("copy_template") else None
            )
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed staged-hypergraph JSON: {exc}")
        levels = _levels_from_stage_records(stage_records, base.n)
        parent = _parents_from_json(parents, levels, base.n)
        root = array("l", [0]) * base.n
        for v in range(base.n):
            p = parent[v]
            root[v] = v if p < 0 else root[p]
        out = cls(kind, base, k, c, m, parent, root, levels, n_path, template)
        if list(out.path_edges) != list(d["path_edges"]):
            raise DomainError("path_edges must be the initial run of edge indices")
        if len(out.transversal_edges) != len(d.get("transversal_edges", ())):
            raise DomainError(
                "transversal edge count disagrees with the stage layout",
                expected=len(out.transversal_edges),
                got=len(d.get("transversal_edges", ())),
            )
        return out


def _parents_from_json(parents, levels, n) -> array:
    """The parent array: None (-1) on level 0, a previous-level vertex elsewhere."""
    if not isinstance(parents, list) or len(parents) != n:
        raise DomainError("parents must hold one entry per vertex", n=n)
    parent = array("l", [-1]) * n
    top = levels[0]
    if any(p is not None for p in parents[: top.n_stages * top.stage_size]):
        raise DomainError("level-0 vertices must have no parent")
    for prev, li in zip(levels, levels[1:]):
        lo, hi = prev.first_vertex, li.first_vertex
        for v in range(hi, hi + li.n_stages * li.stage_size):
            p = parents[v]
            if type(p) is not int or not lo <= p < hi:
                raise DomainError(
                    "parent must be a vertex of the previous level",
                    vertex=v,
                    parent=p,
                    level=li.level,
                )
            parent[v] = p
    return parent


def _levels_from_stage_records(records, n) -> list:
    """Recover per-level metadata, enforcing the level-homogeneous layout."""
    if not isinstance(records, list) or not records:
        raise DomainError("staged hypergraph needs a list of at least one stage")
    # one type set per field across all records (H(3,2) has 551,125), not
    # a check per record, which costs about three times as much
    if not set(map(type, records)) <= {dict}:
        raise DomainError("stage records must be objects")
    for key in ("level", "block_size", "blocks"):
        if not {type(rec.get(key, 0)) for rec in records} <= {int}:
            raise DomainError(f"stage {key} must be an int")
    vertex_lists = [rec.get("vertices") for rec in records]
    if not set(map(type, vertex_lists)) <= {list} or not set(
        map(type, chain.from_iterable(vertex_lists))
    ) <= {int}:
        raise DomainError("stage vertices must be lists of ints")
    levels = []
    seen_vertices = 0
    seen_stages = 0
    i = 0
    while i < len(records):
        j = records[i].get("level")
        group = []
        while i < len(records) and records[i].get("level") == j:
            group.append(records[i])
            i += 1
        size = len(group[0]["vertices"])
        bs = group[0].get("block_size", size)
        blocks = group[0].get("blocks", 0 if bs == 0 else size // bs)
        for pos, rec in enumerate(group):
            vs = rec["vertices"]
            if (
                len(vs) != size
                or rec.get("block_size", size) != bs
                or rec.get("blocks", blocks) != blocks
            ):
                raise DomainError("stage layout not level-homogeneous", level=j)
            expect = list(range(seen_vertices + pos * size, seen_vertices + (pos + 1) * size))
            if list(vs) != expect:
                raise DomainError("stage vertices must be contiguous ranges", level=j)
        levels.append(
            LevelInfo(
                level=len(levels),
                first_stage=seen_stages,
                n_stages=len(group),
                first_vertex=seen_vertices,
                stage_size=size,
                block_size=bs,
                blocks_per_stage=blocks,
                children_per_stage=0,  # patched below
            )
        )
        seen_stages += len(group)
        seen_vertices += len(group) * size
    if seen_vertices != n:
        raise DomainError("stages do not cover the vertex set exactly")
    # children counts follow from consecutive-level stage counts
    patched = []
    for idx, li in enumerate(levels):
        kids = 0
        if idx + 1 < len(levels):
            nxt = levels[idx + 1]
            if nxt.n_stages % li.n_stages:
                raise DomainError("stage counts not level-homogeneous")
            kids = nxt.n_stages // li.n_stages
        patched.append(
            LevelInfo(
                li.level,
                li.first_stage,
                li.n_stages,
                li.first_vertex,
                li.stage_size,
                li.block_size,
                li.blocks_per_stage,
                kids,
            )
        )
    return patched


@dataclass(frozen=True)
class AuxiliaryHypergraph:
    """A certified ingredient for the large-girth construction."""

    base: OrderedHypergraph
    claimed_girth: int
    claimed_chromatic_lower_bound: int
    certificate: str


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
        parent = array("l", [-1]) * k
        root = array("l", range(k))
        edges = _StagedEdges(k, parent, root, k, [tuple(range(k))], 0, k)
        base = OrderedHypergraph._from_sorted(k, edges)
        levels = [LevelInfo(0, 0, 1, 0, k, k, 1, 0)]
        # The single full edge is the embedded "copy" of the base instance
        # itself; classifying it as transversal keeps the recursion uniform.
        return StagedHypergraph("hkc", base, k, 1, k, parent, root, levels, 0, None)

    template = build_Hkc(k, c - 1, max_vertices)
    m = template.n

    # level metadata
    levels = []
    first_stage = 0
    first_vertex = 0
    n_stages = 1
    for j in range(k):
        size = m ** (k - j)
        blocks = m ** (k - j - 1)
        children = m**blocks if j < k - 1 else 0
        levels.append(
            LevelInfo(j, first_stage, n_stages, first_vertex, size, m, blocks, children)
        )
        first_stage += n_stages
        first_vertex += n_stages * size
        n_stages *= children if children else 1
    n = first_vertex

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

    # Edges: paths first (by leaf vertex), then transversal copies (by
    # stage, block, then template edge order), computed on demand.
    first_leaf = levels[-1].first_vertex
    edges = _StagedEdges(k, parent, root, first_leaf, template.base.edges, 0, m)
    base = OrderedHypergraph._from_sorted(n, edges)
    n_path = n - first_leaf
    return StagedHypergraph("hkc", base, k, c, m, parent, root, levels, n_path, template)


# ---------------------------------------------------------------------------
# constructive finder


def _find_mono(S: StagedHypergraph, colors, voffset: int, palette: tuple) -> int:
    """Locate a monochromatic edge of the copy of S living at vertex offset
    ``voffset``, assuming the copy is colored only with ``palette`` colors.
    Returns a local edge index of S.  Cost is polynomial in the number of
    levels and block shapes — no edge scan."""
    if S.c == 1 or len(palette) == 1:
        # Either the base instance (whose single edge is monochromatic under
        # any 1-coloring), or a single-color palette: the first path edge's
        # members all carry palette[0] if the precondition held.  Return the
        # structurally guaranteed edge; the top-level verification checks it.
        if S.c == 1:
            return 0
        v = S.levels[-1].first_vertex  # first leaf: its whole path is forced
        return S.path_edge_index(v)
    tracked = palette[0]
    m = S.m
    stage = S.stages[0]
    while True:
        picks = []
        for b in range(stage.blocks):
            lo = stage.start + b * m
            pick = -1
            for u in range(lo, lo + m):
                if colors[voffset + u] == tracked:
                    pick = u
                    break
            if pick < 0:
                # Block omits the tracked color entirely: its embedded copy
                # is colored with the remaining palette and must contain a
                # monochromatic edge of its own.
                sub = _find_mono(S.copy_template, colors, voffset + lo, palette[1:])
                return S.transversal_edge_index(stage.id, b, sub)
            picks.append(pick - lo)  # choice digit within the block
        if stage.level == S.k - 1:
            # Single block, tracked color present: that vertex's whole path
            # was built through tracked picks, so its path edge is forced.
            v = stage.start + picks[0]
            return S.path_edge_index(v)
        # Descend into the child stage selected by the tracked picks.
        rank = 0
        for d in picks:
            rank = rank * m + d
        stage = S.stages[stage.first_child + rank]


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
    palette = (tracked_color,) + tuple(
        x for x in range(col.c) if x != tracked_color
    )
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


def odd_cycle_provider(g: int) -> AuxiliaryHypergraph:
    """The cycle C_g' for the smallest odd g' >= max(g, 3), exhaustively
    certified (girth computed, 2-colorability decided)."""
    if g < 2:
        raise DomainError("girth requirement must be >= 2", g=g)
    gp = g if g % 2 else g + 1
    gp = max(gp, 3)
    edges = [(i, i + 1) for i in range(gp - 1)] + [(0, gp - 1)]
    base = OrderedHypergraph(gp, edges)
    assert hypergraph_girth(base).girth == gp
    assert is_c_colorable(base, 2) is None
    return AuxiliaryHypergraph(base, gp, 3, CERT_VERIFIED)


def odd_cycle_supply(uniformity: int, g: int, c: int) -> AuxiliaryHypergraph:
    """Provider adapter: odd cycles fit only 2-uniform, chromatic-bound-3
    requests."""
    if uniformity != 2 or c != 2:
        raise DomainError(
            "odd-cycle provider only supplies 2-uniform auxiliaries with "
            "chromatic number 3",
            uniformity=uniformity,
            c=c,
        )
    return odd_cycle_provider(g)


def random_search_provider(
    uniformity: int, g: int, c: int, budget: int, seed: int = 0
) -> AuxiliaryHypergraph:
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
        return AuxiliaryHypergraph(H, g, c + 1, CERT_VERIFIED)
    raise SearchBudgetExceeded(
        "no certified auxiliary hypergraph found within the trial budget",
        budget=budget,
        uniformity=uniformity,
        g=g,
        c=c,
    )


def make_random_provider(budget: int, seed: int = 0) -> Callable:
    def supply(uniformity: int, g: int, c: int) -> AuxiliaryHypergraph:
        return random_search_provider(uniformity, g, c, budget, seed)

    return supply


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
    """
    if c < 1 or g < 2:
        raise DomainError("need c >= 1 and g >= 2", c=c, g=g)
    if c == 1:
        parent = array("l", [-1, -1])
        root = array("l", [0, 1])
        edges = _StagedEdges(2, parent, root, 2, [(0, 1)], 0, 2)
        base = OrderedHypergraph._from_sorted(2, edges)
        levels = [LevelInfo(0, 0, 1, 0, 2, 2, 1, 0)]
        return StagedHypergraph("gcg", base, 2, 1, 2, parent, root, levels, 0, None)

    template = build_Gcg(c - 1, g, provider, max_vertices)
    m = template.n
    aux = provider(m, g, c)
    for e in aux.base.edges:
        if len(e) != m:
            raise DomainError(
                "auxiliary hypergraph has wrong uniformity",
                expected=m,
                got=len(e),
            )
    n_h = aux.base.n
    n_edges_h = len(aux.base.edges)
    n = n_h + n_edges_h * m
    if n > max_vertices:
        raise SizeLimitExceeded(
            "predicted vertex count exceeds the limit",
            predicted_vertices=n,
            max_vertices=max_vertices,
        )
    levels = [
        LevelInfo(0, 0, 1, 0, n_h, m, 0, n_edges_h),
        LevelInfo(1, 1, n_edges_h, n_h, m, m, 1, 0),
    ]
    parent = array("l", [-1]) * n
    root = array("l", [0]) * n
    for v in range(n_h):
        root[v] = v
    v = n_h
    for e in aux.base.edges:
        for pv in e:
            parent[v] = pv
            root[v] = pv
            v += 1

    edges = _StagedEdges(2, parent, root, n_h, template.base.edges, n_h, m)
    base = OrderedHypergraph._from_sorted(n, edges)
    n_path = n - n_h
    return StagedHypergraph(
        "gcg", base, 2, c, m, parent, root, levels, n_path, template, auxiliary=aux
    )
