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

* ``build_Gcg(c, g)`` — for c <= 2, a 2-uniform analogue with girth at
  least g and chromatic number above c, grown around a certified
  auxiliary graph, the shortest odd cycle of length at least g.

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
edges) thus keeps one integer array instead of some 300 MB of tuples.

Each builder is a size guard followed by an assembly step (:func:`_hkc`,
:func:`_gcg`), and the assembly steps alone make parent arrays.  A staged
file holds the header (kind, k, c, m, n), the parents, the edges and the
copy template.  The loader assembles the instance the header names
through those same steps (a gcg instance around the auxiliary edges its
level-1 parents list) and rejects a file whose parents or edges differ
from the assembled ones.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from operator import eq, ne
from typing import Optional, Sequence

from .errors import DomainError, PaletteExceedsGuarantee, SizeLimitExceeded
from .hypergraph import (
    Coloring,
    OrderedHypergraph,
    _LazySequence,
    hypergraph_girth,  # noqa: F401 — the benchmark's tracer test patches it under this name
    is_c_colorable,
)

DEFAULT_MAX_VERTICES = 10**7

# Every array of vertex ids, ranks or rank coordinates has this typecode:
# 4 bytes, and one typecode throughout, because extended-slice assignment
# between arrays of two typecodes raises TypeError.  The largest entry is
# a nested drawing's top coordinate, 4·n − 3, so no instance may have more
# than MAX_TYPECODE_VERTICES vertices (2**29 at 4 bytes).
TYPECODE = "i"
MAX_TYPECODE_VERTICES = (2 ** (8 * array(TYPECODE).itemsize - 1) + 2) // 4


@dataclass(frozen=True)
class LevelInfo:
    """Shape shared by all stages of one level.  Stage ``pos`` of the level
    holds vertices ``first_vertex + pos * stage_size`` onwards, and its
    first ``blocks_per_stage`` blocks of m vertices (the instance's ``m``)
    each carry a template copy; its child stages are positions ``pos *
    children_per_stage`` onwards on the next level."""

    n_stages: int
    first_vertex: int
    stage_size: int
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
        first_leaf: int,
        template: Sequence[tuple],
        origin: int,
        stride: int,
    ):
        self._k = k
        self._parent = parent
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
        """Every edge as :meth:`_item` gives it: the path columns zipped,
        then the copies block by block, each template edge's members as
        strided ranges, so a template narrower or wider than the paths
        iterates whole."""
        span, stride = self._n_blocks * self._stride, self._stride
        copies = [zip(*[range(self._origin + u, self._origin + u + span, stride) for u in e]) for e in self._template]
        return chain(zip(*self._path_columns(0, None)), chain.from_iterable(zip(*copies)))

    def _path_columns(self, first: int, through: Optional[array]) -> list:
        """The k columns of the path edges from path edge ``first`` on,
        root first, as :meth:`columns` gives them."""
        parent = self._parent
        lo = self._first_leaf + min(first, self._n_path)
        ancestors = [parent[lo:]] if self._k > 1 else []
        for _ in range(self._k - 2):
            ancestors.append(array(TYPECODE, map(parent.__getitem__, ancestors[-1])))
        if through is None:
            cols = [array(TYPECODE, range(lo, len(parent)))] + ancestors
        else:
            cols = [through[lo:]] + [array(TYPECODE, map(through.__getitem__, col)) for col in ancestors]
        cols.reverse()
        return cols

    def columns(self, first: int = 0, through: Optional[array] = None) -> list:
        """The k edge columns as ``TYPECODE`` arrays: column j holds member
        j of every edge from edge ``first`` on, in edge order, or, given an
        array ``through`` (a rank array), that member's entry in it.  The
        leaf column is a range, the next a slice of the parent array, and
        each further one a C-level parent lookup on the one before;
        transversal columns interleave one strided range per template edge.
        Read through an array, the leaf column and the strided ranges are
        slices of it, and only the ancestor columns are looked up.  A
        template narrower than the paths leaves its last columns short; a
        wider one's extra members are not in any column."""
        cols, skip = self._path_columns(first, through), first - self._n_path
        per_copy, stride = len(self._template), self._stride
        span = self._n_blocks * stride
        for col, members in zip(cols, zip(*self._template)):
            part = array(TYPECODE, [0]) * (self._n_blocks * per_copy)
            for t, u in enumerate(members):
                start = self._origin + u
                if through is None:
                    part[t::per_copy] = array(TYPECODE, range(start, start + span, stride))
                else:
                    part[t::per_copy] = through[start : start + span : stride]
            col.extend(part[skip:] if skip > 0 else part)
        return cols


class StagedHypergraph:
    """A staged instance plus all its stage metadata: ``levels`` holds one
    :class:`LevelInfo` per level, and a stage is a level record plus a
    position within that level.

    ``kind`` is ``"hkc"`` for the staged k-uniform family and ``"gcg"`` for
    the large-girth graphs (whose level-1 stages hang off auxiliary-edge
    parents rather than f_m subsets, and whose level-0 stage has no blocks).
    Both builders and :meth:`from_json_dict` assemble through
    :func:`_base_instance`, :func:`_hkc` and :func:`_gcg`, so a built
    instance and its loaded file hold the same fields.
    """

    __slots__ = (
        "kind",
        "base",
        "k",
        "c",
        "m",
        "parent",
        "levels",
        "n_path_edges",
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
        self.levels = tuple(levels)
        self.n_path_edges = n_path_edges
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
        builders can make; that instance is assembled, and ``parents`` and
        ``edges`` must be exactly its parents and edges.  Other keys are
        ignored.

        A ``gcg`` file's auxiliary hypergraph (the edges its level-1
        parents list) must have no proper c-coloring, or the instance would
        not need c + 1 colors.  Its girth is not checked: the header names
        no g to check it against."""
        try:
            kind, k, c, m, n = d["kind"], d["k"], d["c"], d["m"], d["n"]
            parents, edges, sub = d["parents"], d["edges"], d["copy_template"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed staged-hypergraph JSON: {exc}")
        if kind not in ("hkc", "gcg"):
            raise DomainError("staged kind must be hkc or gcg", kind=kind)
        if any(type(x) is not int or x < 1 for x in (k, c, m, n)):
            raise DomainError("k, c, m and n must be ints >= 1", k=k, c=c, m=m, n=n)
        if kind == "gcg" and k != 2:
            raise DomainError("gcg instances are 2-uniform", k=k)
        if (sub is None) != (c == 1):
            raise DomainError("copy_template must be null exactly when c == 1", c=c)
        # n is the file's own parent count, which bounds the assembly below
        if (
            not isinstance(parents, list)
            or len(parents) != n
            or not set(map(type, parents)) <= {int, type(None)}
        ):
            raise DomainError("parents must hold one int or null per vertex", n=n)
        _check_width(n)
        if c == 1:
            if not k == m == n:
                raise DomainError("a c = 1 instance has k = m = n", k=k, m=m, n=n)
            S = _base_instance(kind, k)
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
            if kind == "hkc":
                # capped at n: a false header could ask for
                # double-exponentially many stages
                levels = _hkc_levels(k, m, n)
                if levels is None or _vertex_count(levels) != n:
                    raise DomainError("n is not the vertex count of H(k, c)", k=k, c=c, n=n)
                S = _hkc(k, c, template, levels)
            else:
                # level 0 is the leading run of null parents, the auxiliary
                # vertices; each later run of m parents lists one auxiliary edge
                n_h = next((v for v, p in enumerate(parents) if p is not None), n)
                listed = parents[n_h:]
                if None in listed:
                    raise DomainError("null parents must come first, on level 0 only")
                aux = OrderedHypergraph(
                    n_h, [listed[i : i + m] for i in range(0, len(listed), m)]
                )
                if is_c_colorable(aux, c) is not None:
                    raise DomainError(
                        "auxiliary hypergraph of a gcg file is properly c-colorable",
                        c=c,
                    )
                S = _gcg(c, template, aux)
        n0 = S.levels[0].stage_size
        if parents[:n0] != [None] * n0 or parents[n0:] != S.parent[n0:].tolist():
            raise DomainError(
                "parents differ from the parents of the instance the header names"
            )
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


def _staged(kind, k, c, m, parent, levels, template) -> StagedHypergraph:
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
    edges = _StagedEdges(k, parent, first_leaf, copy, origin, m)
    base = OrderedHypergraph._from_sorted(n, edges)
    return StagedHypergraph(kind, base, k, c, m, parent, levels, n - first_leaf, template)


def _identity(n: int) -> array:
    """``array(TYPECODE, range(n))``, written one byte plane at a time.
    Byte j of entry i is (i >> 8·j) & 255: over all entries, a plane in
    which each byte value repeats 256**j times and the pattern cycles.
    The two low planes cycle every 2**16 entries, so they are written for
    one block of 2**16 entries, each by one strided assignment through a
    byte view, and the block is repeated by C-level array repetition (the
    partial last block appended in place, so no second full-size array is
    made).  A higher plane is constant over each stretch of 256**j
    entries, so each stretch whose byte is not 0 is one strided
    assignment of that byte (the top plane's only past 2**24 entries).
    No Python work is done per entry, and no temporary spans the array."""
    size = min(n, 1 << 16)
    block = array(TYPECODE, [0]) * size
    width = block.itemsize
    at = [j if sys.byteorder == "little" else width - 1 - j for j in range(width)]
    with memoryview(block) as whole, whole.cast("B") as view:
        for j in range(2):
            rep = 256**j
            if rep >= size:
                break
            # byte values 0, 1, ... each rep times, as far as the block reaches
            cycle = b"".join(bytes([v]) * rep for v in range(min(256, -(-size // rep))))
            view[at[j] :: width] = cycle * (size // len(cycle)) + cycle[: size % len(cycle)]
    ident = block * (n >> 16)
    ident += block[: n & 0xFFFF]
    with memoryview(ident) as whole, whole.cast("B") as view:
        for j in range(2, width):
            rep = 256**j
            for i in range(rep, n, rep):
                byte, stop = i // rep & 255, min(i + rep, n)
                if byte:
                    view[i * width + at[j] : stop * width : width] = bytes([byte]) * (stop - i)
    return ident


def _vertex_count(levels: Sequence[LevelInfo]) -> int:
    """The number of vertices up to the end of the last level."""
    last = levels[-1]
    return last.first_vertex + last.n_stages * last.stage_size


def _check_width(n: int) -> None:
    """Raise SizeLimitExceeded if an instance of n vertices has entries
    past what ``TYPECODE`` holds; checked before anything is allocated."""
    if n > MAX_TYPECODE_VERTICES:
        raise SizeLimitExceeded(
            "predicted vertex count exceeds what the 4-byte vertex arrays hold",
            predicted_vertices=n,
            max_typecode_vertices=MAX_TYPECODE_VERTICES,
        )


def _base_instance(kind: str, k: int) -> StagedHypergraph:
    """The c = 1 instance: one edge on k vertices, one stage holding one
    block."""
    parent = array(TYPECODE, [-1]) * k
    return _staged(kind, k, 1, k, parent, [LevelInfo(1, 0, k, 1, 0)], None)


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


def _hkc_levels(k: int, m: int, cap: int) -> Optional[list]:
    """Level layout of H(k, c) for c > 1, where m is the vertex count of
    H(k, c - 1): a level-j stage holds m**(k-j) vertices in blocks of m,
    and each stage of a non-last level has m**blocks child stages.  None
    once the vertex count passes cap; no power past the cap is formed."""
    levels = []
    first_vertex = 0
    n_stages = 1
    for j in range(k):
        size = _capped_pow(m, k - j, cap)
        if first_vertex + n_stages * size > cap:
            return None
        blocks = size // m
        children = _capped_pow(m, blocks, cap) if j < k - 1 else 0
        levels.append(LevelInfo(n_stages, first_vertex, size, blocks, children))
        first_vertex += n_stages * size
        n_stages *= children if children else 1
    return levels


def _hkc_size(k: int, c: int, cap: int) -> Optional[tuple]:
    """(vertex count, level records) of H(k, c) from c - 1 walks of
    :func:`_hkc_levels`, or None once the count passes cap.  The records
    are None when c = 1."""
    n, levels = k, None
    for _ in range(c - 1):
        levels = _hkc_levels(k, n, cap)
        if levels is None:
            return None
        if _vertex_count(levels) == n:
            break  # k = 1: every H(1, c) has one vertex, so the walk is done
        n = _vertex_count(levels)
    return (n, levels) if n <= cap else None


def build_Hkc(
    k: int, c: int, max_vertices: int = DEFAULT_MAX_VERTICES
) -> StagedHypergraph:
    """The staged k-uniform hypergraph with no proper c-coloring."""
    if k < 1 or c < 1:
        raise DomainError("k and c must be positive", k=k, c=c)
    ceiling = max(max_vertices, _PREDICT_CEILING)
    size = _hkc_size(k, c, ceiling)
    if size is None or size[0] > max_vertices:
        raise SizeLimitExceeded(
            "predicted vertex count exceeds the limit",
            predicted_vertices=f"> {ceiling}" if size is None else size[0],
            max_vertices=max_vertices,
        )
    _check_width(size[0])
    if c == 1:
        return _base_instance("hkc", k)
    return _hkc(k, c, build_Hkc(k, c - 1, max_vertices), size[1])


def _parent_rule(levels: Sequence[LevelInfo], m: int):
    """H(k, c)'s parent array on its level layout, stated by the digit
    rule as (slice, parents) pairs that between them cover every vertex
    once: level 0's roots (parent -1), then per level stage 0's children
    and their copies across the level.

    Child stage r of a stage picks vertex digit_b(r) of block b,
    digit_b(r) being r's b-th base-m digit, most significant first.  So
    over stage 0's children, the parents of child offset b form a column
    in which each vertex of block b repeats m**(blocks - 1 - b) times and
    the pattern cycles: one strided slice.  Stage t's children take stage
    0's parents shifted by t times the stage size, so each child of stage
    0 is copied across the level by one strided slice of an identity
    array."""
    n0 = levels[0].stage_size
    yield slice(0, n0), array(TYPECODE, [-1]) * n0
    ident = _identity(levels[-1].first_vertex)  # every parent lies above the last level
    for li, child in zip(levels, levels[1:]):
        lo, blocks = child.first_vertex, li.blocks_per_stage
        span = li.children_per_stage * blocks
        columns = []
        for b in range(blocks):
            first = li.first_vertex + b * m
            column = array(TYPECODE)
            for v in range(first, first + m):
                column += array(TYPECODE, [v]) * m ** (blocks - 1 - b)
            columns.append(column * m**b)
            yield slice(lo + b, lo + span, blocks), columns[-1]
        N, size = li.n_stages, li.stage_size
        if N > 1:
            for q in range(span):
                p = columns[q % blocks][q // blocks] + size  # in stage 1
                yield slice(lo + span + q, lo + N * span, span), ident[p : p + (N - 1) * size : size]


def _hkc(k: int, c: int, template: StagedHypergraph, levels: list) -> StagedHypergraph:
    """H(k, c) on its level layout, around ``template`` = H(k, c - 1).  The
    child stages of a stage take one vertex from each of its blocks, in
    lexicographic order of the picks (the f_m choice tuples), and those
    picks are the children's parents.  They are written into one
    preallocated array by the C-level slices of :func:`_parent_rule`."""
    parent = array(TYPECODE, [0]) * _vertex_count(levels)
    for where, parents in _parent_rule(levels, template.n):
        parent[where] = parents
    return _staged("hkc", k, c, template.n, parent, levels, template)


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
                return S.n_path_edges + block * len(S.copy_template.base.edges) + sub
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
# G^c(g)


def _is_cycle(H: OrderedHypergraph) -> bool:
    """Whether H is the cycle C_n with n >= 3, so that its girth is n:
    every edge has two vertices, every vertex lies on two edges, and all n
    vertices are connected.  Linear in n."""
    n = H.n
    if n < 3 or any(len(e) != 2 for e in H.edges):
        return False
    adjacent = [[] for _ in range(n)]
    for u, v in H.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    if any(len(a) != 2 for a in adjacent):
        return False
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    while stack:
        for w in adjacent[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    return all(seen)


def _odd_length(g: int) -> int:
    """g', the smallest odd length >= max(g, 3)."""
    return max(g | 1, 3)


def _odd_cycle(g: int) -> OrderedHypergraph:
    """The auxiliary graph of G(2, g): the cycle C_g' (g' =
    :func:`_odd_length`), checked to be C_g' (so its girth is g') and to
    have no proper 2-coloring."""
    gp = _odd_length(g)
    edges = [(i, i + 1) for i in range(gp - 1)] + [(0, gp - 1)]
    H = OrderedHypergraph(gp, edges)
    assert H.n == gp and _is_cycle(H)
    assert is_c_colorable(H, 2) is None
    return H


def build_Gcg(c: int, g: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> StagedHypergraph:
    """2-uniform graph with girth >= g and no proper c-coloring, for c <= 2.

    For c = 1 this is a single edge (its stage metadata is one level-0
    stage of two vertices with one internal edge — a deliberate degenerate
    shape so the recursion stays uniform).  For c = 2 the level-0 stage is
    the vertex set of the auxiliary graph, an odd cycle of length >= g
    (:func:`_odd_cycle`), with NO internal edges; each auxiliary edge
    spawns a level-1 stage holding one child per end (in the edge's order)
    plus an embedded copy of the c = 1 instance.  A c >= 3 instance would
    need a |G(c - 1, g)|-uniform auxiliary hypergraph with girth >= g and
    no proper c-coloring; none is built, so c >= 3 is refused at once.
    """
    if c < 1 or g < 2:
        raise DomainError("need c >= 1 and g >= 2", c=c, g=g)
    if c > 2:
        raise DomainError(
            "only c <= 2 is built: the odd-cycle auxiliary is 2-uniform with "
            "chromatic number 3",
            c=c,
        )
    if c == 1:
        return _base_instance("gcg", 2)

    template = build_Gcg(c - 1, g, max_vertices)
    # the auxiliary C_g' has g' vertices and g' edges, each spawning a stage
    # of template.n vertices; counted before the cycle is built
    gp = _odd_length(g)
    n = gp + gp * template.n
    if n > max_vertices:
        raise SizeLimitExceeded(
            "predicted vertex count exceeds the limit",
            predicted_vertices=n,
            max_vertices=max_vertices,
        )
    _check_width(n)
    return _gcg(c, template, _odd_cycle(g))


def _gcg(c: int, template: StagedHypergraph, aux: OrderedHypergraph) -> StagedHypergraph:
    """G(c, g) around ``template`` = G(c - 1, g) and the auxiliary
    hypergraph: a blockless level-0 stage of aux's vertices, then one
    m-vertex stage per auxiliary edge, each vertex's parent the edge's
    member at its position."""
    m = template.n
    for e in aux.edges:
        if len(e) != m:
            raise DomainError(
                "auxiliary hypergraph has wrong uniformity",
                expected=m,
                got=len(e),
            )
    n_h, n_edges_h = aux.n, len(aux.edges)
    levels = [
        LevelInfo(1, 0, n_h, 0, n_edges_h),
        LevelInfo(n_edges_h, n_h, m, 1, 0),
    ]
    parent = array(TYPECODE, [-1]) * n_h
    parent.extend(chain.from_iterable(aux.edges))
    return _staged("gcg", 2, c, m, parent, levels, template)
