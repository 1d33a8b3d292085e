"""Rank-space planar realization of the staged hypergraphs.

Every constructed instance is drawn as points and axis-parallel closed
rectangles so that each rectangle contains exactly the points of its edge.
Which points a rectangle holds depends only on the left-to-right and
bottom-to-top orders of the points, so the realizer computes those two
orders and nothing else:

* The x-order is a post-order of the parent forest: every vertex comes
  just after its children's subtrees, the children in id order, so a
  subtree fills an interval of x-ranks that its children's subtrees
  tile.  With the y-order below, every root-to-leaf path is an
  ascending point set isolated by its bounding box.

* The y-order is a reverse pre-order of the stage tree: a stage's child
  subtrees from the last child to the first, then the stage itself, as a
  thin band with one sub-band per block, the blocks from the last to the
  first, each block ordered like the embedded copy's own y-order
  (identity order when there is no copy).

Both orders are built from the level records.  Every stage of a level
has the same shape, and stage t's children are stage 0's shifted by t
times the child count of one stage, so each level does Python work for
stage 0 only, and a subtree's size depends only on its level and stage
offset.  The x-order is planned as arithmetic runs: vertices with ids
v, v + dv, … at x-ranks p, p + dp, ….  A run's children come from its
offset's sibling list, cut into grids of arithmetic ids; on H(3,2) every
sibling list is one grid, and 4,857 runs place all 1,771,497 vertices.
The plan checks the shift it relies on (one strided compare per child
offset) and that its runs cover every vertex, and raises
:class:`VerificationError` if not.  The y-order and its inverse are
written by strided slices of one identity array, one per entry of a
sibling group's chunk (one stage's leaf family and band).

A built drawing is the two rank arrays, the y-order ``y_ids``, and one
permutation ``yx``: yx[i] is the y-rank of the point at x-rank i, one
slice per x-order run.  Vertex v is the point
(4·x_rank[v], 4·y_rank[v]), and an edge's rectangle is its members' rank
window with each side one unit outside the extreme members.  Every
id, rank and rank-coordinate array has the 4-byte
``construction.TYPECODE``; the builders refuse instances it cannot hold.
A loaded realization may carry arbitrary ``fractions.Fraction`` values.
No floating point is involved except in SVG output.  The builder
verifies its own incidence before returning, with the sample
:func:`default_sample` picks.

Every box-membership question goes through :class:`BoxIndex`, by the
box's x- and y-rank windows (arithmetic on a built drawing) and one
block array of sorted slices of ``yx``.  On H(3,2) the transversal
rectangles have y-windows of three ranks, and a path rectangle's
x-window of some 33k ranks costs about 25 bisects plus two partial
blocks of at most 1331 ranks, so neither kind pays for its wide side.
"""

from __future__ import annotations

import random
import re
import warnings
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, isqrt
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

from .construction import TYPECODE, StagedHypergraph, _identity
from .errors import DomainError, VerificationError
from .hypergraph import Coloring, OrderedHypergraph, _LazySequence

Coord = Union[int, Fraction]

# Full incidence verification is quadratic-ish; beyond this many edges the
# realizer verifies a seeded sample instead (the check every huge instance
# gets in acceptance anyway).
FULL_VERIFY_EDGE_LIMIT = 100_000
SAMPLE_VERIFY_COUNT = 1000
_SAMPLE_SEED = 17

# what a loaded coordinate may be: exactly what to_json_dict writes
_COORD_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


class Point2(NamedTuple):
    x: Coord
    y: Coord


class Rect(NamedTuple):
    """Closed axis-parallel box."""

    x_lo: Coord
    x_hi: Coord
    y_lo: Coord
    y_hi: Coord

    def contains(self, p: Point2) -> bool:
        return self.x_lo <= p.x <= self.x_hi and self.y_lo <= p.y <= self.y_hi


def parse_coord(value) -> Fraction:
    """A coordinate read from JSON: an int (not a bool) or a rational
    string such as ``"-7/2"``.  Nothing else reaches ``Fraction``, which
    would expand an exponent such as ``"1e100000000"`` digit by digit."""
    if type(value) is int or type(value) is str and _COORD_TEXT.fullmatch(value):
        return Fraction(value)
    raise DomainError("coordinate must be an int or a string p or p/q of decimal digits")


def make_rect(x_lo, x_hi, y_lo, y_hi) -> Rect:
    if x_lo > x_hi or y_lo > y_hi:
        raise DomainError("rectangle bounds out of order")
    return Rect(x_lo, x_hi, y_lo, y_hi)


class Interval(NamedTuple):
    """Half-open interval [lo, hi)."""

    lo: Coord
    hi: Coord


# ---------------------------------------------------------------------------
# the integer views of a built realization


def _inverse(ids) -> array:
    """rank[v] = position of v in ``ids``."""
    rank = array(TYPECODE, [0]) * len(ids)
    for i, v in enumerate(ids):
        rank[v] = i
    return rank


class _RankPoints(_LazySequence):
    """Vertex v at (4·x_rank[v], 4·y_rank[v]); ``yx`` (the y-ranks in
    x-order) and ``y_ids`` ride along for :class:`BoxIndex`."""

    def __init__(self, yx: array, y_ids: array, x_rank: array, y_rank: array):
        self.yx = yx
        self.y_ids = y_ids
        self.x_rank = x_rank
        self.y_rank = y_rank

    def __len__(self) -> int:
        return len(self.yx)

    def _item(self, v: int) -> Point2:
        return Point2(4 * self.x_rank[v], 4 * self.y_rank[v])


class _RankRects(_LazySequence):
    """One rectangle per edge of a staged instance (``edges`` is its
    computed edge sequence), computed on demand: the rank window of the
    edge's members with each side one unit outside the extreme members.

    ``leaf_stages`` (the nested variant) is (path edge count, first leaf
    vertex, leaf stage size).  Path edge e's rectangle then spans y from
    just below the lowest point of its leaf's stage up to a top shared by
    all path rectangles and above every point."""

    def __init__(self, edges, points: _RankPoints, leaf_stages=None):
        self._edges = edges
        self._xr = points.x_rank
        self._yr = points.y_rank
        self._n_path, self._first_leaf, self._leaf_size = leaf_stages or (0, 0, 1)

    def __len__(self) -> int:
        return len(self._edges)

    def _item(self, e: int) -> Rect:
        members = self._edges[e]
        xr, yr = self._xr, self._yr
        xw = [xr[u] for u in members]
        x_lo, x_hi = 4 * min(xw) - 1, 4 * max(xw) + 1
        if e < self._n_path:
            size = self._leaf_size
            lo = self._first_leaf + e // size * size
            return Rect(x_lo, x_hi, 4 * min(yr[lo : lo + size]) - 2, 4 * len(yr) - 3)
        yw = [yr[u] for u in members]
        return Rect(x_lo, x_hi, 4 * min(yw) - 1, 4 * max(yw) + 1)

    def y_windows(self):
        """(y_lo, y_hi) of every rectangle, as ``_item`` gives them, in
        two arrays and without building the rectangles.  A nested path
        rectangle takes its leaf stage's lowest point (one strided column
        of y-ranks per stage offset); any other rectangle takes its
        members' y-ranks, read at C level from the edge columns past
        the path edges."""
        yr, n_path, size, lo = self._yr, self._n_path, self._leaf_size, self._first_leaf
        cols = [yr[lo + q : lo + n_path : size] for q in range(size)]
        stage_lows = array(TYPECODE, [4 * y - 2 for y in map(min, zip(*cols))])
        lows = array(TYPECODE, [0]) * n_path
        for q in range(size):
            lows[q::size] = stage_lows
        highs = array(TYPECODE, [4 * len(yr) - 3]) * n_path
        cols = [array(TYPECODE, map(yr.__getitem__, col)) for col in self._edges.columns(n_path)]
        y_min, y_max = map(min, zip(*cols)), map(max, zip(*cols))
        lows.extend(4 * y - 1 for y in y_min)
        highs.extend(4 * y + 1 for y in y_max)
        return lows, highs


class Realization:
    """Points (aligned with vertex indices), one rectangle per edge
    (aligned via ``edge_of_rect``), and the hypergraph they realize.

    The central invariant — for every edge e, ``rects[r] ∩ points`` is
    exactly e's vertex set, where ``edge_of_rect[r] == e`` — is established
    by the builder running :func:`verify_realization`, never assumed.
    A builder's points and rects are integer views over its two rank
    arrays; a loaded realization holds plain lists.
    """

    __slots__ = ("points", "rects", "edge_of_rect", "hypergraph")

    def __init__(self, points, rects, edge_of_rect, hypergraph=None):
        self.points = points
        self.rects = rects
        self.edge_of_rect = edge_of_rect
        self.hypergraph = hypergraph

    def to_json_dict(self) -> dict:
        return {
            "points": [[str(p.x), str(p.y)] for p in self.points],
            "rects": [
                [str(r.x_lo), str(r.x_hi), str(r.y_lo), str(r.y_hi)]
                for r in self.rects
            ],
            "edge_of_rect": list(self.edge_of_rect),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Realization":
        try:
            points = [Point2(parse_coord(x), parse_coord(y)) for x, y in d["points"]]
            rects = [make_rect(*map(parse_coord, (a, b, c, e))) for a, b, c, e in d["rects"]]
            edge_of_rect = list(d["edge_of_rect"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed realization JSON: {exc}")
        if any(type(i) is not int for i in edge_of_rect):
            raise DomainError("edge_of_rect entries must be ints")
        if len(rects) != len(edge_of_rect):
            raise DomainError("edge_of_rect must label every rectangle")
        return cls(points, rects, edge_of_rect)


# ---------------------------------------------------------------------------
# incidence


class BoxIndex:
    """Which points lie in which closed box.  A box's sides give rank
    windows of the x- and y-coordinates, and the box holds exactly the
    points in both windows.  A built drawing's coordinates are 4·rank, so
    its windows are arithmetic; other points bisect sorted coordinates.

    Besides ``yx`` (the y-ranks in x-order), ``y_ids`` and the rank
    arrays, the index keeps one block array: ``yx`` cut into blocks of
    ``block`` = isqrt(n) ranks, each sorted.  A box whose y-window is
    shorter than its x-window and at most one block long scans its
    y-window and sorts the hits by x-rank.  Any other box scans ``yx``
    over the partial blocks at the two ends of its x-window, and in each
    whole block between them bisects the sorted run for the y-window, so
    a long x-window costs O(√n) scanned ranks plus one bisect per block.
    Indexed from a built drawing's arrays, or by one sort of any other
    point list's coordinates."""

    def __init__(self, points: Sequence[Point2]):
        n = len(points)
        if isinstance(points, _RankPoints):
            self.yx, self.y_ids = points.yx, points.y_ids
            self.x_rank, self.y_rank = points.x_rank, points.y_rank
            self._xs = self._ys = None
        else:
            x_ids = sorted(range(n), key=lambda i: points[i].x)
            self.y_ids = array(TYPECODE, sorted(range(n), key=lambda i: points[i].y))
            self.x_rank = _inverse(x_ids)
            self.y_rank = _inverse(self.y_ids)
            self.yx = array(TYPECODE, map(self.y_rank.__getitem__, x_ids))
            self._xs = [points[i].x for i in x_ids]
            self._ys = [points[i].y for i in self.y_ids]
        self.block = B = max(1, isqrt(n))
        self._runs = runs = array(TYPECODE)
        for b in range(0, n, B):
            runs.fromlist(sorted(self.yx[b : b + B]))

    def x_window(self, rect: Rect) -> range:
        """x-ranks of the points whose x lies in the box's x-extent."""
        return self._window(self._xs, rect.x_lo, rect.x_hi)

    def y_window(self, rect: Rect) -> range:
        """y-ranks of the points whose y lies in the box's y-extent."""
        return self._window(self._ys, rect.y_lo, rect.y_hi)

    def _window(self, cs, lo, hi) -> range:
        if cs is None:  # ranks ceil(lo / 4) through floor(hi / 4)
            n = len(self.yx)
            return range(min(max(-(-lo // 4), 0), n), min(max(hi // 4 + 1, 0), n))
        return range(bisect_left(cs, lo), bisect_right(cs, hi))

    def members(self, rect: Rect) -> List[int]:
        """Ids of the points inside ``rect``, in x-order."""
        xw, yw = self.x_window(rect), self.y_window(rect)
        i0, i1, j0, j1 = xw.start, xw.stop, yw.start, yw.stop
        B, x_rank = self.block, self.x_rank
        if len(yw) < len(xw) and len(yw) <= B:
            inside = [v for v in self.y_ids[j0:j1] if i0 <= x_rank[v] < i1]
            inside.sort(key=x_rank.__getitem__)
            return inside
        # whole blocks cover x-ranks [lo, hi); none if the window lies
        # inside one block
        lo, hi = -(-i0 // B) * B, i1 // B * B
        if lo > hi:
            lo = hi = i1
        yx, y_ids, runs = self.yx, self.y_ids, self._runs
        inside = [y_ids[j] for j in yx[i0:lo] if j0 <= j < j1]
        hits = []
        for b in range(lo, hi, B):
            hits += runs[bisect_left(runs, j0, b, b + B) : bisect_left(runs, j1, b, b + B)]
        hits = [y_ids[j] for j in hits]
        hits.sort(key=x_rank.__getitem__)
        inside += hits
        inside += [y_ids[j] for j in yx[hi:i1] if j0 <= j < j1]
        return inside


def incidence_hypergraph(points: Sequence[Point2], rects: Sequence[Rect]) -> OrderedHypergraph:
    """The hypergraph a drawing induces: vertices are the points in x-order
    (ties by y), one edge per rectangle listing the points it contains.
    Empty and repeated edges are preserved; empties additionally get a
    warning so multiset comparisons stay explicit.  A plain containment
    scan: the reference the box index is tested against."""
    if len(set(points)) != len(points):
        raise DomainError("points must be pairwise distinct")
    order = sorted(range(len(points)), key=lambda i: points[i])
    rank = [0] * len(points)
    for pos, i in enumerate(order):
        rank[i] = pos
    edges = []
    empties = []
    for ri, r in enumerate(rects):
        members = tuple(
            sorted(rank[i] for i, p in enumerate(points) if r.contains(p))
        )
        if not members:
            empties.append(ri)
        edges.append(members)
    if empties:
        warnings.warn(f"rectangles with no points: {empties}", stacklevel=2)
    return OrderedHypergraph(len(points), edges)


def relabel_to_x_order(H: OrderedHypergraph, points: Sequence[Point2]) -> OrderedHypergraph:
    """Rewrite H's vertex labels from point indices to x-order ranks (ties
    by y) — the labeling incidence_hypergraph uses.  This is the bridge
    between a builder's creation-order vertex ids and drawing-derived
    hypergraphs."""
    if H.n != len(points):
        raise DomainError("point count must match vertex count")
    order = sorted(range(len(points)), key=lambda i: points[i])
    rank = [0] * len(points)
    for pos, i in enumerate(order):
        rank[i] = pos
    return OrderedHypergraph(H.n, [tuple(sorted(rank[u] for u in e)) for e in H.edges])


def default_sample(n_rects: int) -> Optional[int]:
    """The sample to check n_rects rectangles with when none is asked for:
    None (all of them) up to FULL_VERIFY_EDGE_LIMIT, else SAMPLE_VERIFY_COUNT."""
    return None if n_rects <= FULL_VERIFY_EDGE_LIMIT else SAMPLE_VERIFY_COUNT


def verify_realization(
    R: Realization, sample_count: Optional[int] = None, seed: int = 0
) -> int:
    """Check rects[r] ∩ points == edge members for every rectangle (or a
    seeded sample of them) and return how many rectangles were checked.
    Raises VerificationError on any mismatch."""
    H = R.hypergraph
    if H is None:
        raise DomainError("realization carries no hypergraph to verify against")
    n_r, m = len(R.rects), len(H.edges)
    # a builder's own range(m) is a bijection; a loaded list is sorted
    if n_r != m or (R.edge_of_rect != range(m) and sorted(R.edge_of_rect) != list(range(m))):
        raise DomainError("edge_of_rect must be a bijection onto edge indices")
    indices = range(n_r)
    if sample_count is not None:
        if sample_count < 1:
            raise DomainError("sample size must be at least 1", sample=sample_count)
        if sample_count < n_r:
            indices = random.Random(seed).sample(range(n_r), sample_count)
    index = BoxIndex(R.points)
    for r in indices:
        e = R.edge_of_rect[r]
        expect = tuple(H.edges[e])
        got = tuple(sorted(index.members(R.rects[r])))
        if got != expect:
            raise VerificationError(
                "rectangle does not capture its edge exactly",
                rect=r,
                edge=e,
                expected=list(expect),
                got=list(got),
            )
    return len(indices)


# ---------------------------------------------------------------------------
# the rank-space realizer


def _check_periodic(parent: array, prev, li, ident: array) -> None:
    """Raise VerificationError unless level ``li``'s parents repeat stage
    0's pattern: with span the child count of one ``prev`` stage, vertex
    ``li.first_vertex + t·span + q`` has parent p_q + t·prev.stage_size,
    where p_q is the parent of child q of stage 0.  One strided compare
    per child offset q."""
    lo, span = li.first_vertex, prev.children_per_stage * li.stage_size
    N, size = prev.n_stages, prev.stage_size
    if N == 1:
        return
    for q, p in enumerate(parent[lo : lo + span]):
        if parent[lo + q : lo + N * span : span] != ident[p : p + N * size : size]:
            raise VerificationError(
                "a stage's children are not stage 0's children shifted",
                level_first=lo,
                child_offset=q,
            )


def _longest(fits, lo: int, hi: int) -> int:
    """The largest m in [lo, hi] with fits(m), for a predicate that holds
    at lo and, once false, stays false: doubling steps, then bisection."""
    while lo < hi:
        m = min(2 * lo, hi)
        if not fits(m):
            hi = m - 1
            break
        lo = m
    while lo < hi:
        m = (lo + hi + 1) // 2
        if fits(m):
            lo = m
        else:
            hi = m - 1
    return lo


def _sibling_grids(kids: array, size: int, ident: array) -> list:
    """Cut a sibling list (child ids ascending, on a level of stages of
    ``size`` vertices) into grids (u, du, ell, R, rows): the ids
    u + a·R + b·du for a < rows and b < ell, row by row.  du and R are
    multiples of ``size``, so a grid's vertices share one stage offset; a
    lone id is a 1 × 1 grid.  A row grows as long as its ids stay
    arithmetic, and a grid as long as further rows repeat the first at a
    fixed stride, each tried by strided compares against ``ident``."""
    grids, i, c = [], 0, len(kids)
    while i < c:
        u = kids[i]
        du = kids[i + 1] - u if i + 1 < c else size
        if du % size:
            grids.append((u, size, 1, size, 1))
            i += 1
            continue
        ell = _longest(lambda m: kids[i : i + m] == ident[u : u + m * du : du], 1, c - i)
        R, rows = size, 1
        if i + ell < c and (kids[i + ell] - u) % size == 0:
            R = kids[i + ell] - u

            def fits(m: int) -> bool:
                if m <= ell:  # m rows of ell ids, or ell columns of m ids
                    return all(
                        kids[i + a * ell : i + a * ell + ell] == ident[u + a * R : u + a * R + ell * du : du]
                        for a in range(m)
                    )
                return all(
                    kids[i + b : i + m * ell : ell] == ident[u + b * du : u + b * du + m * R : R]
                    for b in range(ell)
                )

            rows = _longest(fits, 1, (c - i) // ell)
        grids.append((u, du, ell, R, rows))
        i += rows * ell
    return grids


def _x_order(S: StagedHypergraph, ident: array):
    """The post-order of the parent forest, children in id order, as
    arithmetic runs (p, dp, v, dv, count): vertex v + i·dv has x-rank
    p + i·dp for i < count.

    A run's vertices lie on one level and dv is a multiple of the stage
    size, so they share one stage offset and one subtree shape (stage t
    repeats stage 0's children shifted by t·span, which
    ``_check_periodic`` makes sure); each sits at the end of its subtree.
    Its children come from the offset's sibling list, cut into grids
    (``_sibling_grids``): a grid and the run span three arithmetic axes,
    and the longest becomes the new runs' axis.  Subtree sizes and grids
    come level by level from the leaves up, from stage 0's children
    grouped by parent."""
    parent, levels, n = S.parent, S.levels, S.n
    last = len(levels) - 1
    # per level: the subtree size and the children's grids, per stage offset
    sizes = [None] * last + [[1] * levels[last].stage_size]
    grids = [None] * last
    for j in range(last - 1, -1, -1):
        prev, li = levels[j], levels[j + 1]
        _check_periodic(parent, prev, li, ident)
        off, lo, span = prev.first_vertex, li.first_vertex, prev.children_per_stage * li.stage_size
        grouped = array(TYPECODE, sorted(range(lo, lo + span), key=parent.__getitem__))
        # stage 0's parent o has grouped children cut[o]..cut[o + 1] - 1
        cut = [bisect_left(grouped, off + o, key=parent.__getitem__) for o in range(prev.stage_size + 1)]
        below, sizes[j], grids[j] = sizes[j + 1], [], []
        for o in range(prev.stage_size):
            q, kept = 0, []  # q: where the next grid starts in o's subtree
            for u, du, ell, R, rows in _sibling_grids(grouped[cut[o] : cut[o + 1]], li.stage_size, ident):
                size = below[(u - lo) % li.stage_size]
                # its two axes as (count, id stride, position stride), longer first
                down, across = (rows, R, ell * size), (ell, du, size)
                kept.append((u, q, down, across) if rows > ell else (u, q, across, down))
                q += rows * ell * size
            grids[j].append(kept)
            sizes[j].append(q + 1)

    top = levels[0]
    todo, s, stage_total = [], 0, sum(sizes[0])
    for o in range(top.stage_size):
        todo.append((0, top.first_vertex + o, top.stage_size, s, stage_total, top.n_stages))
        s += sizes[0][o]
    runs, placed = [], 0
    while todo:
        j, v, dv, s, dp, count = todo.pop()
        li = levels[j]
        t, o = divmod(v - li.first_vertex, li.stage_size)
        runs.append((s + sizes[j][o] - 1, dp, v, dv, count))
        placed += count
        if j == last:
            continue
        span = li.children_per_stage * levels[j + 1].stage_size
        shift, step = t * span, dv // li.stage_size * span
        for u, q, longer, (n1, dv1, dp1) in grids[j][o]:
            # the run's own axis and the grid's two: the longest carries the new runs
            own = (count, step, dp)
            (n2, dv2, dp2), (n3, dv3, dp3) = (own, longer) if longer[0] > count else (longer, own)
            for a in range(n1):
                for b in range(n2):
                    todo.append((j + 1, u + shift + a * dv1 + b * dv2, dv3, s + q + a * dp1 + b * dp2, dp3, n3))
    # a child of stage 0 whose parent lies outside stage 0 was left out
    if placed != n:
        raise VerificationError("placement list does not cover all points")
    return runs


def _y_order(S: StagedHypergraph, ident: array):
    """(y_ids, y_rank): the reverse pre-order of the stage tree, child
    subtrees last to first and then the stage's own band, and its inverse.

    A stage on level last − 1 emits one chunk, its child stages' bands
    (its leaf family) and then its own band, and entry i of the chunk of
    stage pos is a_i + pos·step_i.  Sibling chunks are consecutive and
    reversed, so a sibling group's chunks are written, ids and ranks, by
    one strided slice of ``ident`` per chunk entry.  The stages above
    level last − 1 (one stage on every buildable instance) are emitted one
    by one."""
    levels, m = S.levels, S.m
    within = _y_order(S.copy_template, ident)[0] if S.copy_template is not None else range(m)
    # one stage's band, relative to its first vertex: blocks from the lowest
    # sub-band up, each block in its copy's own y-order
    bands = []
    for li in levels:
        if li.blocks_per_stage:
            bands.append(
                [b * m + p for b in range(li.blocks_per_stage - 1, -1, -1) for p in within]
            )
        else:
            bands.append(list(range(li.stage_size)))  # one flat band
    y_ids, y_rank = array(TYPECODE, [0]) * S.n, array(TYPECODE, [0]) * S.n
    at = 0  # the next y-rank to write

    def put(ids: list) -> None:
        nonlocal at
        for i, v in enumerate(ids, at):
            y_rank[v] = i
        y_ids[at : at + len(ids)] = array(TYPECODE, ids)
        at += len(ids)

    def band(j: int, pos: int) -> None:
        base = levels[j].first_vertex + pos * levels[j].stage_size
        put([base + p for p in bands[j]])

    last = len(levels) - 1
    if not last:
        band(0, 0)
        return y_ids, y_rank
    li, leaf = levels[last - 1], levels[last]
    r, size = li.children_per_stage, leaf.stage_size
    # (a_i, step_i) per chunk entry: the family's stages last to first, then the band
    chunk = [
        (leaf.first_vertex + t * size + p, r * size)
        for t in range(r - 1, -1, -1)
        for p in bands[last]
    ]
    chunk += [(li.first_vertex + p, li.stage_size) for p in bands[last - 1]]
    width = len(chunk)

    def group(lo: int, count: int) -> None:
        # the chunks of stages lo + count - 1 down to lo
        nonlocal at
        if count == 1:
            put([a + lo * step for a, step in chunk])
            return
        end = at + count * width
        for i, (a, step) in enumerate(chunk):
            ids = slice(a + lo * step, a + (lo + count) * step, step)
            ranks = ident[at + i : end : width]
            ranks.reverse()
            y_rank[ids] = ranks
            y_ids[at + i : end : width] = ident[ids][::-1]
        at = end

    if last == 1:
        group(0, levels[0].n_stages)
        return y_ids, y_rank
    # the stages above level last − 1, each after its child subtrees
    # (last child first): (j, pos, whether its children are emitted)
    todo = [(0, 0, False)]
    while todo:
        j, pos, expanded = todo.pop()
        r = levels[j].children_per_stage
        if not expanded and j + 1 < last - 1:
            todo.append((j, pos, True))
            todo += [(j + 1, t, False) for t in range(pos * r, (pos + 1) * r)]
            continue
        if not expanded:
            group(pos * r, r)
        band(j, pos)
    return y_ids, y_rank


def _orders(S: StagedHypergraph):
    """(yx, y_ids, (x_rank, y_rank)): the y-ranks in x-order, the vertices
    bottom to top, and the two orders' inverses.  The x-order's runs are
    planned first, so their temporaries are freed before the y-order's
    arrays exist; each run writes a slice of ``yx`` and ``x_rank``."""
    ident = _identity(S.n)
    runs = _x_order(S, ident)
    y_ids, y_rank = _y_order(S, ident)
    yx, x_rank = array(TYPECODE, [0]) * S.n, array(TYPECODE, [0]) * S.n
    for p, dp, v, dv, count in runs:
        ps, vs = slice(p, p + count * dp, dp), slice(v, v + count * dv, dv)
        yx[ps] = y_rank[vs]
        x_rank[vs] = ident[ps]
    return yx, y_ids, (x_rank, y_rank)


def _realize(S: StagedHypergraph, nested: bool) -> Realization:
    yx, y_ids, ranks = _orders(S)
    points = _RankPoints(yx, y_ids, *ranks)
    edges = S.base.edges
    leaf_stages = None
    if nested:
        last = S.levels[-1]
        leaf_stages = (S.n_path_edges, last.first_vertex, last.stage_size)
    R = Realization(points, _RankRects(edges, points, leaf_stages), range(len(edges)), S.base)
    verify_realization(R, sample_count=default_sample(len(edges)), seed=_SAMPLE_SEED)
    return R


def realize_Hkc(S: StagedHypergraph) -> Realization:
    """Point/rectangle drawing of a staged k-uniform instance; every edge's
    rectangle captures exactly its k (ascending) member points."""
    if S.kind != "hkc":
        raise DomainError("expected an instance from the staged k-uniform builder")
    return _realize(S, nested=False)


def realize_Hkc_nested(S: StagedHypergraph) -> Realization:
    """As realize_Hkc, but rectangle y-projections form a nested family:
    path rectangles share one top boundary above every point, transversal
    rectangles stay inside their block's sub-band."""
    if S.kind != "hkc":
        raise DomainError("expected an instance from the staged k-uniform builder")
    R = _realize(S, nested=True)
    if not is_nested(zip(*R.rects.y_windows())):
        raise VerificationError("y-projections failed the nested check")
    return R


def realize_Gcg(G: StagedHypergraph) -> Realization:
    """Drawing of a large-girth instance: parent-child edges as two-point
    rectangles, stage-internal copies per the band discipline."""
    if G.kind != "gcg":
        raise DomainError("expected an instance from the girth-graph builder")
    return _realize(G, nested=False)


# ---------------------------------------------------------------------------
# predicates


def is_ascending(points: Sequence[Point2]) -> bool:
    """Whether x-order and y-order agree (both strict)."""
    order = sorted(points)
    for a, b in zip(order, order[1:]):
        if not (a.x < b.x and a.y < b.y):
            return False
    return True


def is_nested(intervals: Iterable) -> bool:
    """Whether every two half-open (lo, hi) intervals are disjoint or one
    contains the other.  Duplicates count as nested."""
    stack: list = []  # right ends of the intervals enclosing the current one
    for lo, neg_hi in sorted([(lo, -hi) for lo, hi in intervals]):
        hi = -neg_hi
        while stack and stack[-1] <= lo:
            stack.pop()
        if stack and hi > stack[-1]:
            return False  # straddles the enclosing interval's right end
        stack.append(hi)
    return True


def y_projections(R: Realization) -> List[Interval]:
    """Half-open y-projections of the rectangles.  The conversion from
    closed boxes is safe only when no point sits on a projection endpoint;
    that is checked here."""
    point_ys = {p.y for p in R.points}
    out = []
    for r in R.rects:
        if r.y_hi in point_ys:
            raise VerificationError(
                "a point lies on a rectangle's upper y-boundary; half-open "
                "projection would change membership"
            )
        out.append(Interval(r.y_lo, r.y_hi))
    return out


# ---------------------------------------------------------------------------
# perfect nested families


@dataclass
class _Node:
    lo: Fraction
    hi: Fraction
    children: List["_Node"] = field(default_factory=list)
    inputs: List[int] = field(default_factory=list)
    label: str = ""


@dataclass
class PerfectNestedFamily:
    """A complete nested binary family: intervals I_s for every binary
    string s with |s| ≤ depth−1, I_s = I_{s0} ∪ I_{s1}, together with the
    label each input interval landed on and a leaf label per point."""

    depth: int
    interval_of: Dict[str, Interval]
    input_labels: List[Optional[str]]
    point_labels: List[str]


def extend_to_perfect_nested(
    family: Sequence,
    points_y: Sequence[Fraction],
    strict_root: bool = False,
) -> PerfectNestedFamily:
    """Grow a nested interval family into a perfect one.

    Gap children make every node's children a partition; leaves holding
    more than one distinct point value are split at value midpoints (only
    as needed); each sibling list is binarized by the order-preserving
    minimax merge, which repeatedly joins the adjacent pair whose deeper
    side is shallowest (leftmost on ties); leaves are padded with
    left-chains (empty right siblings) to a uniform depth.  Each input
    interval keeps a node label; each point gets the label of its depth
    t−1 leaf, so input-interval membership becomes label-prefix testing.

    ``strict_root`` forces the root to strictly contain every input
    interval (so every input label has length ≥ 1), which the general
    difference-set translation needs.
    """
    ivs = [Interval(lo, hi) for lo, hi in family]
    if not is_nested(ivs):
        raise DomainError("interval family is not nested")
    nonempty = [(iv, i) for i, iv in enumerate(ivs) if iv.lo < iv.hi]
    if not nonempty and not points_y:
        raise DomainError("nothing to extend: no intervals, no points")

    lows = [iv.lo for iv, _ in nonempty]
    if points_y:
        lows = lows + [min(points_y)]
    lo = min(lows)
    hi = max([iv.hi for iv, _ in nonempty], default=lo)
    if points_y and max(points_y) >= hi:
        hi = max(points_y) + 1
    if strict_root and any(iv == (lo, hi) for iv, _ in nonempty):
        hi = hi + 1

    root = _Node(lo, hi)
    # containment forest: sort by (lo asc, hi desc); a stack gives parents
    uniq: Dict[Interval, _Node] = {}
    order = sorted(set(iv for iv, _ in nonempty), key=lambda iv: (iv.lo, -iv.hi))
    stack = [root]
    for iv in order:
        while not (stack[-1].lo <= iv.lo and iv.hi <= stack[-1].hi):
            stack.pop()
        if (iv.lo, iv.hi) == (stack[-1].lo, stack[-1].hi):
            uniq[iv] = stack[-1]  # duplicate of its parent: share the node
            continue
        node = _Node(iv.lo, iv.hi)
        stack[-1].children.append(node)
        uniq[iv] = node
        stack.append(node)
    for iv, i in nonempty:
        uniq[iv].inputs.append(i)

    pts = sorted(set(points_y))
    depth = _complete(root, pts)
    _pad_uniform(root, depth)
    _assign_labels(root, "")

    interval_of: Dict[str, Interval] = {}
    input_labels: List[Optional[str]] = [None] * len(ivs)
    _collect(root, interval_of, input_labels)
    point_labels = [_leaf_label(root, y, depth) for y in points_y]
    return PerfectNestedFamily(depth + 1, interval_of, input_labels, point_labels)


def _complete(node: _Node, pts: List[Fraction]) -> int:
    """Gap children, point-splitting of leaves, then the minimax merge of
    each sibling list.  Returns the height of the completed subtree."""
    inside = [y for y in pts if node.lo <= y < node.hi]
    if not node.children:
        if len(inside) > 1:
            h = len(inside) // 2
            mid = Fraction(inside[h - 1] + inside[h], 2)
            node.children = [_Node(node.lo, mid), _Node(mid, node.hi)]
            return 1 + max([_complete(ch, inside) for ch in node.children])
        return 0
    node.children.sort(key=lambda c: c.lo)
    filled: List[_Node] = []
    cursor = node.lo
    for ch in node.children:
        if cursor < ch.lo:
            filled.append(_Node(cursor, ch.lo))
        filled.append(ch)
        cursor = ch.hi
    if cursor < node.hi:
        filled.append(_Node(cursor, node.hi))
    # order-preserving minimax merge (Golumbic, "Combinatorial merging",
    # IEEE Trans. Comput. C-25, 1976): join the adjacent pair whose deeper
    # side is shallowest, leftmost on ties
    kids = [(_complete(ch, inside), ch) for ch in filled]
    while len(kids) > 2:
        i = min(range(len(kids) - 1), key=lambda j: max(kids[j][0], kids[j + 1][0]))
        (ha, a), (hb, b) = kids[i], kids[i + 1]
        kids[i : i + 2] = [(max(ha, hb) + 1, _Node(a.lo, b.hi, children=[a, b]))]
    if len(kids) == 1:
        kids.append((0, _Node(node.hi, node.hi)))
    node.children = [ch for _, ch in kids]
    return 1 + max(h for h, _ in kids)


def _pad_uniform(node: _Node, depth: int) -> None:
    if depth == 0:
        return
    if not node.children:
        node.children = [_Node(node.lo, node.hi), _Node(node.hi, node.hi)]
    for c in node.children:
        _pad_uniform(c, depth - 1)


def _assign_labels(node: _Node, label: str) -> None:
    node.label = label
    for bit, c in zip("01", node.children):
        _assign_labels(c, label + bit)


def _collect(node: _Node, interval_of, input_labels) -> None:
    interval_of[node.label] = Interval(node.lo, node.hi)
    for i in node.inputs:
        input_labels[i] = node.label
    for c in node.children:
        _collect(c, interval_of, input_labels)


def _leaf_label(root: _Node, y: Fraction, depth: int) -> str:
    node = root
    if not (node.lo <= y < node.hi):
        raise DomainError("point outside the root interval", y=str(y))
    for _ in range(depth):
        for c in node.children:
            if c.lo <= y < c.hi:
                node = c
                break
        else:
            raise VerificationError("no child interval contains the point")
    return node.label


# ---------------------------------------------------------------------------
# dominance posets


def _check_general_position(points: Sequence[Point2]) -> None:
    if len({p.x for p in points}) != len(points) or len({p.y for p in points}) != len(points):
        raise DomainError("points must have pairwise distinct x and y coordinates")


def dominance_hasse(points: Sequence[Point2]) -> OrderedHypergraph:
    """Cover pairs of the dominance order p < q (x and y both smaller):
    the pairs with no third point strictly inside their spanning box.

    One O(n²) sweep over integer y-ranks in x-order: q covers p exactly
    when q comes after p in x-order and p.y < q.y < the lowest y above p.y
    among the points between them.  Each pair is (smaller index, larger
    index), and the pairs are sorted."""
    _check_general_position(points)
    n = len(points)
    x_ids = sorted(range(n), key=lambda i: points[i].x)
    y_rank = _inverse(sorted(range(n), key=lambda i: points[i].y))
    ys = [y_rank[v] for v in x_ids]
    edges = []
    for i, yp in enumerate(ys):
        bound = n  # lowest y-rank above yp seen so far
        for j in range(i + 1, n):
            if yp < ys[j] < bound:
                bound = ys[j]
                a, b = x_ids[i], x_ids[j]
                edges.append((a, b) if a < b else (b, a))
    edges.sort()
    return OrderedHypergraph(n, edges)


def monochromatic_increasing_path(
    points: Sequence[Point2], col: Coloring, k: int
) -> Optional[List[int]]:
    """A chain of k same-colored points, consecutive in the dominance
    Hasse diagram, or None.  k counts vertices.  Found by longest-path
    dynamic programming per color class, scanning in x-order."""
    _check_general_position(points)
    if k < 1:
        raise DomainError("chain length must be positive", k=k)
    if len(col.colors) != len(points):
        raise DomainError("coloring length does not match point count")
    hasse = dominance_hasse(points)
    n = len(points)
    preds = [[] for _ in range(n)]
    for a, b in hasse.edges:
        lo, hi = (a, b) if points[a].x < points[b].x else (b, a)
        if col.colors[lo] == col.colors[hi]:
            preds[hi].append(lo)
    order = sorted(range(n), key=lambda i: points[i].x)
    best = [1] * n
    back = [-1] * n
    for v in order:
        for u in preds[v]:
            if best[u] + 1 > best[v]:
                best[v] = best[u] + 1
                back[v] = u
        if best[v] >= k:
            chain = [v]
            while back[chain[-1]] >= 0 and len(chain) < k:
                chain.append(back[chain[-1]])
            return list(reversed(chain))
    return None


# ---------------------------------------------------------------------------
# SVG


@dataclass(frozen=True)
class SvgStyle:
    width: float = 900.0
    margin: float = 40.0
    point_radius: float = 3.0
    stroke_width: float = 1.2
    point_color: str = "#c4442a"
    rect_color: str = "#2a6fc4"


def emit_svg(R: Realization, style: SvgStyle = SvgStyle()) -> bytes:
    """Deterministic SVG: circles for points, hollow strokes for
    rectangles, viewport fitted to the drawing's bounds."""
    if not (isfinite(style.width) and style.width > 2 * style.margin):
        raise DomainError(
            "SVG width must be finite and above twice the margin",
            width=str(style.width),
            margin=str(style.margin),
        )
    if not R.points:
        raise DomainError("cannot draw an empty realization")
    rects = list(R.rects)
    xs = [p.x for p in R.points] + [v for r in rects for v in (r.x_lo, r.x_hi)]
    ys = [p.y for p in R.points] + [v for r in rects for v in (r.y_lo, r.y_hi)]
    try:
        x0, x1 = float(min(xs)), float(max(xs))
        y0, y1 = float(min(ys)), float(max(ys))
    except OverflowError:
        raise DomainError("cannot draw a coordinate that does not fit in a float")
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    inner = style.width - 2 * style.margin
    scale = inner / span_x
    height = span_y * scale + 2 * style.margin
    if not all(map(isfinite, (span_x, span_y, scale, height))):
        raise DomainError("cannot draw a drawing whose extent or scale does not fit in a float")

    def fx(v: Fraction) -> str:
        return f"{style.margin + (float(v) - x0) * scale:.6f}"

    def fy(v: Fraction) -> str:
        return f"{style.margin + (y1 - float(v)) * scale:.6f}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{style.width:.6f}" height="{height:.6f}" '
        f'viewBox="0 0 {style.width:.6f} {height:.6f}">'
    ]
    for r in rects:
        w = f"{(float(r.x_hi) - float(r.x_lo)) * scale:.6f}"
        h = f"{(float(r.y_hi) - float(r.y_lo)) * scale:.6f}"
        out.append(
            f'<rect x="{fx(r.x_lo)}" y="{fy(r.y_hi)}" width="{w}" height="{h}" '
            f'fill="none" stroke="{style.rect_color}" '
            f'stroke-width="{style.stroke_width:.6f}"/>'
        )
    for p in R.points:
        out.append(
            f'<circle cx="{fx(p.x)}" cy="{fy(p.y)}" '
            f'r="{style.point_radius:.6f}" fill="{style.point_color}"/>'
        )
    out.append("</svg>")
    return "\n".join(out).encode("utf-8")
