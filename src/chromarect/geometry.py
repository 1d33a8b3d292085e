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

Both orders are planned from the level records, as arithmetic runs:
vertices with ids v, v + dv, … at ranks p, p + dp, …, and one loop
writes each run and its inverse as a pair of strided slices.  Every
stage of a level has the same shape, and a subtree's size depends only
on its level.  H(k,c)'s children follow from the digit rule the
builder writes its parents by (``construction._parent_rule``), so its
x-order reads no parent, and the realizer first checks, by strided
compares, that the parents are the rule's; 4,857 x-runs place all
1,771,497 vertices of H(3,2).  G(c,g)'s forest has depth one, and one
sort by parent gives its x-order, cut into strided columns of arithmetic
stretches: 6 x-runs place G(2, 20001).  The x-order checks that its runs
cover every vertex; it and the parent check raise
:class:`VerificationError` where they fail.  A y-run is one band entry
of a tile of a run of stages (at most 2**16 y-ranks long), or one
arithmetic stretch of the band of a lone stage, and the y-runs are
written in order of their first y-rank.  An untiled run would sweep a
whole stage run, so nearly every rank it writes and id it reads would
miss the cache; tiled, the runs over one stretch of y-ranks fill it
while it is in cache.  2,529 y-runs place H(3,2), and 3 place
G(2, 20001).

A point set, built, loaded or bare, is one rank view: the two rank
arrays, the y-order ``y_ids``, the permutation ``yx`` (yx[i] is the
y-rank of the point at x-rank i, one slice per x-order run when built)
and the sorted coordinates ``xs``, ``ys`` (0, 4, 8, … when built), so
vertex v is (xs[x_rank[v]], ys[y_rank[v]]).  A box is a rank window
(x0, x1, y0, y1), half-open; an edge's window is its members' ranks,
and its rectangle lies one unit outside it on each side.  Every id,
rank and rank-coordinate array has the 4-byte ``construction.TYPECODE``;
the builders refuse instances it cannot hold.  No floating point is
involved except in SVG output.  The builder verifies its own incidence
before returning, with the sample :func:`default_sample` picks.

Whatever reads every rectangle reads them in bulk.  A built drawing's
windows come from one pass, kept with its rects
(:meth:`_RankRects.windows`): the edge columns read through the rank
arrays, and each edge's lowest and highest rank taken at C level.  The
full check reads those windows; :meth:`Realization.columns` turns them
into bound columns, which the JSON writer
(:meth:`Realization.to_json_bytes`, one template per row), :func:`emit_svg`
and :func:`y_projections` read, with no rectangle built.  A sampled check
reads only its own windows, one edge at a time.

Every box-membership question goes through :class:`BoxIndex`, which
reads rank windows only, and one block array of sorted slices of ``yx``;
:meth:`_RankPoints.window`, a bisect of ``xs`` and of ``ys``, is the one
place coordinates become ranks.  On H(3,2) the transversal rectangles
have y-windows of three ranks, and a path rectangle's x-window of some
33k ranks costs about 25 bisects plus two partial blocks of at most
1331 ranks, so neither kind pays for its wide side.
"""

from __future__ import annotations

import random
import re
import warnings
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import isfinite, isqrt
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

from .construction import TYPECODE, StagedHypergraph, _identity, _parent_rule
from .errors import DomainError, VerificationError
from .hypergraph import Coloring, OrderedHypergraph, _LazySequence

Coord = Union[int, Fraction]

# Full incidence verification is quadratic-ish; beyond this many edges the
# realizer verifies a seeded sample instead (the check every huge instance
# gets in acceptance anyway).
FULL_VERIFY_EDGE_LIMIT = 100_000
SAMPLE_VERIFY_COUNT = 1000
_SAMPLE_SEED = 17

# what a loaded coordinate may be: exactly what to_json_bytes writes
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


def parse_coord(value) -> Coord:
    """A coordinate read from JSON: an int (not a bool) or a rational
    string such as ``"-7/2"``.  A JSON int and integral text such as
    ``"-12"`` load as ``int``, and only ``"p/q"`` as ``Fraction``; the two
    compare and hash alike, so arithmetic stays exact either way.  Nothing
    else reaches them: ``int`` would take ``"1_0"`` or ``" 3"``, and
    ``Fraction`` would expand an exponent such as ``"1e100000000"`` digit
    by digit."""
    if type(value) is int:
        return value
    if type(value) is str and _COORD_TEXT.fullmatch(value):
        try:
            return Fraction(value) if "/" in value else int(value)
        except ZeroDivisionError:
            raise DomainError("coordinate has a zero denominator")
        except ValueError as exc:  # more digits than the interpreter converts
            raise DomainError(f"coordinate too long: {exc}")
    raise DomainError("coordinate must be an int or a string p or p/q of decimal digits")


def _coord_rows(rows, width: int) -> Iterable[list]:
    """JSON rows of ``width`` coordinates each, parsed by :func:`parse_coord`
    one row at a time once every row's shape is checked."""
    if type(rows) is not list or any(type(row) is not list or len(row) != width for row in rows):
        raise DomainError(f"expected a JSON list of rows of {width} coordinates")
    return ([parse_coord(c) for c in row] for row in rows)


def parse_points(rows) -> _RankPoints:
    """The point set of JSON rows [x, y], as a rank view."""
    return _RankPoints.of([Point2(*row) for row in _coord_rows(rows, 2)])


def make_rect(x_lo, x_hi, y_lo, y_hi) -> Rect:
    if x_lo > x_hi or y_lo > y_hi:
        raise DomainError("rectangle bounds out of order")
    return Rect(x_lo, x_hi, y_lo, y_hi)


class Interval(NamedTuple):
    """Half-open interval [lo, hi)."""

    lo: Coord
    hi: Coord


# ---------------------------------------------------------------------------
# the rank views of a point set and of a built drawing's rectangles


def _inverse(ids) -> array:
    """rank[v] = position of v in ``ids``."""
    rank = array(TYPECODE, [0]) * len(ids)
    for i, v in enumerate(ids):
        rank[v] = i
    return rank


class _RankPoints(_LazySequence):
    """Vertex v at (xs[x_rank[v]], ys[y_rank[v]]), the coordinates sorted
    (a built drawing's 0, 4, 8, …); ``yx`` (the y-ranks in x-order) and
    ``y_ids`` ride along for :class:`BoxIndex` and the dominance sweep.
    :meth:`window` turns a box's coordinates into ranks."""

    def __init__(self, yx: array, y_ids: array, x_rank: array, y_rank: array, xs=None, ys=None):
        self.yx = yx
        self.y_ids = y_ids
        self.x_rank = x_rank
        self.y_rank = y_rank
        self.xs = range(0, 4 * len(yx), 4) if xs is None else xs
        self.ys = self.xs if ys is None else ys

    @classmethod
    def of(cls, points: Sequence[Point2]) -> _RankPoints:
        """``points`` if a view, else its view: one stable sort per axis."""
        if isinstance(points, cls):
            return points
        n = len(points)
        x_ids = sorted(range(n), key=lambda i: points[i].x)
        y_ids = array(TYPECODE, sorted(range(n), key=lambda i: points[i].y))
        y_rank = _inverse(y_ids)
        yx = array(TYPECODE, map(y_rank.__getitem__, x_ids))
        xs, ys = [points[i].x for i in x_ids], [points[i].y for i in y_ids]
        return cls(yx, y_ids, _inverse(x_ids), y_rank, xs, ys)

    def __len__(self) -> int:
        return len(self.yx)

    def _item(self, v: int) -> Point2:
        return Point2(self.xs[self.x_rank[v]], self.ys[self.y_rank[v]])

    def window(self, rect: Rect) -> tuple:
        """The rank window (x0, x1, y0, y1) of the points inside the closed
        box: x-ranks [x0, x1) and y-ranks [y0, y1), one bisect per side."""
        x0, x1 = bisect_left(self.xs, rect.x_lo), bisect_right(self.xs, rect.x_hi)
        return x0, x1, bisect_left(self.ys, rect.y_lo), bisect_right(self.ys, rect.y_hi)


class _RankRects(_LazySequence):
    """One rectangle per edge of a staged instance (``edges`` is its
    computed edge sequence), computed on demand from the edge's rank
    window, each side one unit outside the extreme members.

    ``leaf_stages`` (the nested variant) is (path edge count, first leaf
    vertex, leaf stage size).  Path edge e's y-window then spans from
    the lowest point of its leaf's stage to the top, and its rectangle
    to a top shared by all path rectangles and above every point."""

    def __init__(self, edges, points: _RankPoints, leaf_stages=None):
        self._edges = edges
        self._xr = points.x_rank
        self._yr = points.y_rank
        self._n_path, self._first_leaf, self._leaf_size = leaf_stages or (0, 0, 1)
        self._windows = None

    def __len__(self) -> int:
        return len(self._edges)

    def window(self, e: int) -> tuple:
        """Edge e's rank window (x0, x1, y0, y1), read from its members'
        ranks (a nested path edge's y-window from its leaf stage's)."""
        members = self._edges[e]
        xr, yr = self._xr, self._yr
        xw = [xr[u] for u in members]
        if e < self._n_path:
            size = self._leaf_size
            lo = self._first_leaf + e // size * size
            return min(xw), max(xw) + 1, min(yr[lo : lo + size]), len(yr)
        yw = [yr[u] for u in members]
        return min(xw), max(xw) + 1, min(yw), max(yw) + 1

    def _item(self, e: int) -> Rect:
        x0, x1, y0, y1 = self.window(e)
        y_lo = 4 * y0 - (2 if e < self._n_path else 1)  # one unit lower on a nested path
        return Rect(4 * x0 - 1, 4 * x1 - 3, y_lo, 4 * y1 - 3)

    def windows(self) -> tuple:
        """Every edge's rank window, as :meth:`window` gives it, in four
        ``TYPECODE`` arrays (x0, x1, y0, y1) made in one pass and kept: the
        edge columns read through the rank arrays, each edge's lowest and
        highest rank taken at C level.  A nested path row takes its leaf
        stage's lowest y-rank (one strided column of y-ranks per stage
        offset) and the top; the member y-ranks are read past the path
        edges only."""
        if self._windows is None:
            xr, yr, n_path, size, lo = self._xr, self._yr, self._n_path, self._leaf_size, self._first_leaf
            x0, x1 = _spans(self._edges.columns(through=xr))
            stage_lows = array(TYPECODE, map(min, zip(*[yr[lo + q : lo + n_path : size] for q in range(size)])))
            y0 = array(TYPECODE, [0]) * n_path
            for q in range(size):
                y0[q::size] = stage_lows
            y1 = array(TYPECODE, [len(yr)]) * n_path
            lows, highs = _spans(self._edges.columns(n_path, through=yr))
            y0 += lows
            y1 += highs
            self._windows = x0, x1, y0, y1
        return self._windows

    def bounds(self) -> tuple:
        """Every rectangle's (x_lo, x_hi, y_lo, y_hi) as :meth:`_item` draws
        it, four ``TYPECODE`` arrays from :meth:`windows`."""
        x0, x1, y0, y1 = self.windows()
        n_path = self._n_path
        y_lo = [4 * v - 2 for v in y0[:n_path]]
        y_lo += [4 * v - 1 for v in y0[n_path:]]
        cols = [4 * v - 1 for v in x0], [4 * v - 3 for v in x1], y_lo, [4 * v - 3 for v in y1]
        return tuple(array(TYPECODE, col) for col in cols)


def _spans(cols) -> tuple:
    """Per row of the rank columns ``cols``, the lowest rank and one past
    the highest, as two ``TYPECODE`` arrays.  A column may end early,
    where its edges' members run out (a copy template narrower than the
    paths), so each stretch of rows is spanned over the columns that reach
    it.  The ranks go through a list, which ``array`` copies without
    growing itself item by item."""
    lows, highs = array(TYPECODE), array(TYPECODE)
    while cols:
        lo, hi = (cols[0], cols[0]) if len(cols) == 1 else (map(min, *cols), map(max, *cols))
        lows += array(TYPECODE, list(lo))
        highs += array(TYPECODE, list(map((1).__add__, hi)))
        short = min(map(len, cols))
        cols = [col[short:] for col in cols if len(col) > short]
    return lows, highs


def _column(coords, rank) -> Sequence:
    """coords[rank[v]] for every v: a ``TYPECODE`` array on a builder's
    grid of fours (a range), else a list."""
    col = list(map(coords.__getitem__, rank))
    return array(TYPECODE, col) if type(coords) is range else col


class Realization:
    """Points (aligned with vertex indices), one rectangle per edge
    (aligned via ``edge_of_rect``), and the hypergraph they realize.

    The central invariant — for every edge e, ``rects[r] ∩ points`` is
    exactly e's vertex set, where ``edge_of_rect[r] == e`` — is established
    by the builder running :func:`verify_realization`, never assumed.
    Its points are a rank view, built, loaded or given; a builder's rects
    are a view over the same rank arrays, and any other rects a list.
    """

    __slots__ = ("points", "rects", "edge_of_rect", "hypergraph")

    def __init__(self, points, rects, edge_of_rect, hypergraph=None):
        self.points = _RankPoints.of(points)
        self.rects = rects
        self.edge_of_rect = edge_of_rect
        self.hypergraph = hypergraph

    def window(self, r: int) -> tuple:
        """Rectangle r's rank window: a builder's from its edge's member
        ranks, any other's from its coordinates."""
        if isinstance(self.rects, _RankRects):
            return self.rects.window(r)
        return self.points.window(self.rects[r])

    def windows(self) -> Iterable[tuple]:
        """Every rectangle's rank window, in rect order: a builder's from
        its one window pass, any other's from its coordinates."""
        if isinstance(self.rects, _RankRects):
            return zip(*self.rects.windows())
        return map(self.points.window, self.rects)

    def columns(self) -> tuple:
        """(x, y, x_lo, x_hi, y_lo, y_hi): the points' coordinates in vertex
        order, xs[x_rank] and ys[y_rank], then the rectangles' bounds in
        rect order, a builder's from its window pass
        (:meth:`_RankRects.bounds`) and any other's from its rects."""
        P = self.points
        x, y = (_column(c, rank) for c, rank in ((P.xs, P.x_rank), (P.ys, P.y_rank)))
        if not isinstance(self.rects, _RankRects):
            return (x, y, *(list(zip(*self.rects)) or [()] * 4))
        return (x, y, *self.rects.bounds())

    def to_json_bytes(self) -> bytes:
        """The drawing as canonical JSON (sorted keys, compact separators,
        a trailing newline): every coordinate as decimal text "p" or "p/q",
        written from :meth:`columns` with one template per row."""
        x, y, *bounds = self.columns()
        return b"".join(
            [
                b'{"edge_of_rect":[',
                ",".join(map(str, self.edge_of_rect)).encode("ascii"),
                b'],"points":[',
                ",".join(map('["%s","%s"]'.__mod__, zip(x, y))).encode("ascii"),
                b'],"rects":[',
                ",".join(map('["%s","%s","%s","%s"]'.__mod__, zip(*bounds))).encode("ascii"),
                b"]}\n",
            ]
        )

    @classmethod
    def from_json_dict(cls, d: dict) -> "Realization":
        try:
            points = parse_points(d["points"])
            rects = [make_rect(*row) for row in _coord_rows(d["rects"], 4)]
            edge_of_rect = d["edge_of_rect"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed realization JSON: {exc}")
        if type(edge_of_rect) is not list:
            raise DomainError("edge_of_rect must be a JSON list")
        if any(type(i) is not int for i in edge_of_rect):
            raise DomainError("edge_of_rect entries must be ints")
        if len(rects) != len(edge_of_rect):
            raise DomainError("edge_of_rect must label every rectangle")
        return cls(points, rects, edge_of_rect)


# ---------------------------------------------------------------------------
# incidence


class BoxIndex:
    """Which points lie in which rank window (x0, x1, y0, y1), asked of the
    points' rank view (:meth:`_RankPoints.of`): the points with x-rank in
    [x0, x1) and y-rank in [y0, y1).  The index reads no coordinate; a
    closed box's window comes from :meth:`_RankPoints.window`.

    Besides the view's ``yx`` (the y-ranks in x-order), ``y_ids`` and rank
    arrays, the index keeps one block array: ``yx`` cut into blocks of
    ``block`` = isqrt(n) ranks, each sorted.  A window whose y-side is
    shorter than its x-side and at most one block long scans its y-ranks
    and sorts the hits by x-rank.  Any other window scans ``yx`` over the
    partial blocks at the two ends of its x-side, and in each whole block
    between them bisects the sorted run for the y-side, so a long x-side
    costs O(√n) scanned ranks plus one bisect per block."""

    def __init__(self, points: Sequence[Point2]):
        P = _RankPoints.of(points)
        self.yx, self.y_ids, self.x_rank, self.y_rank = P.yx, P.y_ids, P.x_rank, P.y_rank
        n = len(P)
        self.block = B = max(1, isqrt(n))
        self._runs = runs = array(TYPECODE)
        for b in range(0, n, B):
            runs.fromlist(sorted(self.yx[b : b + B]))

    def members(self, window) -> List[int]:
        """Ids of the points inside the rank window, in x-order."""
        i0, i1, j0, j1 = window
        B, x_rank = self.block, self.x_rank
        if j1 - j0 < i1 - i0 and j1 - j0 <= B:
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
    if sample_count is not None and sample_count < 1:
        raise DomainError("sample size must be at least 1", sample=sample_count)
    if sample_count is not None and sample_count < n_r:
        # a sample reads only its own windows
        indices = random.Random(seed).sample(range(n_r), sample_count)
        windows = zip(indices, map(R.window, indices))
    else:
        indices = range(n_r)
        windows = enumerate(R.windows())
    index = BoxIndex(R.points)
    for r, window in windows:
        e = R.edge_of_rect[r]
        expect = tuple(H.edges[e])
        got = tuple(sorted(index.members(window)))
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


def _x_order(S: StagedHypergraph):
    """The post-order of the parent forest, children in id order, as
    arithmetic runs (p, dp, v, dv, count): vertex v + i·dv has x-rank
    p + i·dp for i < count.  A one-level instance is in id order.

    H(k, c) is planned level by level from its level records, as runs of
    vertices that share one level and stage offset (dv is a multiple of
    the stage size), each at the end of its subtree.  A subtree's size
    depends only on its level, so level 0, one stage of roots, is one run
    per root.  By the digit rule (the one ``construction._parent_rule``
    writes), the children of a vertex in block b with digit d are child
    offset b of the child stages hi·m**(B - b) + d·m**(B - 1 - b) + lo, B
    the blocks per stage, in order of (hi, lo).  A run's own axis, the lo
    axis and the hi axis are three arithmetic axes, and the longest
    carries the next level's runs.  The realizer checks the parents
    against that rule.

    G(c, g)'s forest has depth one: each root comes right after its
    children, which one sort of the non-roots by parent groups.  The
    sorted order is cut into columns at a stride of one more than the
    leaves per root, and each column into arithmetic stretches
    (:func:`_stretches`): G(2, g)'s roots and its two leaf positions take
    at most six runs.  A layout whose roots hold different numbers of
    leaves is cut the same way and only takes more runs.  A non-root whose
    parent is no root raises :class:`VerificationError`."""
    levels, n = S.levels, S.n
    if len(levels) == 1:
        runs = [(0, 1, 0, 1, n)]
    elif S.kind == "gcg":
        parent, roots = S.parent, levels[0].stage_size
        leaf_parents = parent[roots:]
        if leaf_parents and not 0 <= min(leaf_parents) <= max(leaf_parents) < roots:
            raise VerificationError("a leaf's parent is not a root")
        # a leaf sorts by its parent, then id, and root o right after its
        # leaves, so with L leaves per root each column of stride L + 1
        # holds one leaf position (or the roots) of every root
        order = sorted(range(n), key=lambda v: 2 * parent[v] if v >= roots else 2 * v + 1)
        stride = (n - roots) // roots + 1
        runs = [
            (q + i * stride, stride, v, dv, count)
            for q in range(stride)
            for i, v, dv, count in _stretches(order[q::stride])
        ]
    else:
        m, top = S.m, levels[0]
        sizes = [1]  # subtree size per level
        for li in reversed(levels[:-1]):
            sizes.insert(0, 1 + li.children_per_stage // m * sizes[0])
        level = [((o + 1) * sizes[0] - 1, n, o, top.stage_size, 1) for o in range(top.stage_size)]
        runs = list(level)
        for j, (li, child) in enumerate(zip(levels, levels[1:])):
            B, r, size, below = li.blocks_per_stage, li.children_per_stage, child.stage_size, sizes[j + 1]
            nxt = []
            for p, dp, v, dv, count in level:
                t, o = divmod(v - li.first_vertex, li.stage_size)
                b, d = divmod(o, m)
                lo_n = m ** (B - 1 - b)
                # (count, id step, rank step) of the run's own axis and of
                # its children's lo and hi axes; the longest carries the runs
                own = (count, dv // li.stage_size * r * size, dp)
                lo, hi = (lo_n, size, below), (m**b, m * lo_n * size, lo_n * below)
                (n1, dv1, dp1), (n2, dv2, dp2), (n3, dv3, dp3) = sorted((own, lo, hi), key=lambda x: x[0])
                u, s = child.first_vertex + (t * r + d * lo_n) * size + b, p - sizes[j] + below
                for a in range(n1):
                    nxt += [(s + a * dp1 + c * dp2, dp3, u + a * dv1 + c * dv2, dv3, n3) for c in range(n2)]
            runs += nxt
            level = nxt
    if sum(run[4] for run in runs) != n:
        raise VerificationError("placement list does not cover all points")
    return runs


# A stage run's vertex runs go out in tiles of as many stages as span at
# most this many y-ranks, and the y-runs are written in order of their
# first y-rank.  So the tiles of every run over one stretch of y-ranks (on
# H(3,2), the bands of 728 level-1 stages and of their children) fill that
# stretch together and read one stretch of ids, which stays in cache while
# its tiles go over it, where one run over a whole stage run misses on
# nearly every entry.  Tiles of 2**15 to 2**17 ranks write H(3,2)'s
# y-order alike; far smaller ones pay for the longer run list.
_Y_TILE = 1 << 16


def _y_order(S: StagedHypergraph):
    """The reverse pre-order of the stage tree, child subtrees last to
    first and then the stage's own band, as runs (p, dp, v, dv, count) in
    the x-order's format: vertex v + i·dv has y-rank p + i·dp.

    It is planned level by level, as stage runs (s, ds, y, dy, count):
    stage s + i·ds of the level has its subtree from y-rank y + i·dy, and
    a subtree's size depends only on its level.  Each entry of a stage's
    band (its blocks from last to first, each in the copy's own y-order)
    is one vertex run per tile of the stage run (as many stages as span
    at most ``_Y_TILE`` y-ranks), above the child subtrees; a stage run
    of one stage takes each arithmetic stretch of its band as one run.
    Child t of stage s is stage s·r + t, so a stage run's children span
    the run's own axis and the sibling axis (last child lowest), and the
    longer one carries the next level's stage runs.  The runs come sorted
    by first y-rank, so the tiles that share a stretch of y-ranks are
    written together."""
    levels, m = S.levels, S.m
    within = _orders(S.copy_template)[1] if S.copy_template is not None else range(m)
    sizes = [0]  # subtree size per level, and 0 below the last
    for li in reversed(levels):
        sizes.insert(0, li.stage_size + li.children_per_stage * sizes[0])
    runs, stages = [], [(0, 1, 0, sizes[0], 1)]  # level 0 is one stage
    for j, li in enumerate(levels):
        r, size = li.children_per_stage, li.stage_size
        blocks = range(li.blocks_per_stage - 1, -1, -1)
        band = [b * m + p for b in blocks for p in within] if blocks else range(size)
        below, nxt, stretches = r * sizes[j + 1], [], _stretches(band)
        for s, ds, y, dy, count in stages:
            v = li.first_vertex + s * size
            if count == 1:
                runs += [(y + below + e, 1, v + p, dp, k) for e, p, dp, k in stretches]
            else:
                tile = max(1, _Y_TILE // dy)
                for a in range(0, count, tile):
                    y_a, v_a, t = y + a * dy + below, v + a * ds * size, min(tile, count - a)
                    runs += [(y_a + e, dy, v_a + p, ds * size, t) for e, p in enumerate(band)]
            own, sib = (count, ds * r, dy), (r, -1, sizes[j + 1])
            (n1, ds1, dy1), (n2, ds2, dy2) = (own, sib) if r > count else (sib, own)
            nxt += [(s * r + r - 1 + a * ds1, ds2, y + a * dy1, dy2, n2) for a in range(n1)]
        stages = nxt
    runs.sort()
    return runs


def _stretches(seq):
    """``seq`` cut greedily into maximal arithmetic stretches, as
    (index, first item, step, length): item index + i is first + i·step."""
    out, i, n = [], 0, len(seq)
    while i < n:
        step = seq[i + 1] - seq[i] if i + 1 < n else 1
        j = i + 1
        while j < n and seq[j] - seq[j - 1] == step:
            j += 1
        out.append((i, seq[i], step, j - i))
        i = j
    return out


def _run_slice(start: int, step: int, count: int) -> slice:
    """The indices start + i·step for i < count, as a slice; a descending
    run that ends at index 0 stops at None, since a stop of −1 would
    count from the end."""
    stop = start + count * step
    return slice(start, stop if stop >= 0 else None, step)


def _orders(S: StagedHypergraph):
    """(yx, y_ids, (x_rank, y_rank)): the y-ranks in x-order, the vertices
    bottom to top, and the two orders' inverses.  Both orders are planned
    as runs, the x-order's first so that its temporaries are freed before
    the arrays exist, and one loop writes them: each y-run a slice of
    ``y_ids`` and of ``y_rank``, then each x-run a slice of ``yx`` and of
    ``x_rank``."""
    ident = _identity(S.n)
    x_runs = _x_order(S)
    y_runs = _y_order(S)
    y_ids, y_rank, yx, x_rank = (array(TYPECODE, [0]) * S.n for _ in range(4))
    for runs, ordered, rank, source in ((y_runs, y_ids, y_rank, ident), (x_runs, yx, x_rank, y_rank)):
        for p, dp, v, dv, count in runs:
            ps, vs = _run_slice(p, dp, count), _run_slice(v, dv, count)
            ordered[ps] = source[vs]
            rank[vs] = ident[ps]
    return yx, y_ids, (x_rank, y_rank)


def _realize(S: StagedHypergraph, nested: bool) -> Realization:
    if S.kind == "hkc":
        # the x-order is planned from the level records, so the parents
        # the edges come from must be the digit rule's
        for where, parents in _parent_rule(S.levels, S.m):
            if S.parent[where] != parents:
                raise VerificationError(
                    "parents differ from the digit rule", first=where.start, step=where.step
                )
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
    # the y-windows nest as the projections do: a path's reaches the top
    if not is_nested(zip(*R.rects.windows()[2:])):
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


def y_projections(R: Realization) -> List[tuple]:
    """Half-open y-projections (lo, hi) of the rectangles, read from the
    bound columns of :meth:`Realization.columns`.  The conversion from
    closed boxes is safe only when no point sits on a projection endpoint;
    that is checked here."""
    *_, y_lo, y_hi = R.columns()
    if not set(R.points.ys).isdisjoint(y_hi):
        raise VerificationError(
            "a point lies on a rectangle's upper y-boundary; half-open "
            "projection would change membership"
        )
    return list(zip(y_lo, y_hi))


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
    nonempty = [(Interval(lo, hi), i) for i, (lo, hi) in enumerate(family) if lo < hi]
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
    # containment forest: sort by (lo asc, hi desc); a stack gives parents,
    # and a top that overlaps iv without containing it breaks the nesting
    uniq: Dict[Interval, _Node] = {}
    order = sorted(set(iv for iv, _ in nonempty), key=lambda iv: (iv.lo, -iv.hi))
    stack = [root]
    for iv in order:
        while not (stack[-1].lo <= iv.lo and iv.hi <= stack[-1].hi):
            if iv.lo < stack[-1].hi:
                raise DomainError("interval family is not nested")
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
    interval_of: Dict[str, Interval] = {}
    input_labels: List[Optional[str]] = [None] * len(family)
    _finish(root, "", depth, interval_of, input_labels)
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


def _finish(node: _Node, label: str, depth: int, interval_of, input_labels) -> None:
    """In pre-order: pad a leaf with a left chain while ``depth`` levels
    remain below it, label the node, and record its interval and the
    inputs that landed on it."""
    if depth > 0 and not node.children:
        node.children = [_Node(node.lo, node.hi), _Node(node.hi, node.hi)]
    node.label = label
    interval_of[label] = Interval(node.lo, node.hi)
    for i in node.inputs:
        input_labels[i] = label
    for bit, c in zip("01", node.children):
        _finish(c, label + bit, depth - 1, interval_of, input_labels)


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


def _check_general_position(points: Sequence[Point2]) -> _RankPoints:
    """The rank view of ``points``, whose x and y must be pairwise distinct."""
    P = _RankPoints.of(points)
    if len(set(P.xs)) != len(P) or len(set(P.ys)) != len(P):
        raise DomainError("points must have pairwise distinct x and y coordinates")
    return P


def dominance_hasse(points: Sequence[Point2]) -> OrderedHypergraph:
    """Cover pairs of the dominance order p < q (x and y both smaller):
    the pairs with no third point strictly inside their spanning box.

    One O(n²) sweep over the view's ``yx``, the y-ranks in x-order: q
    covers p exactly when q comes after p in x-order and p.y < q.y < the
    lowest y above p.y among the points between them.  Each pair is
    (smaller index, larger index), and the pairs are sorted."""
    points = _check_general_position(points)
    n, ys, y_ids = len(points), points.yx.tolist(), points.y_ids  # an array boxes each read
    edges = []
    for i, yp in enumerate(ys):
        bound = n  # lowest y-rank above yp seen so far
        for j in range(i + 1, n):
            if yp < ys[j] < bound:
                bound = ys[j]
                a, b = y_ids[yp], y_ids[bound]
                edges.append((a, b) if a < b else (b, a))
    edges.sort()
    return OrderedHypergraph(n, edges)


def monochromatic_increasing_path(
    points: Sequence[Point2], col: Coloring, k: int
) -> Optional[List[int]]:
    """A chain of k same-colored points, consecutive in the dominance
    Hasse diagram, or None.  k counts vertices.  Found by longest-path
    dynamic programming per color class, scanning the view in x-order."""
    points = _check_general_position(points)
    if k < 1:
        raise DomainError("chain length must be positive", k=k)
    if len(col.colors) != len(points):
        raise DomainError("coloring length does not match point count")
    hasse = dominance_hasse(points)
    n, x_rank = len(points), points.x_rank
    preds = [[] for _ in range(n)]
    for a, b in hasse.edges:
        lo, hi = (a, b) if x_rank[a] < x_rank[b] else (b, a)
        if col.colors[lo] == col.colors[hi]:
            preds[hi].append(lo)
    best = [1] * n
    back = [-1] * n
    for v in map(points.y_ids.__getitem__, points.yx):
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


SVG_WIDTH = 900.0
_SVG_MARGIN = 40.0
_POINT_RADIUS = 3.0
_STROKE_WIDTH = 1.2
_POINT_COLOR = "#c4442a"
_RECT_COLOR = "#2a6fc4"


def emit_svg(R: Realization, width: float = SVG_WIDTH) -> bytes:
    """Deterministic SVG: circles for points, hollow strokes for
    rectangles, viewport fitted to the drawing's bounds."""
    if not (isfinite(width) and width > 2 * _SVG_MARGIN):
        raise DomainError(
            "SVG width must be finite and above twice the margin",
            width=str(width),
            margin=str(_SVG_MARGIN),
        )
    if not R.points:
        raise DomainError("cannot draw an empty realization")
    px, py, x_lo, x_hi, y_lo, y_hi = R.columns()
    try:
        x0, x1 = float(min(chain(px, x_lo, x_hi))), float(max(chain(px, x_lo, x_hi)))
        y0, y1 = float(min(chain(py, y_lo, y_hi))), float(max(chain(py, y_lo, y_hi)))
    except OverflowError:
        raise DomainError("cannot draw a coordinate that does not fit in a float")
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    inner = width - 2 * _SVG_MARGIN
    scale = inner / span_x
    height = span_y * scale + 2 * _SVG_MARGIN
    if not all(map(isfinite, (span_x, span_y, scale, height))):
        raise DomainError("cannot draw a drawing whose extent or scale does not fit in a float")

    rect = (
        f'<rect x="%.6f" y="%.6f" width="%.6f" height="%.6f" fill="none" '
        f'stroke="{_RECT_COLOR}" stroke-width="{_STROKE_WIDTH:.6f}"/>'
    )
    circle = f'<circle cx="%.6f" cy="%.6f" r="{_POINT_RADIUS:.6f}" fill="{_POINT_COLOR}"/>'
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.6f}" height="{height:.6f}" '
        f'viewBox="0 0 {width:.6f} {height:.6f}">'
    ]
    for a, b, c, d in zip(*(map(float, col) for col in (x_lo, x_hi, y_lo, y_hi))):
        out.append(
            rect % (_SVG_MARGIN + (a - x0) * scale, _SVG_MARGIN + (y1 - d) * scale, (b - a) * scale, (d - c) * scale)
        )
    for x, y in zip(map(float, px), map(float, py)):
        out.append(circle % (_SVG_MARGIN + (x - x0) * scale, _SVG_MARGIN + (y1 - y) * scale))
    out.append("</svg>")
    return "\n".join(out).encode("utf-8")
