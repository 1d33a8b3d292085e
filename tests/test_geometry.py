"""Tests for the exact-rational drawings and interval machinery."""

import hashlib
import itertools
import json
import random
from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction as F
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from chromarect import geometry
from chromarect.construction import (
    TYPECODE,
    StagedHypergraph,
    _StagedEdges,
    _gcg,
    _hkc,
    _hkc_levels,
    build_Gcg,
    build_Hkc,
)
from chromarect.errors import DomainError, VerificationError
from chromarect.geometry import (
    BoxIndex,
    Interval,
    PerfectNestedFamily,
    Point2,
    Realization,
    Rect,
    dominance_hasse,
    emit_svg,
    extend_to_perfect_nested,
    incidence_hypergraph,
    is_ascending,
    is_nested,
    make_rect,
    monochromatic_increasing_path,
    realize_Gcg,
    realize_Hkc,
    realize_Hkc_nested,
    relabel_to_x_order,
    verify_realization,
    y_projections,
)
from chromarect.hypergraph import Coloring, OrderedHypergraph, edge_multiset_equal


@lru_cache(maxsize=None)
def _h22():
    return build_Hkc(2, 2)


@lru_cache(maxsize=None)
def _r22():
    return realize_Hkc(_h22())


@lru_cache(maxsize=None)
def _r22_nested():
    return realize_Hkc_nested(_h22())


@lru_cache(maxsize=None)
def _r25():
    return realize_Gcg(build_Gcg(2, 5))


def _loaded(R):
    """R written by its JSON writer and read back."""
    return Realization.from_json_dict(json.loads(R.to_json_bytes()))


def brute_members(points, rect):
    return tuple(i for i, p in enumerate(points) if rect.contains(p))


def x_order_members(points, rect):
    """The containment scan's ids in x-order, ties by id."""
    return sorted(brute_members(points, rect), key=lambda v: points[v].x)


def assert_realizes(R, H):
    """Independent incidence oracle: plain containment scan per rectangle."""
    assert len(R.rects) == len(H.edges)
    assert sorted(R.edge_of_rect) == list(range(len(H.edges)))
    for r in range(len(R.rects)):
        got = brute_members(R.points, R.rects[r])
        assert got == H.edges[R.edge_of_rect[r]]


# frozen orders (left to right, bottom to top), the ones the placement
# rules gave when coordinates were exact rationals on stage lines
H22_X_ORDER = [4, 6, 0, 8, 10, 1, 5, 9, 2, 7, 11, 3]
H22_Y_ORDER = [10, 11, 8, 9, 6, 7, 4, 5, 2, 3, 0, 1]
G25_X_ORDER = [5, 13, 0, 6, 7, 1, 8, 9, 2, 10, 11, 3, 12, 14, 4]
G25_Y_ORDER = [13, 14, 11, 12, 9, 10, 7, 8, 5, 6, 0, 1, 2, 3, 4]

# frozen coordinates for the 12-point instance: vertex v sits at
# (4 * x-rank, 4 * y-rank) in the orders above
H22_X = {
    0: 8, 1: 20, 2: 32, 3: 44, 4: 0, 5: 24,
    6: 4, 7: 36, 8: 12, 9: 28, 10: 16, 11: 40,
}
H22_Y = {
    0: 40, 1: 44, 2: 32, 3: 36, 4: 24, 5: 28,
    6: 16, 7: 20, 8: 8, 9: 12, 10: 0, 11: 4,
}


def _orders(R):
    n = len(R.points)
    return (
        sorted(range(n), key=lambda v: R.points[v].x),
        sorted(range(n), key=lambda v: R.points[v].y),
    )


def _all_coordinates(R):
    return [c for p in R.points for c in p] + [c for r in R.rects for c in r]


class TestRealizeH22:
    def test_frozen_x(self):
        R = _r22()
        assert {v: p.x for v, p in enumerate(R.points)} == H22_X

    def test_frozen_y(self):
        R = _r22()
        assert {v: p.y for v, p in enumerate(R.points)} == H22_Y

    def test_x_order(self):
        R = _r22()
        order = sorted(range(12), key=lambda v: R.points[v].x)
        assert order == H22_X_ORDER

    def test_y_order(self):
        assert _orders(_r22()) == (H22_X_ORDER, H22_Y_ORDER)
        assert _orders(_r22_nested()) == (H22_X_ORDER, H22_Y_ORDER)

    def test_all_y_distinct(self):
        R = _r22()
        ys = [p.y for p in R.points]
        assert len(set(ys)) == len(ys)

    def test_incidence_oracle(self):
        assert_realizes(_r22(), _h22().base)

    def test_first_path_rect_frozen(self):
        # path {4, 0}: x-ranks 0 and 2, y-ranks 6 and 10, each side one
        # unit outside the extreme member
        assert _r22().rects[0] == Rect(-1, 9, 23, 41)

    def test_edges_are_ascending_pairs(self):
        R = _r22()
        for e in _h22().base.edges:
            assert len(e) == 2
            assert is_ascending([R.points[v] for v in e])

    def test_rejects_girth_instance(self):
        with pytest.raises(DomainError):
            realize_Hkc(build_Gcg(2, 5))

    def test_verify_sampled_agrees(self):
        # the rank-window fast path, exercised with a small sample
        verify_realization(_r22(), sample_count=5, seed=3)

    def test_verify_catches_corruption(self):
        R = _r22()
        rects = list(R.rects)
        r = rects[0]
        rects[0] = Rect(r.x_lo, r.x_hi, r.y_lo, r.y_hi - 2)  # chops off vertex 0
        bad = Realization(R.points, rects, list(R.edge_of_rect), R.hypergraph)
        with pytest.raises(VerificationError):
            verify_realization(bad)


class TestIncidenceLabels:
    def test_incidence_equals_relabeled_original(self):
        R = _r22()
        H = _h22().base
        observed = incidence_hypergraph(R.points, list(R.rects))
        assert edge_multiset_equal(observed, relabel_to_x_order(H, R.points))

    def test_creation_labels_differ_from_x_order(self):
        # the drawing reads vertex names off the x-axis, which permutes them
        R = _r22()
        H = _h22().base
        observed = incidence_hypergraph(R.points, list(R.rects))
        assert not edge_multiset_equal(observed, H)
        assert (0, 2) in observed.edges and (0, 2) not in H.edges

    def test_empty_rectangle_flagged_but_kept(self):
        pts = [Point2(F(0), F(0)), Point2(F(1), F(1))]
        rects = [make_rect(F(5), F(6), F(5), F(6))]
        with pytest.warns(UserWarning, match="no points"):
            H = incidence_hypergraph(pts, rects)
        assert H.edges == [()]

    def test_duplicate_points_rejected(self):
        pts = [Point2(F(0), F(0)), Point2(F(0), F(0))]
        with pytest.raises(DomainError):
            incidence_hypergraph(pts, [])

    def test_relabel_requires_matching_size(self):
        with pytest.raises(DomainError):
            relabel_to_x_order(_h22().base, [Point2(F(0), F(0))])


class TestNestedVariant:
    def test_points_unchanged(self):
        assert _r22_nested().points == _r22().points

    def test_incidence_oracle(self):
        assert_realizes(_r22_nested(), _h22().base)

    def test_path_rects_share_top_at_root_line(self):
        # the shared top lies one unit above the highest point (y = 44)
        R = _r22_nested()
        for r in range(8):  # path rectangles come first
            assert R.rects[r].y_hi == 45

    def test_frozen_path_bottoms(self):
        # two units below the lowest point of the leaf's stage
        R = _r22_nested()
        bottoms = [R.rects[e].y_lo for e in range(8)]
        assert bottoms == [22, 22, 14, 14, 6, 6, -2, -2]

    def test_projections_nested(self):
        assert is_nested(y_projections(_r22_nested()))

    def test_transversal_inside_or_disjoint_from_paths(self):
        R = _r22_nested()
        paths = [Interval(R.rects[e].y_lo, R.rects[e].y_hi) for e in range(8)]
        for t in range(8, 14):
            tv = Interval(R.rects[t].y_lo, R.rects[t].y_hi)
            for pv in paths:
                inside = pv.lo <= tv.lo and tv.hi <= pv.hi
                disjoint = tv.hi <= pv.lo or pv.hi <= tv.lo
                assert inside or disjoint

    def test_distinct_copies_disjoint(self):
        R = _r22_nested()
        for a, b in itertools.combinations(range(8, 14), 2):
            ra, rb = R.rects[a], R.rects[b]
            assert ra.y_hi < rb.y_lo or rb.y_hi < ra.y_lo

    def test_plain_projections_not_nested(self):
        # sanity: the plain drawing genuinely needs the variant
        R = _r22()
        assert not is_nested([(r.y_lo, r.y_hi) for r in R.rects])


def _window_pairs(R, indices):
    """(bulk windows and bounds, the windows ``window`` reads and the
    bounds of the rectangle views) at ``indices``."""
    windows, bounds = R.rects.windows(), R.rects.bounds()
    got = [(tuple(w[r] for w in windows), tuple(b[r] for b in bounds)) for r in indices]
    return got, [(R.rects.window(r), tuple(R.rects[r])) for r in indices]


def _leaf_stages(S):
    """The nested variant's ``leaf_stages`` of S."""
    last = S.levels[-1]
    return S.n_path_edges, last.first_vertex, last.stage_size


class TestBulkYWindows:
    """``_RankRects.windows`` and ``bounds``, the y-sides and the x-sides,
    against the windows ``window`` reads one edge at a time and the
    rectangles ``_item`` builds."""

    @pytest.mark.parametrize(
        "R",
        [_r22, _r22_nested, _r25, lambda: realize_Hkc_nested(build_Hkc(1, 3))],
        ids=["plain", "nested", "G(2,5)", "nested H(1,3)"],
    )
    def test_equal_rect_views_on_small_drawings(self, R):
        R = R()
        got, want = _window_pairs(R, range(len(R.rects)))
        assert got == want

    def test_equal_rect_views_on_every_edge_of_every_rank_instance(self):
        # every edge, plain and (for H(k, c)) nested, of every order
        # instance, H(3, 2) and the (4, 2) and (5, 1) layouts
        for S in _rank_instances():
            yx, y_ids, ranks = geometry._orders(S)
            points = geometry._RankPoints(yx, y_ids, *ranks)
            for stages in [None] + ([_leaf_stages(S)] if S.kind == "hkc" else []):
                rects = geometry._RankRects(S.base.edges, points, stages)
                pairs = zip(zip(*rects.windows()), map(rects.window, range(len(rects))))
                assert next((e for e, (got, want) in enumerate(pairs) if got != want), None) is None
                assert len(rects.windows()[0]) == len(rects)

    def test_loaded_edge_list_matches_computed_edges(self):
        # a parsed staged instance computes its edges, as a built one does
        S = _h22()
        loaded = StagedHypergraph.from_json_dict(S.to_json_dict())
        assert type(loaded.base.edges) is _StagedEdges
        nested = realize_Hkc_nested(loaded).rects
        assert nested.windows() == _r22_nested().rects.windows()
        assert nested.bounds() == _r22_nested().rects.bounds()

    def test_equal_rect_views_on_seeded_h32_sample(self):
        S = build_Hkc(3, 2)
        yx, y_ids, ranks = geometry._orders(S)
        points = geometry._RankPoints(yx, y_ids, *ranks)
        for stages in (_leaf_stages(S), None):
            R = Realization(points, geometry._RankRects(S.base.edges, points, stages), None)
            sample = random.Random(7).sample(range(len(R.rects)), 2000)
            sample += [0, S.n_path_edges - 1, S.n_path_edges, len(R.rects) - 1]
            got, want = _window_pairs(R, sample)
            assert got == want


class TestRealizeGirth:
    def test_g25_incidence(self):
        G = build_Gcg(2, 5)
        R = realize_Gcg(G)
        assert len(R.points) == 15
        assert_realizes(R, G.base)

    def test_g25_orders(self):
        assert _orders(realize_Gcg(build_Gcg(2, 5))) == (G25_X_ORDER, G25_Y_ORDER)

    def test_all_coordinates_distinct(self):
        R = realize_Gcg(build_Gcg(2, 5))
        assert len({p.x for p in R.points}) == 15
        assert len({p.y for p in R.points}) == 15

    def test_single_edge_base_case(self):
        R = realize_Gcg(build_Gcg(1, 7))
        assert_realizes(R, build_Gcg(1, 7).base)

    def test_rejects_tree_instance(self):
        with pytest.raises(DomainError):
            realize_Gcg(_h22())


class TestSmallInstances:
    @pytest.mark.parametrize("k,c", [(1, 1), (1, 2), (2, 1), (3, 1), (4, 1)])
    def test_incidence(self, k, c):
        S = build_Hkc(k, c)
        assert_realizes(realize_Hkc(S), S.base)

    def test_nested_small(self):
        for k, c in [(2, 1), (3, 1), (1, 2)]:
            S = build_Hkc(k, c)
            R = realize_Hkc_nested(S)
            assert_realizes(R, S.base)
            assert is_nested(y_projections(R))

    def test_builders_emit_integers(self):
        drawings = [_r22(), _r22_nested(), realize_Gcg(build_Gcg(2, 5))]
        drawings += [realize_Hkc(build_Hkc(k, c)) for k, c in [(1, 2), (3, 1)]]
        drawings += [realize_Hkc_nested(build_Hkc(3, 1))]
        for R in drawings:
            assert all(type(v) is int for v in _all_coordinates(R))


_Stage = namedtuple("_Stage", "id start size block_size blocks first_child n_children")


def _stage_list(S):
    """Every stage, level by level, with its children's first stage id;
    a stage is its level's record plus a position within the level."""
    stages = []
    next_level = 0  # id of the next level's first stage
    for li in S.levels:
        next_level += li.n_stages
        for pos in range(li.n_stages):
            stages.append(
                _Stage(
                    len(stages),
                    li.first_vertex + pos * li.stage_size,
                    li.stage_size,
                    S.m,
                    li.blocks_per_stage,
                    next_level + pos * li.children_per_stage,
                    li.children_per_stage,
                )
            )
    return stages


def _placement_orders(S):
    """Frozen reference for the realizer's two orders: the left-to-right
    placement list, where each stage's child vertices are inserted just
    left of their parent, and the stage lines from the top down, where a
    stage's children get new lines between its line and the next one
    below.  (x_ids, y_ids) as plain lists."""
    n = S.n
    stages = _stage_list(S)
    pred = array("l", [-2]) * n  # -2 = unplaced, -1 = leftmost
    succ = array("l", [-2]) * n
    line_next = array("l", [-1]) * len(stages)
    s0 = stages[0]
    head = s0.start
    for i in range(s0.size):
        v = s0.start + i
        pred[v] = v - 1 if i else -1
        succ[v] = v + 1 if i + 1 < s0.size else -1
    for stage in stages:
        r = stage.n_children
        if r == 0:
            continue
        first = stage.first_child
        for t in range(r - 1):
            line_next[first + t] = first + t + 1
        line_next[first + r - 1] = line_next[stage.id]
        line_next[stage.id] = first
        by_parent = {}
        lo = stages[first].start
        for ch in range(lo, lo + r * stages[first].size):
            by_parent.setdefault(S.parent[ch], []).append(ch)
        for v in range(stage.start, stage.start + stage.size):
            prev = pred[v]
            for ch in by_parent.get(v, ()):
                pred[ch] = prev
                if prev >= 0:
                    succ[prev] = ch
                else:
                    head = ch
                prev = ch
            succ[prev] = v
            pred[v] = prev
    x_ids = []
    v = head
    while v >= 0:
        x_ids.append(v)
        v = succ[v]

    copy = _placement_orders(S.copy_template)[1] if S.copy_template is not None else None
    top_down = [0]
    while line_next[top_down[-1]] >= 0:
        top_down.append(line_next[top_down[-1]])
    y_ids = []
    for sid in reversed(top_down):
        stage = stages[sid]
        if stage.blocks:
            nblocks, bsize = stage.blocks, stage.block_size
            within = copy if copy is not None else range(bsize)
        else:
            nblocks, bsize, within = 1, stage.size, range(stage.size)
        for b in range(nblocks - 1, -1, -1):
            y_ids.extend(stage.start + b * bsize + p for p in within)
    return x_ids, y_ids


def _digest(ids):
    return hashlib.sha256(",".join(map(str, ids)).encode()).hexdigest()


ORDER_INSTANCES = (
    [("hkc", k, c) for k, c in [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (4, 1), (2, 2)]]
    + [("gcg", 1, 7)]
    + [("gcg", 2, g) for g in (4, 5, 7, 9, 51)]
    + [("random", 2, seed) for seed in range(3)]
)


def _uneven_gcg(seed):
    """G(2, 4) around a seeded random auxiliary graph with uneven child
    counts: seed + 2 cycles of length 5 or 7, each after the first sharing
    one random vertex with those before."""
    rng = random.Random(seed)
    n, edges = 1, []
    for _ in range(seed + 2):
        cycle = [rng.randrange(n)] + list(range(n, n + rng.choice((4, 6))))
        n += len(cycle) - 1
        edges += zip(cycle, cycle[1:] + cycle[:1])
    return _gcg(2, build_Gcg(1, 4), OrderedHypergraph(n, edges))


def _order_instance(kind, a, b):
    if kind == "hkc":
        return build_Hkc(a, b)
    if kind == "gcg":
        return build_Gcg(a, b)
    return _uneven_gcg(b)


class TestOrders:
    @pytest.mark.parametrize("kind,a,b", ORDER_INSTANCES)
    def test_equal_placement_reference(self, kind, a, b):
        S = _order_instance(kind, a, b)
        yx, y_ids, _ = geometry._orders(S)
        x_ids = [y_ids[j] for j in yx]
        assert (list(x_ids), list(y_ids)) == _placement_orders(S)

    def test_random_providers_vary_child_counts(self):
        # uneven families: the level-wise x-order groups children by parent
        for seed in range(3):
            S = _order_instance("random", 2, seed)
            counts = {S.parent.count(v) for v in range(S.levels[1].first_vertex)}
            assert len(counts) > 1

    def test_h32_digests(self):
        # the only three-level instance: its level-2 y-runs follow the
        # parent runs' own axis.  Digests of the placement-list orders.
        yx, y_ids, _ = geometry._orders(build_Hkc(3, 2))
        x_ids = [y_ids[j] for j in yx]
        assert _digest(x_ids) == "460f917e8cdcdba3621ed6b71be1ac77fd28b2753c56aff46e78e5cb36e7a7a9"
        assert _digest(y_ids) == "b2fedc9a73f7aabe0b8669d8b9032b1d8f7cf352039298579f8d90c7e1543335"

    @pytest.mark.parametrize("k,m", [(4, 2), (5, 1)])
    def test_deeper_layouts(self, k, m):
        # every buildable instance has at most three levels (H(4, 2)'s
        # level-0 stage has 4**64 child stages).  H(k, 2)'s layout around an
        # m-vertex template has k levels: the y-order plans stage runs on
        # each, and the x-order repeats stage 0 on several levels.
        S = _hkc(k, 2, build_Hkc(m, 1), _hkc_levels(k, m, 10**6))
        assert len(S.levels) == k
        yx, y_ids, (_, y_rank) = geometry._orders(S)
        x_ids = [y_ids[j] for j in yx]
        assert (list(x_ids), list(y_ids)) == _placement_orders(S)
        assert y_rank == geometry._inverse(y_ids)

    def test_bands_take_the_copy_y_order(self):
        # every buildable template has the identity y-order, so the bands
        # are checked around two that do not: one level of stages around
        # H(2, 2), and G(2, 5) copies under a seeded 15-uniform auxiliary
        T, rng = build_Gcg(2, 5), random.Random(0)
        aux = OrderedHypergraph(20, [rng.sample(range(20), T.n) for _ in range(3)])
        for S in (_hkc(1, 3, build_Hkc(2, 2), _hkc_levels(1, 12, 10**6)), _gcg(3, T, aux)):
            within = geometry._orders(S.copy_template)[1]
            assert list(within) != sorted(within)
            yx, y_ids, _ = geometry._orders(S)
            assert ([y_ids[j] for j in yx], list(y_ids)) == _placement_orders(S)

    def test_y_rank_is_inverse(self):
        # the y-order writes its inverse by the slices that write the ids;
        # H(3, 2) is the buildable instance whose stage runs hold more than
        # one stage on both axes
        for S in [_order_instance(*case) for case in ORDER_INSTANCES] + [build_Hkc(3, 2)]:
            _, y_ids, (_, y_rank) = geometry._orders(S)
            assert y_rank == geometry._inverse(y_ids)

    def test_x_rank_is_inverse(self):
        # each x-order run writes its x-ranks by the slice pair that writes
        # its y-ranks into yx; H(3, 2)'s children span two digit axes, and
        # the deeper layouts carry runs through more than one level of children
        for S in _rank_instances():
            yx, y_ids, (x_rank, _) = geometry._orders(S)
            assert x_rank == geometry._inverse([y_ids[j] for j in yx])

    def test_yx_is_y_rank_in_x_order(self):
        # the drawing as one permutation: position x_rank[v] of yx holds v's
        # y-rank, for every vertex v
        for S in _rank_instances():
            yx, _, (x_rank, y_rank) = geometry._orders(S)
            assert sorted(x_rank) == list(range(S.n))
            assert array("l", map(yx.__getitem__, x_rank)) == y_rank

    def test_y_runs_cover_every_vertex_and_rank(self):
        # for both planners, the run counts sum to n, and each run's
        # vertices, and separately its ranks, stepped one by one mark all n
        # entries: no run overlaps another or leaves [0, n)
        for S in _rank_instances():
            for runs in (geometry._x_order(S), geometry._y_order(S)):
                assert sum(run[4] for run in runs) == S.n
                for side in (0, 2):
                    marked = bytearray(S.n)
                    for run in runs:
                        steps = range(run[side], run[side] + run[4] * run[side + 1], run[side + 1])
                        assert 0 <= min(steps[0], steps[-1]) and max(steps[0], steps[-1]) < S.n
                        for i in steps:
                            marked[i] = 1
                    assert marked == b"\x01" * S.n

    def test_h32_y_runs(self):
        # one run per band entry of a stage run, not one per vertex, and
        # one per block of level 0's single stage: 9 + 9 + 27 · 3 on levels
        # 0, 1 and 2
        assert len(geometry._y_order(build_Hkc(3, 2))) <= 99

    def test_gcg_y_runs(self):
        # G(2, g)'s flat band of g roots is one run, and each of the two
        # leaf positions of the g leaf stages one more
        assert len(geometry._y_order(build_Gcg(2, 201))) == 3

    def test_h32_x_runs(self):
        # one run per root, then per parent run the product of the two
        # shorter of its three axes: 27 + 483 + 483 · 9 on levels 0, 1 and 2
        assert len(geometry._x_order(build_Hkc(3, 2))) <= 4857

    def test_descending_run_ends_at_index_0(self):
        # a stop of -1 would count from the end: the slice would hold one
        # index and the assignment would raise
        a = array(TYPECODE, [0]) * 7
        a[geometry._run_slice(6, -3, 3)] = array(TYPECODE, [1, 2, 3])
        assert list(a) == [3, 0, 0, 2, 0, 0, 1]

    def test_child_outside_stage_0_rejected(self):
        # G(2, g)'s x-order groups the leaves by parent, so a leaf whose
        # parent is not a root, another leaf or none (-1), raises there
        S = build_Gcg(2, 5)
        leaf = S.levels[1]
        for p in (leaf.first_vertex + 1, -1):
            parent = array("l", S.parent)
            parent[leaf.first_vertex] = p
            with pytest.raises(VerificationError):
                geometry._orders(_with_parents(S, parent))

    def test_stages_not_repeating_stage_0_rejected(self):
        # the x-order is planned from the level records, so the realizer
        # checks H(k, c)'s parents against the digit rule.  Two of one
        # stage's children swap parents, in stage 1, a middle stage, the
        # last, or every stage (a periodic array, which only the digit
        # rule tells apart); or a child of stage 0 takes a parent in
        # stage 1.
        S = build_Hkc(3, 2)
        prev, leaf = S.levels[1], S.levels[2]
        span = prev.children_per_stage * leaf.stage_size
        for stages in ([1], [prev.n_stages // 2], [prev.n_stages - 1], range(prev.n_stages)):
            parent = array("l", S.parent)
            for t in stages:
                a, b = leaf.first_vertex + t * span, leaf.first_vertex + t * span + 1
                assert parent[a] != parent[b]
                parent[a], parent[b] = parent[b], parent[a]
            with pytest.raises(VerificationError):
                realize_Hkc(_with_parents(S, parent))
        parent = array("l", S.parent)
        parent[leaf.first_vertex] = prev.first_vertex + prev.stage_size
        with pytest.raises(VerificationError):
            realize_Hkc(_with_parents(S, parent))


def _rank_instances():
    """Every order instance, H(3, 2), and the (4, 2) and (5, 1) deeper
    layouts."""
    deeper = [_hkc(k, 2, build_Hkc(m, 1), _hkc_levels(k, m, 10**6)) for k, m in [(4, 2), (5, 1)]]
    return [_order_instance(*case) for case in ORDER_INSTANCES] + [build_Hkc(3, 2)] + deeper


def _with_parents(S, parent):
    """S with its parent array replaced, everything else kept."""
    return StagedHypergraph(
        S.kind, S.base, S.k, S.c, S.m, parent, S.levels, S.n_path_edges, S.copy_template
    )


def _branch(index, window):
    """How ``members`` answers a rank window, by the index's branch rule:
    "y" (the y-window scan), "blocks" (the x-query with at least one
    whole block) or "x" (the x-query over partial blocks only)."""
    x0, x1, y0, y1 = window
    B = index.block
    if y1 - y0 < x1 - x0 and y1 - y0 <= B:
        return "y"
    return "blocks" if x1 // B > -(-x0 // B) else "x"


@lru_cache(maxsize=None)
def _r2_51():
    return realize_Gcg(build_Gcg(2, 51))


class TestBoxIndex:
    def test_built_windows_equal_bisect_on_the_coordinates(self):
        # a built drawing's points sit at 0, 4, …, 4(n − 1) on each axis;
        # bounds negative, past 4n, on multiples of 4 and between them, as
        # ints and as Fractions
        P = _r25().points
        n = len(P)
        coords = range(0, 4 * n, 4)
        bounds = [-9, -4, -3, -1, 0, 1, 3, 4, 5, 8, 4 * n - 5, 4 * n - 4, 4 * n - 3, 4 * n, 4 * n + 7]
        bounds += [F(b, 3) for b in range(-13, 12 * n + 13)]
        for lo, hi in itertools.product(bounds, repeat=2):
            want = (bisect_left(coords, lo), bisect_right(coords, hi))
            got = P.window(Rect(lo, hi, lo, hi))
            for side in (got[:2], got[2:]):
                assert side == want

    def test_built_matches_containment_scan(self):
        # built H(2,2), nested H(2,2), G(2,5) and G(2,51), on their rank
        # points and on the same points loaded back from JSON
        branches = set()
        for R in (_r22(), _r22_nested(), _r25(), _r2_51()):
            loaded = _loaded(R)
            for points in (R.points, loaded.points):
                index = BoxIndex(points)
                x_scans = 0
                for rect in R.rects:
                    window = points.window(rect)
                    assert index.members(window) == x_order_members(points, rect)
                    x_scans += window[1] - window[0] <= window[3] - window[2]
                    branches.add(_branch(index, window))
                assert 0 < x_scans < len(R.rects)  # both scan directions ran
        # the y-window scan, and the x-query with and without whole blocks
        assert branches == {"y", "blocks", "x"}

    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=50, max_size=300),
        st.lists(
            st.tuples(
                st.integers(0, 17),  # block of the window's first rank
                st.integers(-2, 2),  # offset from that block's boundary
                st.integers(0, 17),  # block of the window's last rank
                st.integers(-2, 2),
                st.integers(-1, 41),  # y-extent: any height, or a few rows
                st.one_of(st.integers(0, 2), st.integers(0, 42)),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    # the explain phase alone takes minutes on a failing 300-point example
    @settings(max_examples=100, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
    def test_block_boundaries_match_containment_in_x_order(self, coords, boxes):
        # x-windows that start and end inside, on and across block
        # boundaries, on points with tied coordinates
        pts = [Point2(F(x, 2), F(y, 3)) for x, y in coords]
        index, P = BoxIndex(pts), geometry._RankPoints.of(pts)
        n, B = len(pts), index.block
        xs = sorted(p.x for p in pts)
        for b0, d0, b1, d1, y0, dy in boxes:
            r0 = min(max(b0 * B + d0, 0), n - 1)
            r1 = min(max(b1 * B + d1, 0), n - 1)
            x_lo, x_hi = sorted((xs[r0], xs[r1]))
            rect = Rect(x_lo, x_hi, F(y0, 3), F(y0 + dy, 3))
            assert index.members(P.window(rect)) == x_order_members(pts, rect)

    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
        st.lists(st.tuples(*[st.integers(-1, 7)] * 4), min_size=1, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_loaded_matches_containment_scan_with_ties(self, coords, boxes):
        pts = [Point2(F(x, 2), F(y)) for x, y in coords]
        index, P = BoxIndex(pts), geometry._RankPoints.of(pts)
        for a, b, c, d in boxes:
            rect = Rect(F(min(a, b), 2), F(max(a, b), 2), min(c, d), max(c, d))
            assert sorted(index.members(P.window(rect))) == list(brute_members(pts, rect))

    @given(
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=16),
        st.lists(
            st.one_of(
                # tall and narrow: at most two x-values wide, any height
                st.tuples(st.integers(-1, 9), st.integers(0, 1), st.integers(-1, 9), st.integers(0, 10)),
                # wide and flat: any width, at most two y-values high
                st.tuples(st.integers(-1, 9), st.integers(0, 10), st.integers(-1, 9), st.integers(0, 1)),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_both_scans_match_containment_in_x_order(self, coords, boxes):
        pts = [Point2(F(x, 2), F(y, 3)) for x, y in coords]
        index, P = BoxIndex(pts), geometry._RankPoints.of(pts)
        for x0, dx, y0, dy in boxes:
            rect = Rect(F(x0, 2), F(x0 + dx, 2), F(y0, 3), F(y0 + dy, 3))
            assert index.members(P.window(rect)) == x_order_members(pts, rect)

    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_block_array_equals_sorted_reference(self, n):
        # blocks of isqrt(n) points, each sorted by y-rank: n <= 3 has
        # one-point blocks only, and n = 17 (blocks of 4) ends in one.  The
        # x-order is the test's own: the shuffled ids of the rank points,
        # and a stable sort of the loaded points by x (ties by id)
        rng = random.Random(n)
        x_ids, y_ids = array("l", range(n)), array("l", range(n))
        rng.shuffle(x_ids)
        rng.shuffle(y_ids)
        y_rank = geometry._inverse(y_ids)
        yx = array("l", map(y_rank.__getitem__, x_ids))
        rank_points = geometry._RankPoints(yx, y_ids, geometry._inverse(x_ids), y_rank)
        loaded = [Point2(F(rng.randrange(50), 2), F(rng.randrange(50), 3)) for _ in range(n)]
        loaded_x_ids = sorted(range(n), key=lambda v: loaded[v].x)
        for points, order in ((rank_points, x_ids), (loaded, loaded_x_ids)):
            index = BoxIndex(points)
            B = index.block
            y_of = {v: y for y, v in enumerate(sorted(range(n), key=lambda v: points[v].y))}
            expected = array("l")
            for b in range(0, n, B):
                expected.extend(sorted(y_of[v] for v in order[b : b + B]))
            assert index._runs == expected
            assert len(order[(n - 1) // B * B :]) == 1  # the last block
            rect = Rect(-1, 4 * n + 25, -1, 4 * n + 25)
            window = geometry._RankPoints.of(points).window(rect)
            assert index.members(window) == x_order_members(points, rect)


class TestRankWindows:
    """A built rectangle's rank window, read from its members' ranks,
    against the window its coordinates give: the builder's verify reads
    the former, and the files carry the latter."""

    @pytest.mark.parametrize(
        "R", [_r22, _r22_nested, _r25, _r2_51], ids=["plain", "nested", "G(2,5)", "G(2,51)"]
    )
    def test_member_windows_equal_coordinate_windows(self, R):
        R = R()
        for e in range(len(R.rects)):
            assert R.rects.window(e) == R.points.window(R.rects[e]) == R.window(e)

    def test_member_windows_equal_coordinate_windows_on_seeded_h32_sample(self):
        S = build_Hkc(3, 2)
        last = S.levels[-1]
        yx, y_ids, ranks = geometry._orders(S)
        points = geometry._RankPoints(yx, y_ids, *ranks)
        leaf_stages = (S.n_path_edges, last.first_vertex, last.stage_size)
        for stages in (leaf_stages, None):
            rects = geometry._RankRects(S.base.edges, points, stages)
            sample = random.Random(22).sample(range(len(rects)), 3000)
            sample += [0, S.n_path_edges - 1, S.n_path_edges, len(rects) - 1]
            for e in sample:
                assert rects.window(e) == points.window(rects[e])

    @pytest.mark.parametrize(
        "R", [_r22, _r22_nested, _r25, _r2_51], ids=["plain", "nested", "G(2,5)", "G(2,51)"]
    )
    def test_loaded_and_hand_made_windows_equal_built(self, R):
        R = R()
        loaded = _loaded(R)
        hand_made = Realization(list(R.points), list(R.rects), list(R.edge_of_rect))
        assert type(hand_made.points) is geometry._RankPoints
        want = [R.window(r) for r in range(len(R.rects))]
        for other in (loaded, hand_made):
            assert [other.window(r) for r in range(len(R.rects))] == want


class TestPredicates:
    def test_ascending(self):
        assert is_ascending([Point2(F(0), F(0)), Point2(F(1), F(2))])
        assert not is_ascending([Point2(F(0), F(0)), Point2(F(1), F(-1))])
        assert not is_ascending([Point2(F(0), F(0)), Point2(F(0), F(1))])
        assert is_ascending([])
        assert is_ascending([Point2(F(5), F(5))])

    @pytest.mark.parametrize(
        "ivs,expect",
        [
            ([(F(0), F(4)), (F(1), F(2))], True),
            ([(F(0), F(2)), (F(2), F(4))], True),  # half-open: touching is disjoint
            ([(F(0), F(3)), (F(1), F(4))], False),
            ([(F(0), F(3)), (F(0), F(3))], True),
            ([(F(0), F(3)), (F(1), F(1))], True),  # empty interval nests anywhere
            ([], True),
            ([(F(0), F(4)), (F(0), F(2)), (F(2), F(4)), (F(1), F(2))], True),
        ],
    )
    def test_nested(self, ivs, expect):
        assert is_nested(ivs) is expect

    def test_projection_boundary_guard(self):
        pts = [Point2(F(0), F(1))]
        rects = [make_rect(F(-1), F(1), F(0), F(1))]  # point sits on the top
        H = OrderedHypergraph(1, [(0,)])
        R = Realization(pts, rects, [0], H)
        with pytest.raises(VerificationError):
            y_projections(R)


def is_perfect_nested(fam: PerfectNestedFamily) -> bool:
    """Literal check of a perfect nested family's defining equations."""
    t = fam.depth
    for s, iv in fam.interval_of.items():
        if len(s) > t - 1 or any(ch not in "01" for ch in s):
            return False
    for s, iv in fam.interval_of.items():
        if len(s) >= t - 1:
            continue
        a = fam.interval_of.get(s + "0")
        b = fam.interval_of.get(s + "1")
        if a is None or b is None:
            return False
        # union equality for adjacent half-open pieces
        if not (a.lo == iv.lo and (a.hi == b.lo or b.lo == b.hi) and max(a.hi, b.hi) == iv.hi):
            return False
    return is_nested([iv for iv in fam.interval_of.values()])


def _check_prefix_membership(fam, ivs, points_y):
    assert is_perfect_nested(fam)
    for lbl in fam.interval_of:
        assert len(lbl) <= fam.depth - 1
    for j, y in enumerate(points_y):
        assert len(fam.point_labels[j]) == fam.depth - 1
        for i, (lo, hi) in enumerate(ivs):
            if fam.input_labels[i] is None:
                continue
            member = lo <= y < hi
            prefixed = fam.point_labels[j].startswith(fam.input_labels[i])
            assert member == prefixed, (i, j)


def _left_comb_complete(node, pts):
    """The former completion, frozen as the reference: gap children,
    point-splitting of leaves, then each sibling list binarized as a left
    comb, so a node with r children adds r − 1 levels.  Returns the height
    of the completed subtree."""
    inside = [y for y in pts if node.lo <= y < node.hi]
    if not node.children:
        if len(inside) > 1:
            h = len(inside) // 2
            mid = F(inside[h - 1] + inside[h], 2)
            node.children = [geometry._Node(node.lo, mid), geometry._Node(mid, node.hi)]
            for ch in node.children:
                _left_comb_complete(ch, inside)
        return _height(node)
    node.children.sort(key=lambda c: c.lo)
    filled = []
    cursor = node.lo
    for ch in node.children:
        if cursor < ch.lo:
            filled.append(geometry._Node(cursor, ch.lo))
        filled.append(ch)
        cursor = ch.hi
    if cursor < node.hi:
        filled.append(geometry._Node(cursor, node.hi))
    node.children = filled
    for ch in node.children:
        _left_comb_complete(ch, inside)
    while len(node.children) > 2:
        a, b = node.children[0], node.children[1]
        node.children[:2] = [geometry._Node(a.lo, b.hi, children=[a, b])]
    if len(node.children) == 1:
        only = node.children[0]
        node.children = [only, geometry._Node(node.hi, node.hi)]
    return _height(node)


def _height(node):
    return 1 + max(map(_height, node.children)) if node.children else 0


def _left_comb_family(ivs, pts, strict_root=False):
    with mock.patch.object(geometry, "_complete", _left_comb_complete):
        return extend_to_perfect_nested(ivs, pts, strict_root=strict_root)


@st.composite
def _wide_families(draw):
    """A random nested family on [0, 64): each interval is cut into up to
    four pieces, and each piece is kept or left as a gap."""
    ivs = []

    def subdivide(lo, hi, depth):
        if draw(st.booleans()):
            ivs.append((F(lo), F(hi)))
        if depth == 0 or hi - lo < 2:
            return
        cuts = sorted(draw(st.sets(st.integers(lo + 1, hi - 1), max_size=min(3, hi - lo - 1))))
        for a, b in zip([lo] + cuts, cuts + [hi]):
            subdivide(a, b, depth - 1)

    subdivide(0, 64, 3)
    pts = draw(st.lists(st.integers(-2, 70).map(F), max_size=8, unique=True))
    return ivs, pts


class TestPerfectNested:
    def test_hand_example(self):
        ivs = [(F(0), F(8)), (F(1), F(3)), (F(5), F(6))]
        pts = [F(1), F(2), F(4), F(11, 2)]
        fam = extend_to_perfect_nested(ivs, pts)
        _check_prefix_membership(fam, ivs, pts)
        # the hull input is the root
        assert fam.input_labels[0] == ""

    def test_strict_root_pads(self):
        ivs = [(F(0), F(8)), (F(1), F(3))]
        pts = [F(2), F(5)]
        fam = extend_to_perfect_nested(ivs, pts, strict_root=True)
        _check_prefix_membership(fam, ivs, pts)
        assert all(lbl and len(lbl) >= 1 for lbl in fam.input_labels)

    def test_points_only(self):
        pts = [F(0), F(1), F(2)]
        fam = extend_to_perfect_nested([], pts)
        assert len(set(fam.point_labels)) == 3

    def test_empty_input_interval_skipped(self):
        fam = extend_to_perfect_nested([(F(0), F(0)), (F(0), F(2))], [F(1)])
        assert fam.input_labels[0] is None
        assert fam.input_labels[1] is not None

    def test_not_nested_rejected(self):
        with pytest.raises(DomainError):
            extend_to_perfect_nested([(F(0), F(3)), (F(1), F(4))], [])

    def test_nothing_to_extend(self):
        with pytest.raises(DomainError):
            extend_to_perfect_nested([], [])

    def test_nested_drawing_projections_extend(self):
        R = _r22_nested()
        ivs = y_projections(R)
        pts = [p.y for p in R.points]
        fam = extend_to_perfect_nested(ivs, pts)
        _check_prefix_membership(fam, ivs, pts)
        # the two deepest path projections coincide, hence share a label
        assert fam.input_labels[6] == fam.input_labels[7]

    def test_nested_drawing_family_exact_and_shallow(self):
        # integer input splits at exact midpoints, never at floats; the
        # depth bounds the progression differences the translation needs
        R = _r22_nested()
        pts = [p.y for p in R.points]
        for strict, depth, comb_depth in ((False, 8, 10), (True, 9, 11)):
            fam = extend_to_perfect_nested(y_projections(R), pts, strict_root=strict)
            assert fam.depth == depth
            assert _left_comb_family(y_projections(R), pts, strict).depth == comb_depth
            ends = [v for iv in fam.interval_of.values() for v in iv]
            assert all(type(v) in (int, F) for v in ends)

    def test_minimax_merge_ties_go_left(self):
        # three equal siblings: the leftmost pair joins first
        fam = extend_to_perfect_nested([(F(i), F(i + 1)) for i in range(3)], [])
        assert fam.input_labels == ["00", "01", "1"]
        # four: the joined pair is now deeper, so the right pair joins next
        fam = extend_to_perfect_nested([(F(i), F(i + 1)) for i in range(4)], [])
        assert fam.input_labels == ["00", "01", "10", "11"]
        assert _left_comb_family([(F(i), F(i + 1)) for i in range(4)], []).input_labels == [
            "000",
            "001",
            "01",
            "1",
        ]

    def test_disjoint_siblings_balance(self):
        # 16 unit siblings: a balanced 4-level tree, not a 15-level comb
        ivs = [(F(i), F(i + 1)) for i in range(16)]
        fam = extend_to_perfect_nested(ivs, [])
        assert fam.depth == 5 and _left_comb_family(ivs, []).depth == 16
        _check_prefix_membership(fam, ivs, [])

    @given(_wide_families(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_minimax_never_deeper_than_left_comb(self, family, strict):
        ivs, pts = family
        assume(ivs or pts)
        fam = extend_to_perfect_nested(ivs, pts, strict_root=strict)
        assert fam.depth <= _left_comb_family(ivs, pts, strict).depth
        _check_prefix_membership(fam, ivs, pts)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_families(self, data):
        # build a random nested family by recursive subdivision of [0, 64)
        ivs = []

        def subdivide(lo, hi, depth):
            if data.draw(st.booleans()):
                ivs.append((lo, hi))
            if depth == 0 or hi - lo < 2:
                return
            mid = data.draw(st.integers(int(lo) + 1, int(hi) - 1))
            subdivide(lo, F(mid), depth - 1)
            subdivide(F(mid), hi, depth - 1)

        subdivide(F(0), F(64), 3)
        pts = data.draw(
            st.lists(st.integers(-2, 70).map(F), max_size=8, unique=True)
        )
        if not ivs and not pts:
            return
        strict = data.draw(st.booleans())
        fam = extend_to_perfect_nested(ivs, pts, strict_root=strict)
        _check_prefix_membership(fam, ivs, pts)


def _dominance_hasse_cubic(points):
    """The O(n³) reference: every dominance-comparable pair whose open box
    holds no third point, as (smaller index, larger index), sorted."""
    n = len(points)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p, q = points[i], points[j]
            if p.x > q.x:
                p, q = q, p
            if not (p.x < q.x and p.y < q.y):
                continue
            if any(
                p.x < w.x < q.x and p.y < w.y < q.y
                for k, w in enumerate(points)
                if k != i and k != j
            ):
                continue
            edges.append((i, j))
    return edges


class TestDominance:
    @pytest.mark.parametrize("g", [5, 7, 9, 51, 71])
    def test_sweep_matches_cubic_scan_on_girth_drawings(self, g):
        R = realize_Gcg(build_Gcg(2, g))
        for points in (R.points, _loaded(R).points):
            H = dominance_hasse(points)
            assert H.n == len(points) and H.edges == _dominance_hasse_cubic(points)

    @pytest.mark.parametrize(
        "R", [_r22, _r22_nested, lambda: realize_Hkc(build_Hkc(3, 1))], ids=["plain", "nested", "H(3,1)"]
    )
    def test_sweep_matches_cubic_scan_on_staged_drawings(self, R):
        points = R().points
        assert dominance_hasse(points).edges == _dominance_hasse_cubic(points)

    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True),
                st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True),
                st.integers(1, 6),
                st.integers(1, 6),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_cubic_scan_on_random_points(self, xyd):
        # Fraction points in general position: distinct x and distinct y
        xs, ys, dx, dy = xyd
        pts = [Point2(F(x, dx), F(y, dy)) for x, y in zip(xs, ys)]
        assert dominance_hasse(pts).edges == _dominance_hasse_cubic(pts)

    def test_chain(self):
        pts = [Point2(F(i), F(i)) for i in range(3)]
        H = dominance_hasse(pts)
        assert H.edges == [(0, 1), (1, 2)]  # (0,2) blocked by the middle point

    def test_antichain(self):
        pts = [Point2(F(i), F(-i)) for i in range(4)]
        assert dominance_hasse(pts).edges == []

    def test_requires_general_position(self):
        with pytest.raises(DomainError):
            dominance_hasse([Point2(F(0), F(0)), Point2(F(0), F(1))])
        with pytest.raises(DomainError):
            dominance_hasse([Point2(F(0), F(0)), Point2(F(1), F(0))])

    @given(st.permutations(range(8)))
    @settings(max_examples=80, deadline=None)
    def test_triangle_free(self, perm):
        pts = [Point2(F(i), F(perm[i])) for i in range(len(perm))]
        H = dominance_hasse(pts)
        pairs = set(H.edges)
        for a, b, c in itertools.combinations(range(len(perm)), 3):
            assert not (
                tuple(sorted((a, b))) in pairs
                and tuple(sorted((b, c))) in pairs
                and tuple(sorted((a, c))) in pairs
            )

    def test_cover_pairs_have_empty_box(self):
        perm = [3, 0, 4, 1, 5, 2]
        pts = [Point2(F(i), F(perm[i])) for i in range(6)]
        H = dominance_hasse(pts)
        for a, b in H.edges:
            p, q = sorted((pts[a], pts[b]))
            assert p.x < q.x and p.y < q.y
            for w in pts:
                assert not (p.x < w.x < q.x and p.y < w.y < q.y)


class TestMonochromaticPath:
    def test_full_diagonal(self):
        pts = [Point2(F(i), F(i)) for i in range(5)]
        col = Coloring(1, [0] * 5)
        assert monochromatic_increasing_path(pts, col, 5) == [0, 1, 2, 3, 4]

    def test_split_colors(self):
        pts = [Point2(F(i), F(i)) for i in range(6)]
        col = Coloring(2, [0, 0, 0, 1, 1, 1])
        chain = monochromatic_increasing_path(pts, col, 3)
        assert chain == [0, 1, 2]
        assert monochromatic_increasing_path(pts, col, 4) is None

    def test_chain_is_consecutive_in_hasse(self):
        perm = [1, 0, 3, 2, 5, 4, 7, 6]
        pts = [Point2(F(i), F(perm[i])) for i in range(8)]
        col = Coloring(2, [i % 2 for i in range(8)])
        chain = monochromatic_increasing_path(pts, col, 2)
        assert chain is not None
        edges = set(dominance_hasse(pts).edges)
        for u, v in zip(chain, chain[1:]):
            assert col.colors[u] == col.colors[v]
            assert tuple(sorted((u, v))) in edges

    def test_k_one(self):
        pts = [Point2(F(1), F(5)), Point2(F(0), F(2))]
        chain = monochromatic_increasing_path(pts, Coloring(1, [0, 0]), 1)
        assert chain == [1]  # leftmost point

    def test_bad_args(self):
        pts = [Point2(F(0), F(0))]
        with pytest.raises(DomainError):
            monochromatic_increasing_path(pts, Coloring(1, [0]), 0)
        with pytest.raises(DomainError):
            monochromatic_increasing_path(pts, Coloring(1, [0, 0]), 1)


# Frozen copies of the writers the column writers replaced: the JSON of
# ``Realization.to_json_dict`` through ``cli._canonical_json``, and
# ``emit_svg`` one rectangle and one point at a time.  The bytes are the
# contract.


def _frozen_json(R):
    d = {
        "points": [[str(p.x), str(p.y)] for p in R.points],
        "rects": [[str(r.x_lo), str(r.x_hi), str(r.y_lo), str(r.y_hi)] for r in R.rects],
        "edge_of_rect": list(R.edge_of_rect),
    }
    return (json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def _frozen_svg(R, width=900.0):
    margin, radius, stroke = 40.0, 3.0, 1.2
    rects = list(R.rects)
    xs = [p.x for p in R.points] + [v for r in rects for v in (r.x_lo, r.x_hi)]
    ys = [p.y for p in R.points] + [v for r in rects for v in (r.y_lo, r.y_hi)]
    x0, x1 = float(min(xs)), float(max(xs))
    y0, y1 = float(min(ys)), float(max(ys))
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    scale = (width - 2 * margin) / span_x
    height = span_y * scale + 2 * margin

    def fx(v):
        return f"{margin + (float(v) - x0) * scale:.6f}"

    def fy(v):
        return f"{margin + (y1 - float(v)) * scale:.6f}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.6f}" height="{height:.6f}" '
        f'viewBox="0 0 {width:.6f} {height:.6f}">'
    ]
    for r in rects:
        w = f"{(float(r.x_hi) - float(r.x_lo)) * scale:.6f}"
        h = f"{(float(r.y_hi) - float(r.y_lo)) * scale:.6f}"
        out.append(
            f'<rect x="{fx(r.x_lo)}" y="{fy(r.y_hi)}" width="{w}" height="{h}" '
            f'fill="none" stroke="#2a6fc4" stroke-width="{stroke:.6f}"/>'
        )
    for p in R.points:
        out.append(f'<circle cx="{fx(p.x)}" cy="{fy(p.y)}" r="{radius:.6f}" fill="#c4442a"/>')
    out.append("</svg>")
    return "\n".join(out).encode("utf-8")


def _layout(k, m):
    return _hkc(k, 2, build_Hkc(m, 1), _hkc_levels(k, m, 10**6))


def _thirds(R):
    """R loaded back with every coordinate divided by 3: "p/q" text and,
    on multiples of 3, integer text."""
    d = json.loads(R.to_json_bytes())
    for field in ("points", "rects"):
        d[field] = [[str(F(int(c), 3)) for c in row] for row in d[field]]
    return Realization.from_json_dict(d)


WRITER_DRAWINGS = {
    "H(2,2)": _r22,
    "nested H(2,2)": _r22_nested,
    **{f"G(2,{g})": (lambda g=g: realize_Gcg(build_Gcg(2, g))) for g in (5, 7, 9, 51, 71)},
    **{f"H({k},1)": (lambda k=k: realize_Hkc(build_Hkc(k, 1))) for k in (1, 2, 3, 5)},
    "(4,2)": lambda: realize_Hkc(_layout(4, 2)),
    "nested (4,2)": lambda: realize_Hkc_nested(_layout(4, 2)),
    "(5,1)": lambda: realize_Hkc(_layout(5, 1)),
    "nested (5,1)": lambda: realize_Hkc_nested(_layout(5, 1)),
    "loaded p/q": lambda: _thirds(_r22_nested()),
    "no rectangles": lambda: Realization(_r25().points, [], []),
}


class TestFrozenWriters:
    @pytest.mark.parametrize("name", WRITER_DRAWINGS)
    def test_json_bytes_equal_frozen_writer(self, name):
        R = WRITER_DRAWINGS[name]()
        assert R.to_json_bytes() == _frozen_json(R)
        assert _loaded(R).to_json_bytes() == R.to_json_bytes()

    @pytest.mark.parametrize("name", WRITER_DRAWINGS)
    def test_svg_bytes_equal_frozen_writer(self, name):
        R = WRITER_DRAWINGS[name]()
        for width in (900.0, 500.0, 81.0):
            assert emit_svg(R, width) == _frozen_svg(R, width)

    def test_loaded_drawing_keeps_its_fractions(self):
        R = _thirds(_r22_nested())
        x, y, *bounds = R.columns()
        assert any(type(v) is F for col in (x, y, *bounds) for v in col)
        assert b'"-1/3"' in R.to_json_bytes()

    def test_columns_equal_points_and_rect_views(self):
        for make in WRITER_DRAWINGS.values():
            R = make()
            x, y, *bounds = R.columns()
            assert list(zip(x, y)) == [tuple(p) for p in R.points]
            assert list(zip(*bounds)) == [tuple(r) for r in R.rects]


class TestSvg:
    def test_deterministic_bytes(self):
        assert emit_svg(_r22()) == emit_svg(_r22())

    def test_structure(self):
        svg = emit_svg(_r22()).decode()
        assert svg.startswith("<svg ")
        assert svg.count("<circle ") == 12
        assert svg.count("<rect ") == 14

    def test_style_changes_output(self):
        a = emit_svg(_r22())
        b = emit_svg(_r22(), width=500.0)
        assert a != b
        assert a == emit_svg(_r22(), width=900.0)

    def test_empty_rejected(self):
        empty = Realization([], [], [], OrderedHypergraph(0, []))
        with pytest.raises(DomainError):
            emit_svg(empty)


class TestRealizationJson:
    def test_round_trip(self):
        R = _r22()
        back = Realization.from_json_dict(json.loads(R.to_json_bytes()))
        assert back.points == list(R.points)
        assert list(back.rects) == list(R.rects)
        assert list(back.edge_of_rect) == list(R.edge_of_rect)

    def test_loaded_realization_verifies_against_hypergraph(self):
        back = _loaded(_r22())
        with pytest.raises(DomainError):
            verify_realization(back)  # no hypergraph attached
        back.hypergraph = _h22().base
        verify_realization(back)

    def test_malformed(self):
        with pytest.raises(DomainError):
            Realization.from_json_dict({"points": [["1", "2"]]})
        with pytest.raises(DomainError):
            Realization.from_json_dict(
                {"points": [], "rects": [["0", "1", "0", "1"]], "edge_of_rect": []}
            )

    def test_rect_bounds_checked(self):
        with pytest.raises(DomainError):
            make_rect(F(1), F(0), F(0), F(1))

    @pytest.mark.parametrize("R", [_r22, _r22_nested, _r25], ids=["plain", "nested", "G(2,5)"])
    def test_loaded_points_are_the_built_rank_view(self, R):
        # the built points sit in general position, so the loaded view's
        # one sort per axis finds the builder's own orders
        R = R()
        back = _loaded(R).points
        assert type(back) is geometry._RankPoints and back == R.points
        for name in ("yx", "y_ids", "x_rank", "y_rank"):
            assert list(getattr(back, name)) == list(getattr(R.points, name))
        assert [int(x) for x in back.xs] == list(R.points.xs) == list(range(0, 4 * len(back), 4))

    @pytest.mark.parametrize(
        "field,rows",
        [
            ("points", ["00", "44"]),  # a string row was read character by character
            ("points", {"00": 0, "44": 1}),
            ("points", [["0", "0", "0"], ["4", "4", "4"]]),
            ("points", [["0"], ["4"]]),
            ("rects", ["0011"]),
            ("rects", [["0", "1", "0"]]),
            ("rects", [("0", "1", "0", "1", "2")]),
        ],
    )
    def test_rows_must_be_lists_of_two_or_four(self, field, rows):
        d = {"points": [["0", "0"], ["4", "4"]], "rects": [["0", "1", "0", "1"]], "edge_of_rect": [0]}
        Realization.from_json_dict(d)
        d[field] = rows
        with pytest.raises(DomainError, match="rows of"):
            Realization.from_json_dict(d)

    @pytest.mark.parametrize("text", ["1/0", "3/00", "-0/0"])
    def test_zero_denominator_refused_by_parse_coord(self, text):
        with pytest.raises(DomainError, match="zero denominator"):
            geometry.parse_coord(text)

    @pytest.mark.parametrize(
        "value,kind",
        [
            (0, int), (-7, int), (10**40, int),
            ("12", int), ("05", int), ("-0", int), ("-12", int), ("9" * 4300, int),
            ("-7/2", F), ("6/3", F), ("0/5", F), ("05/010", F),
        ],
    )
    def test_parse_coord_loads_integral_text_as_int(self, value, kind):
        got = geometry.parse_coord(value)
        assert type(got) is kind
        assert got == F(value) and hash(got) == hash(F(value))

    @pytest.mark.parametrize(
        "value,message",
        [
            (True, "coordinate must be an int or a string p or p/q of decimal digits"),
            (0.5, "coordinate must be an int or a string p or p/q of decimal digits"),
            ("1.5", "coordinate must be an int or a string p or p/q of decimal digits"),
            ("+3", "coordinate must be an int or a string p or p/q of decimal digits"),
            (" 3", "coordinate must be an int or a string p or p/q of decimal digits"),
            ("1_0", "coordinate must be an int or a string p or p/q of decimal digits"),
            ("1e100000000", "coordinate must be an int or a string p or p/q of decimal digits"),
            ("1/0", "coordinate has a zero denominator"),
            ("9" * 5000, "coordinate too long: Exceeds the limit (4300 digits) for integer string conversion"),
        ],
        ids=["bool", "float", "decimal", "plus", "space", "underscore", "exponent", "zero-den", "5000-digits"],
    )
    def test_parse_coord_refusals_unchanged(self, value, message):
        with pytest.raises(DomainError) as info:
            geometry.parse_coord(value)
        assert str(info.value).startswith(message)

    def test_loaded_integral_drawing_holds_ints(self):
        back = _loaded(_r22_nested())
        assert all(type(v) is int for p in back.points for v in p)
        assert all(type(v) is int for r in back.rects for v in r)


class TestRankPoints:
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_view_of_a_list_with_ties(self, coords):
        pts = [Point2(F(x, 2), F(y, 3)) for x, y in coords]
        P = geometry._RankPoints.of(pts)
        assert list(P) == pts and len(P) == len(pts)
        assert geometry._RankPoints.of(P) is P
        assert list(P.xs) == sorted(p.x for p in pts) and list(P.ys) == sorted(p.y for p in pts)
        # the ranks invert the stable x- and y-orders, ties by id
        x_ids = sorted(range(len(pts)), key=lambda v: pts[v].x)
        y_ids = sorted(range(len(pts)), key=lambda v: pts[v].y)
        assert P.x_rank == geometry._inverse(x_ids) and P.y_rank == geometry._inverse(y_ids)
        assert list(P.y_ids) == y_ids and list(P.yx) == [P.y_rank[v] for v in x_ids]
        for a in (P.yx, P.y_ids, P.x_rank, P.y_rank):
            assert type(a) is array and a.typecode == TYPECODE

    def test_built_view_sits_on_the_grid_of_fours(self):
        P = _r25().points
        assert P.xs == P.ys == range(0, 4 * len(P), 4)
        assert list(P) == [Point2(4 * P.x_rank[v], 4 * P.y_rank[v]) for v in range(len(P))]


def _monotone_map(values, gaps):
    """Strictly increasing map defined on a finite value set."""
    sorted_vals = sorted(values)
    image = {}
    cur = F(gaps[0])
    for v, g in zip(sorted_vals, itertools.cycle(gaps)):
        image[v] = cur
        cur += F(g, 3)
    return image


class TestOrderInvariance:
    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=12),
        st.lists(st.integers(1, 9), min_size=1, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_incidence_depends_only_on_orders(self, xg, yg):
        R = _r22()
        rects = list(R.rects)
        fx = _monotone_map(
            {p.x for p in R.points} | {v for r in rects for v in (r.x_lo, r.x_hi)},
            xg,
        )
        fy = _monotone_map(
            {p.y for p in R.points} | {v for r in rects for v in (r.y_lo, r.y_hi)},
            yg,
        )
        pts2 = [Point2(fx[p.x], fy[p.y]) for p in R.points]
        rects2 = [
            Rect(fx[r.x_lo], fx[r.x_hi], fy[r.y_lo], fy[r.y_hi]) for r in rects
        ]
        before = incidence_hypergraph(R.points, rects)
        after = incidence_hypergraph(pts2, rects2)
        assert before == after


@pytest.mark.parametrize(
    "make",
    [
        _h22,
        lambda: build_Gcg(2, 5),
        lambda: build_Hkc(3, 2),
        lambda: _hkc(4, 2, build_Hkc(2, 1), _hkc_levels(4, 2, 10**6)),
    ],
    ids=["H(2,2)", "G(2,5)", "H(3,2)", "(4,2)"],
)
def test_every_vertex_array_has_the_typecode(make):
    # one 4-byte typecode throughout, so slice assignment between any two
    # of them works; H(3,2)'s points are indexed as built only, as a point
    # list they would take some 200 MB
    S = make()
    yx, y_ids, ranks = geometry._orders(S)
    points = geometry._RankPoints(yx, y_ids, *ranks)
    arrays = [yx, y_ids, *ranks, *S.base.edges.columns(), *S.base.edges.columns(S.n_path_edges)]
    T = S
    while T is not None:
        arrays.append(T.parent)
        T = T.copy_template
    indexes = [BoxIndex(points)] + ([BoxIndex(list(points))] if S.n < 10**5 else [])
    for index in indexes:
        arrays += [index.yx, index.y_ids, index.x_rank, index.y_rank, index._runs]
    arrays += S.base.edges.columns(through=points.x_rank)
    arrays += S.base.edges.columns(S.n_path_edges, through=points.y_rank)
    for stages in [None] + ([_leaf_stages(S)] if S.kind == "hkc" else []):
        rects = geometry._RankRects(S.base.edges, points, stages)
        arrays += [*rects.windows(), *rects.bounds()]
    assert all(type(a) is array and (a.typecode, a.itemsize) == (TYPECODE, 4) for a in arrays)
