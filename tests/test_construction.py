"""Tests for the staged-family builders and the constructive finder.

Expected structures for the small instances (the 12-vertex k=2/c=2 build,
the 15/21/27-vertex girth graphs) were derived by hand from the stage
discipline and are frozen here; the larger instances are checked through a
closed-form counting function frozen below, and the finder is
cross-validated exhaustively against the naive edge scan.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
import time
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromarect.construction import (
    LevelInfo,
    StagedHypergraph,
    _gcg,
    _hkc,
    _hkc_levels,
    _hkc_size,
    _identity,
    _is_cycle,
    _odd_cycle,
    build_Gcg,
    build_Hkc,
    find_monochromatic_edge,
)
from chromarect.errors import DomainError, PaletteExceedsGuarantee, SizeLimitExceeded
from chromarect.hypergraph import (
    Coloring,
    OrderedHypergraph,
    edge_multiset_equal,
    hypergraph_girth,
    is_c_colorable,
    is_proper_coloring,
    naive_monochromatic_edge,
)


# ---------------------------------------------------------------------------
# build_Hkc — small frozen instance


H22_PARENTS = [None] * 4 + [0, 2, 0, 3, 1, 2, 1, 3]
H22_PATH = [(0, 4), (2, 5), (0, 6), (3, 7), (1, 8), (2, 9), (1, 10), (3, 11)]
H22_TRANSVERSAL = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]


@pytest.fixture(scope="module")
def h22():
    return build_Hkc(2, 2)


def _predict_hkc_counts(k, c):
    """Frozen reference: (vertex count, edge count) of H(k, c) by the
    closed-form stage count the builder's size guard once used.  Level j
    has stages * m ** (k - j) vertices and stages * m ** (k - j - 1)
    blocks, and each of its stages has m ** blocks child stages."""
    if c == 1:
        return k, 1
    m, template_edges = _predict_hkc_counts(k, c - 1)
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


def _root(S):
    """Each vertex's level-0 ancestor, walked up the parent array."""
    root = []
    for v, p in enumerate(S.parent):
        root.append(v if p < 0 else root[p])
    return root


def _stages(S):
    """(level record, vertex range) of every stage, level by level: a stage
    is its level's record plus a position within the level."""
    stages = []
    for li in S.levels:
        for pos in range(li.n_stages):
            lo = li.first_vertex + pos * li.stage_size
            stages.append((li, range(lo, lo + li.stage_size)))
    return stages


def _product_parents(m, levels):
    """Frozen reference: the parent array the builder made with one
    ``itertools.product`` over the blocks of every non-last stage, the
    picks of each child stage in lexicographic order."""
    parent = [-1] * levels[0].stage_size
    for li in levels[:-1]:
        end = li.first_vertex + li.n_stages * li.stage_size
        for start in range(li.first_vertex, end, li.stage_size):
            blocks = [range(b, b + m) for b in range(start, start + li.stage_size, m)]
            parent.extend(itertools.chain.from_iterable(itertools.product(*blocks)))
    return array("l", parent)


@pytest.mark.parametrize("k,c,m", [(2, 2, None), (3, 2, None), (4, 1, None), (4, 2, 2), (5, 2, 1)])
def test_hkc_parents_equal_product_reference(k, c, m):
    # with m given, H(k, 2)'s layout around H(m, 1): k levels, more than
    # any buildable instance has
    S = build_Hkc(k, c) if m is None else _hkc(k, 2, build_Hkc(m, 1), _hkc_levels(k, m, 10**6))
    assert S.parent == _product_parents(S.m, S.levels)


@pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 65535, 65536, 65537, 1771497])
def test_identity_equals_range(n):
    assert _identity(n) == array("l", range(n))


def test_identity_other_byte_order(monkeypatch):
    # with the byte order flipped, every entry is written byte-reversed: the
    # other byte order's planes land where that order puts them
    flipped = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(sys, "byteorder", flipped)
    ident = _identity(65537)
    ident.byteswap()
    assert ident == array("l", range(65537))


def test_h22_counts_and_edges(h22):
    assert h22.n == 12
    assert h22.m == 2
    assert len(h22.base.edges) == 14
    assert list(h22.base.edges[:8]) == H22_PATH
    assert list(h22.base.edges[8:]) == H22_TRANSVERSAL
    assert h22.n_path_edges == 8


def test_h22_parents_and_roots(h22):
    assert [None if p < 0 else p for p in h22.parent] == H22_PARENTS
    assert _root(h22) == [0, 1, 2, 3, 0, 2, 0, 3, 1, 2, 1, 3]


def test_h22_stage_layout(h22):
    # one level-0 stage of two blocks with m ** blocks = 4 children, then
    # four single-block leaf stages
    assert h22.levels == (LevelInfo(1, 0, 4, 2, 4), LevelInfo(4, 4, 2, 1, 0))
    assert [list(vs) for _, vs in _stages(h22)] == [
        [0, 1, 2, 3], [4, 5], [6, 7], [8, 9], [10, 11]
    ]


def test_h22_each_stage_meets_each_tree_at_most_once(h22):
    root = _root(h22)
    for _, vs in _stages(h22):
        roots = [root[v] for v in vs]
        assert len(roots) == len(set(roots))


def test_h22_blocks_carry_template_copies(h22):
    template = h22.copy_template
    assert template.c == 1 and template.n == 2
    for li, vs in _stages(h22):
        for b in range(li.blocks_per_stage):
            block = vs[b * h22.m : (b + 1) * h22.m]
            inside = [e for e in h22.base.edges if all(u in block for u in e)]
            sub = OrderedHypergraph(
                template.n, [tuple(u - block[0] for u in e) for e in inside]
            )
            assert edge_multiset_equal(sub, template.base)


def test_h22_chromatic_three_by_exhaustive_scan(h22):
    # no proper 2-coloring: direct scan over all 4096 assignments
    edges = h22.base.edges
    for bits in itertools.product((0, 1), repeat=12):
        assert any(len({bits[v] for v in e}) == 1 for e in edges)
    # but a proper 3-coloring exists
    col = is_c_colorable(h22.base, 3)
    assert col is not None and is_proper_coloring(h22.base, col)


def test_hkc_base_case_is_one_full_edge():
    H = build_Hkc(3, 1)
    assert H.n == 3 and H.base.edges == [(0, 1, 2)]
    assert H.n_path_edges == 0
    assert H.levels == (LevelInfo(1, 0, 3, 1, 0),)


def test_hkc_uniformity_small():
    for k, c in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (4, 1)]:
        H = build_Hkc(k, c)
        assert all(len(e) == k for e in H.base.edges), (k, c)
        n_pred, e_pred = _predict_hkc_counts(k, c)
        assert H.n == n_pred and len(H.base.edges) == e_pred
        root = _root(H)
        for v in range(H.n):
            assert H.parent[v] < v  # -1 on level 0
            assert H.parent[root[v]] == -1


def test_hkc_predicted_counts_large():
    assert _predict_hkc_counts(3, 2) == (1_771_497, 2_184_822)
    # 3^13 root-to-leaf paths plus one copy per block
    assert _predict_hkc_counts(3, 2)[1] == 3**13 + (9 + 3 * 19_683 + 531_441)


@pytest.mark.parametrize(
    "k,c",
    [(1, c) for c in range(1, 5)]
    + [(2, c) for c in range(1, 4)]
    + [(3, 1), (3, 2), (4, 2), (5, 2)],
)
def test_hkc_size_guard_counts_exactly_to_its_cap(k, c):
    # H(2,3) has 144 + 12**12 * 12 vertices and H(5,2) a 546-digit count;
    # the guard counts them without building, up to a cap of exactly n
    n = _predict_hkc_counts(k, c)[0]
    counted, levels = _hkc_size(k, c, n)
    assert counted == n
    assert (levels is None) == (c == 1)
    assert _hkc_size(k, c, n - 1) is None


def test_hkc_size_limit_and_domain():
    with pytest.raises(SizeLimitExceeded) as ei:
        build_Hkc(3, 2, max_vertices=10**5)
    assert ei.value.details["predicted_vertices"] == 1_771_497
    with pytest.raises(SizeLimitExceeded) as ei:
        build_Hkc(2, 3)  # ~8.9e12 level-1 stages; blocked by the default cap
    # 12^2 level-0 vertices + 12^12 level-1 stages of 12 vertices each
    assert ei.value.details["predicted_vertices"] == 144 + 12**12 * 12
    with pytest.raises(DomainError):
        build_Hkc(0, 1)
    with pytest.raises(DomainError):
        build_Hkc(1, 0)


def test_hkc_size_limit_fires_fast_on_astronomical_instances():
    # The (3, 3) stage cascade counts ~10^(10^13) vertices; the guard must
    # reject it without ever forming integers that large.
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded) as ei:
        build_Hkc(3, 3, max_vertices=1000)
    assert time.perf_counter() - start < 1.0
    assert ei.value.details["predicted_vertices"] == "> " + str(10**18)
    with pytest.raises(SizeLimitExceeded):
        build_Hkc(4, 4, max_vertices=10**6)


def test_hkc_json_round_trip(h22):
    d = h22.to_json_dict()
    assert sorted(d) == ["c", "copy_template", "edges", "k", "kind", "m", "n", "parents"]
    back = StagedHypergraph.from_json_dict(d)
    assert (back.k, back.c, back.m, back.kind) == (2, 2, 2, "hkc")
    assert_same_instance(back, h22)


def assert_same_instance(loaded, built):
    """Every slot equal: the copy templates recursively, the computed edge
    sequences also by the fields that define them."""
    assert type(loaded) is StagedHypergraph
    for slot in StagedHypergraph.__slots__:
        a, b = getattr(loaded, slot), getattr(built, slot)
        if slot == "copy_template":
            assert (a is None) == (b is None)
            if a is not None:
                assert_same_instance(a, b)
        elif slot == "base":
            assert type(a.edges) is type(b.edges)
            assert vars(a.edges) == vars(b.edges)
            assert a == b
        else:
            assert a == b, slot


# H(2,2) as files were written before the level layout was derived on load:
# with "stages", "path_edges" and "transversal_edges", which are now ignored
H22_WITH_STAGE_RECORDS = (
    '{"c":2,"copy_template":{"c":1,"copy_template":null,"edges":[[0,1]],"k":2'
    ',"kind":"hkc","m":2,"n":2,"parents":[null,null],"path_edges":[],"stages"'
    ':[{"block_size":2,"blocks":1,"id":0,"level":0,"vertices":[0,1]}],"transv'
    'ersal_edges":[{"block":0,"copy_edge":0,"edge":0,"stage":0}]},"edges":[[0'
    ',4],[2,5],[0,6],[3,7],[1,8],[2,9],[1,10],[3,11],[0,1],[2,3],[4,5],[6,7],'
    '[8,9],[10,11]],"k":2,"kind":"hkc","m":2,"n":12,"parents":[null,null,null'
    ',null,0,2,0,3,1,2,1,3],"path_edges":[0,1,2,3,4,5,6,7],"stages":[{"block_'
    'size":2,"blocks":2,"id":0,"level":0,"vertices":[0,1,2,3]},{"block_size":'
    '2,"blocks":1,"id":1,"level":1,"vertices":[4,5]},{"block_size":2,"blocks"'
    ':1,"id":2,"level":1,"vertices":[6,7]},{"block_size":2,"blocks":1,"id":3,'
    '"level":1,"vertices":[8,9]},{"block_size":2,"blocks":1,"id":4,"level":1,'
    '"vertices":[10,11]}],"transversal_edges":[{"block":0,"copy_edge":0,"edge'
    '":8,"stage":0},{"block":1,"copy_edge":0,"edge":9,"stage":0},{"block":0,"'
    'copy_edge":0,"edge":10,"stage":1},{"block":0,"copy_edge":0,"edge":11,"st'
    'age":2},{"block":0,"copy_edge":0,"edge":12,"stage":3},{"block":0,"copy_e'
    'dge":0,"edge":13,"stage":4}]}'
)


def test_file_with_stage_records_loads(h22):
    assert_same_instance(StagedHypergraph.from_json_dict(json.loads(H22_WITH_STAGE_RECORDS)), h22)


# ---------------------------------------------------------------------------
# constructive finder


def _mono_index_ok(S, colors, idx):
    e = S.base.edges[idx]
    return len({colors[u] for u in e}) == 1


def _index_digest(indices):
    return hashlib.sha256(",".join(map(str, indices)).encode()).hexdigest()


# sha256 of the finder's edge indices, pinned from the stage-object finder
# that the level-record walk replaced: both must return the same edges
H22_FINDER_DIGESTS = {
    0: "a6b51e6f1ed1b79476fd61e9fdb56e76a42fcddc91ed2da78ee84f461f731eb1",
    1: "193a4b725fe0d98fc4fe6b51b0cd980a9349a090e0915280cda36821c377d810",
}


def test_finder_exhaustive_two_colorings(h22):
    found = []
    for bits in itertools.product((0, 1), repeat=12):
        col = Coloring(2, bits)
        idx = find_monochromatic_edge(h22, col)
        assert _mono_index_ok(h22, bits, idx)
        assert naive_monochromatic_edge(h22.base, col) is not None
        found.append(idx)
    assert _index_digest(found) == H22_FINDER_DIGESTS[0]


def test_finder_tracked_color_one(h22):
    found = []
    for bits in itertools.product((0, 1), repeat=12):
        idx = find_monochromatic_edge(h22, Coloring(2, bits), tracked_color=1)
        assert _mono_index_ok(h22, bits, idx)
        found.append(idx)
    assert _index_digest(found) == H22_FINDER_DIGESTS[1]


def test_finder_h32_indices_pinned():
    # criterion 2's seeded colorings of H(3,2)
    S = build_Hkc(3, 2)
    tbl = bytes(b & 1 for b in range(256))
    rng = random.Random(2)
    found = []
    for _ in range(100):
        colors = rng.randbytes(S.n).translate(tbl)
        found.append(find_monochromatic_edge(S, Coloring(2, colors)))
    assert _index_digest(found) == (
        "731ca9a3086d560e71901caff9ef3cb07ab4d7145116b91b9227b43e46eb8e57"
    )


def test_finder_proper_three_coloring_raises(h22):
    col = is_c_colorable(h22.base, 3)
    assert col is not None
    with pytest.raises(PaletteExceedsGuarantee):
        find_monochromatic_edge(h22, col)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=12, max_size=12))
def test_finder_three_colorings_find_or_flag(h22, bits):
    col = Coloring(3, tuple(bits))
    try:
        idx = find_monochromatic_edge(h22, col)
    except PaletteExceedsGuarantee:
        # allowed only if the walk genuinely had no mono edge to offer;
        # when the coloring is proper the naive scan agrees nothing exists
        return
    assert _mono_index_ok(h22, bits, idx)


def test_finder_one_color(h22):
    idx = find_monochromatic_edge(h22, Coloring(1, (0,) * 12))
    assert _mono_index_ok(h22, (0,) * 12, idx)


def test_finder_rejects_wrong_length(h22):
    with pytest.raises(DomainError):
        find_monochromatic_edge(h22, Coloring(2, (0,) * 5))


def test_finder_rejects_gcg():
    G = build_Gcg(2, 5)
    with pytest.raises(DomainError):
        find_monochromatic_edge(G, Coloring(2, (0,) * G.n))


# ---------------------------------------------------------------------------
# the auxiliary graph of G(2, g)


def test_odd_cycle_provider_rounds_up():
    for g, expect in [(2, 3), (3, 3), (5, 5), (6, 7), (9, 9)]:
        aux = _odd_cycle(g)
        assert aux == OrderedHypergraph(
            expect, [(i, i + 1) for i in range(expect - 1)] + [(0, expect - 1)]
        )
        assert hypergraph_girth(aux).girth == expect
        assert is_c_colorable(aux, 2) is None


def test_odd_cycle_supply_rejects_mismatch():
    # the odd cycle is 2-uniform with chromatic number 3, so it serves c = 2
    # only; c >= 3 is refused before G(2, g) is built, even when the vertex
    # limit could not hold G(2, g)
    for c in (3, 4, 10**6):
        with pytest.raises(DomainError):
            build_Gcg(c, 5, max_vertices=1)
    with pytest.raises(DomainError):
        build_Gcg(2, 1)


def test_cycle_certificate():
    # C_n passes at n >= 3; two disjoint cycles (every degree 2, two
    # components) and a cycle with a chord (two vertices of degree 3) fail,
    # as do a triangle with a doubled edge, a path, a doubled edge on two
    # vertices and a cycle with a one-vertex edge
    def cycle(n, start=0):
        return [(start + i, start + (i + 1) % n) for i in range(n)]

    for n in (3, 4, 5, 8):
        assert _is_cycle(OrderedHypergraph(n, cycle(n)))
    assert not _is_cycle(OrderedHypergraph(6, cycle(3) + cycle(3, 3)))
    assert not _is_cycle(OrderedHypergraph(10, cycle(5) + cycle(5, 5)))
    assert not _is_cycle(OrderedHypergraph(6, cycle(6) + [(0, 3)]))
    assert not _is_cycle(OrderedHypergraph(5, cycle(5) + [(1, 3)]))
    assert not _is_cycle(OrderedHypergraph(3, cycle(3) + [(0, 1)]))
    assert not _is_cycle(OrderedHypergraph(4, [(0, 1), (1, 2), (2, 3)]))
    assert not _is_cycle(OrderedHypergraph(2, [(0, 1), (0, 1)]))
    assert not _is_cycle(OrderedHypergraph(3, [(0,), (0, 1), (1, 2), (0, 2)]))


def test_odd_cycle_is_linear():
    # the certificate replaced a girth sweep that is quadratic in g
    t = time.perf_counter()
    aux = _odd_cycle(20001)
    assert time.perf_counter() - t < 5
    assert aux.n == len(aux.edges) == 20001


# ---------------------------------------------------------------------------
# build_Gcg


def test_g1_is_single_edge():
    G = build_Gcg(1, 7)
    assert G.base.n == 2 and G.base.edges == [(0, 1)]
    assert G.kind == "gcg" and G.levels == (LevelInfo(1, 0, 2, 1, 0),)


G25_PATH = [
    (0, 5), (1, 6), (1, 7), (2, 8), (2, 9),
    (3, 10), (3, 11), (4, 12), (0, 13), (4, 14),
]
G25_INTERNAL = [(5, 6), (7, 8), (9, 10), (11, 12), (13, 14)]


def test_g25_is_fifteen_cycle():
    G = build_Gcg(2, 5)
    assert G.n == 15 and len(G.base.edges) == 15
    assert list(G.base.edges[:10]) == G25_PATH
    assert list(G.base.edges[10:]) == G25_INTERNAL
    rep = hypergraph_girth(G.base)
    assert rep.girth == 15
    assert is_c_colorable(G.base, 2) is None
    col = is_c_colorable(G.base, 3)
    assert col is not None and is_proper_coloring(G.base, col)
    # degree-2 everywhere: a single cycle
    deg = [0] * 15
    for e in G.base.edges:
        for u in e:
            deg[u] += 1
    assert set(deg) == {2}


def test_g25_stage_layout():
    G = build_Gcg(2, 5)
    # a blockless level-0 stage with one child per auxiliary edge, then
    # five single-block stages of two vertices
    assert G.levels == (LevelInfo(1, 0, 5, 0, 5), LevelInfo(5, 5, 2, 1, 0))
    assert len(_stages(G)) == 6
    assert list(G.parent[5:]) == [0, 1, 1, 2, 2, 3, 3, 4, 0, 4]


@pytest.mark.parametrize("g,cyc", [(7, 21), (9, 27)])
def test_g2_larger_girths(g, cyc):
    G = build_Gcg(2, g)
    assert G.n == cyc and len(G.base.edges) == cyc
    assert hypergraph_girth(G.base).girth == cyc
    assert is_c_colorable(G.base, 2) is None


def test_gcg_json_round_trip_preserves_blockless_level():
    G = build_Gcg(2, 5)
    back = StagedHypergraph.from_json_dict(G.to_json_dict())
    assert back.levels[0].blocks_per_stage == 0
    assert_same_instance(back, G)


def test_gcg_rejects_wrong_uniformity_provider():
    # G(2, g) needs a 2-uniform auxiliary, the vertex count of G(1, g)
    with pytest.raises(DomainError):
        _gcg(2, build_Gcg(1, 5), OrderedHypergraph(4, [(0, 1, 2, 3)]))


def test_gcg_c3_needs_unreachable_auxiliary():
    # G(3, 5) would need a 15-uniform auxiliary of girth >= 5 with no proper
    # 3-coloring; none is built
    with pytest.raises(DomainError):
        build_Gcg(3, 5)


def test_gcg_bad_args():
    with pytest.raises(DomainError):
        build_Gcg(0, 5)
    with pytest.raises(DomainError):
        build_Gcg(2, 1)
    with pytest.raises(SizeLimitExceeded):
        build_Gcg(2, 5, max_vertices=10)


# ---------------------------------------------------------------------------
# the computed edge sequence of a built instance


def _materialized_edges(S):
    """Frozen reference: the edge lists the builders stored before their
    edges became a computed sequence, rebuilt here from the parent array,
    its roots (:func:`_root`) and the level records with the same loops."""
    if S.c == 1:
        return [tuple(range(S.m))]
    parent, root, n, m = S.parent, _root(S), S.n, S.m
    template_edges = _materialized_edges(S.copy_template)
    if S.kind == "gcg":
        n_h = S.levels[1].first_vertex
        edges = [(parent[u], u) for u in range(n_h, n)]
        for start in range(n_h, n, m):
            edges.extend(tuple(start + u for u in te) for te in template_edges)
        return edges
    k, levels = S.k, S.levels
    last = levels[-1]
    if k == 2:
        edges = [(parent[v], v) for v in range(last.first_vertex, n)]
    elif k == 3:
        edges = [(root[v], parent[v], v) for v in range(last.first_vertex, n)]
    else:
        edges = []
        for v in range(last.first_vertex, n):
            e = [0] * k
            u = v
            for i in range(k - 1, -1, -1):
                e[i] = u
                u = parent[u]
            edges.append(tuple(e))
    for li in levels:
        lo = li.first_vertex
        hi = lo + li.n_stages * li.stage_size
        for b in range(lo, hi, m):
            edges.extend(tuple(b + u for u in te) for te in template_edges)
    return edges


# every instance the vertex-order tests build, plus H(3,2) (its order
# digests are pinned there)
EDGE_INSTANCES = (
    [("hkc", k, c) for k, c in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]]
    + [("gcg", 1, 7)]
    + [("gcg", 2, g) for g in (4, 5, 7, 9, 51)]
    + [("random", 2, seed) for seed in range(3)]
)


def _uneven_gcg(seed):
    """G(2, 4) around a seeded random auxiliary graph with uneven child
    counts: seed + 2 cycles of length 5 or 7, each after the first sharing
    one random vertex with those before, so the graph has girth >= 5, no
    proper 2-coloring, and a vertex of degree at least 4."""
    rng = random.Random(seed)
    n, edges = 1, []
    for _ in range(seed + 2):
        cycle = [rng.randrange(n)] + list(range(n, n + rng.choice((4, 6))))
        n += len(cycle) - 1
        edges += zip(cycle, cycle[1:] + cycle[:1])
    return _gcg(2, build_Gcg(1, 4), OrderedHypergraph(n, edges))


def _edge_instance(kind, a, b):
    if kind == "hkc":
        return build_Hkc(a, b)
    if kind == "gcg":
        return build_Gcg(a, b)
    return _uneven_gcg(b)


@pytest.mark.parametrize("kind,a,b", EDGE_INSTANCES)
def test_edges_equal_materialized_reference(kind, a, b):
    S = _edge_instance(kind, a, b)
    edges, expected = S.base.edges, _materialized_edges(S)
    assert len(edges) == len(expected)
    assert edges == expected and expected == edges
    assert not edges != expected
    assert edges.columns() == [array("l", col) for col in zip(*expected)]
    step = max(1, len(expected) // 997)  # every item when small, a spread sample when not
    for i in range(0, len(expected), step):
        assert edges[i] == expected[i] and edges[i - len(expected)] == expected[i]


@pytest.mark.parametrize("kind,a,b", [i for i in EDGE_INSTANCES if i != ("hkc", 3, 2)])
def test_loaded_instance_equals_built(kind, a, b):
    S = _edge_instance(kind, a, b)
    loaded = StagedHypergraph.from_json_dict(json.loads(json.dumps(S.to_json_dict())))
    assert_same_instance(loaded, S)


@pytest.mark.parametrize("kind,a,b", [("hkc", 2, 2), ("gcg", 2, 7), ("hkc", 1, 3)])
def test_edge_slices_and_bounds(kind, a, b):
    S = _edge_instance(kind, a, b)
    edges, expected = S.base.edges, _materialized_edges(S)
    m = len(expected)
    for sl in [
        slice(None),
        slice(-1000, None),
        slice(None, 1000),
        slice(-3, -1),
        slice(2, -2, 3),
        slice(None, None, -1),
        slice(-1, 0, -2),
        slice(m + 5, None),
        slice(1, 1),
    ]:
        got = edges[sl]
        assert type(got) is list and got == expected[sl], sl
    assert edges[-1] == expected[-1] and edges[-m] == expected[0]
    for bad in (m, m + 1, -m - 1):
        with pytest.raises(IndexError):
            edges[bad]
    with pytest.raises(TypeError):
        hash(edges)
    assert edges != expected[:-1] and edges != expected[:-1] + [(-1,) * S.k]
    assert S.base == OrderedHypergraph(S.n, expected)
    assert OrderedHypergraph(S.n, expected) == S.base


def test_h32_edges_digest():
    # sha256 of every edge of H(3,2) as "a,b,c;" in edge order, computed
    # from the stored edge list the builder made before its edges became a
    # computed sequence
    h = hashlib.sha256()
    for e in build_Hkc(3, 2).base.edges:
        h.update(b"%d,%d,%d;" % e)
    assert h.hexdigest() == "768c3439659408cb0b1ff7c02cb584a2a02c8a76b4eff77ceaa130fda1f1669b"
