"""Tests for the core hypergraph module.

Oracles used here:
  * exhaustive scans over all colorings for small instances,
  * a direct BFS graph-girth routine for 2-uniform cross-checks,
  * brute-force monochromatic-edge scans.
"""

from __future__ import annotations

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from chromarect import hypergraph
from chromarect.construction import build_Gcg, build_Hkc
from chromarect.errors import DomainError, NodeBudgetExceeded
from chromarect.hypergraph import (
    Coloring,
    CyclesReport,
    Infinite,
    OrderedHypergraph,
    chromatic_number,
    edge_multiset_equal,
    hypergraph_girth,
    is_c_colorable,
    is_proper_coloring,
    naive_monochromatic_edge,
)


def cycle_graph(n: int) -> OrderedHypergraph:
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return OrderedHypergraph(n, edges)


# ---------------------------------------------------------------------------
# OrderedHypergraph basics


def test_edges_are_canonicalized():
    H = OrderedHypergraph(5, [[3, 1, 1, 2], [4, 0]])
    assert H.edges == [(1, 2, 3), (0, 4)]


def test_out_of_range_edge_rejected():
    with pytest.raises(DomainError):
        OrderedHypergraph(3, [[0, 3]])
    with pytest.raises(DomainError):
        OrderedHypergraph(3, [[-1, 0]])


def test_json_round_trip():
    H = OrderedHypergraph(4, [[0, 1, 2], [1, 3], []])
    assert OrderedHypergraph.from_json_dict(H.to_json_dict()) == H


# ---------------------------------------------------------------------------
# is_proper_coloring / naive_monochromatic_edge


def test_single_edge_monochromatic():
    H = OrderedHypergraph(3, [[0, 1, 2]])
    assert is_proper_coloring(H, Coloring(1, (0, 0, 0))) is False
    assert is_proper_coloring(H, Coloring(2, (0, 0, 1))) is True


def test_no_edges_vacuously_proper():
    H = OrderedHypergraph(4, [])
    assert is_proper_coloring(H, Coloring(1, (0, 0, 0, 0))) is True


def test_small_edges_are_monochromatic_by_convention():
    H1 = OrderedHypergraph(2, [[0]])
    assert is_proper_coloring(H1, Coloring(2, (0, 1))) is False
    H0 = OrderedHypergraph(2, [[]])
    assert is_proper_coloring(H0, Coloring(2, (0, 1))) is False


def test_naive_finder_picks_smallest_index():
    H = OrderedHypergraph(3, [[0, 1], [1, 2]])
    assert naive_monochromatic_edge(H, Coloring(2, (0, 1, 1))) == 1
    assert naive_monochromatic_edge(OrderedHypergraph(2, [[0, 1]]), Coloring(2, (0, 1))) is None


def test_coloring_validation():
    H = OrderedHypergraph(3, [[0, 1, 2]])
    with pytest.raises(DomainError):
        is_proper_coloring(H, Coloring(2, (0, 1)))  # wrong length
    with pytest.raises(DomainError):
        is_proper_coloring(H, Coloring(2, (0, 1, 2)))  # color id >= c


def test_bytes_backed_coloring_supported():
    H = OrderedHypergraph(3, [[0, 1, 2]])
    assert is_proper_coloring(H, Coloring(2, bytes([0, 0, 1])))


# ---------------------------------------------------------------------------
# is_c_colorable / chromatic_number


def test_single_triple_edge_two_colorable():
    H = OrderedHypergraph(3, [[0, 1, 2]])
    col = is_c_colorable(H, 2)
    assert col is not None
    assert is_proper_coloring(H, col)


def test_odd_cycle_not_two_colorable():
    assert is_c_colorable(cycle_graph(5), 2) is None
    assert chromatic_number(cycle_graph(5)) == 3


def test_edgeless_chromatic_number_is_one():
    assert chromatic_number(OrderedHypergraph(4, [])) == 1


def test_chromatic_number_rejects_tiny_edges():
    with pytest.raises(DomainError):
        chromatic_number(OrderedHypergraph(2, [[]]))
    with pytest.raises(DomainError):
        chromatic_number(OrderedHypergraph(2, [[0]]))


def test_tiny_edge_never_colorable():
    H = OrderedHypergraph(2, [[0]])
    assert is_c_colorable(H, 5) is None


def test_node_budget_is_enforced():
    # K_4 needs 4 colors; proving 3 is impossible takes more than two nodes.
    K4 = OrderedHypergraph(4, list(itertools.combinations(range(4), 2)))
    with pytest.raises(NodeBudgetExceeded):
        is_c_colorable(K4, 3, node_budget=2)


def test_returned_coloring_is_deterministic():
    H = cycle_graph(6)
    a = is_c_colorable(H, 2)
    b = is_c_colorable(H, 2)
    assert a == b
    assert a.colors[0] == 0  # first vertex pinned


# ---------------------------------------------------------------------------
# girth


def test_two_overlapping_triples_have_girth_two():
    H = OrderedHypergraph(4, [[0, 1, 2], [1, 2, 3]])
    rep = hypergraph_girth(H)
    assert rep.girth == 2


def test_cycle_graph_girth():
    rep = hypergraph_girth(cycle_graph(5))
    assert rep.girth == 5
    vs, es = rep.witness
    assert len(vs) == 5 and len(es) == 5


def test_acyclic_girth_is_infinite():
    tree = OrderedHypergraph(4, [[0, 1], [0, 2], [2, 3]])
    rep = hypergraph_girth(tree)
    assert rep.girth == Infinite
    assert rep.witness is None
    assert rep.to_json_dict() == {"girth": "Infinite", "witness": None}


def test_duplicate_edges_give_girth_two():
    H = OrderedHypergraph(2, [[0, 1], [0, 1]])
    assert hypergraph_girth(H).girth == 2


def test_girth_witness_is_canonical_golden():
    # Two 4-cycles sharing the vertex 0; BFS sees both, the witness must be
    # the lexicographically smallest canonical form.
    H = OrderedHypergraph(
        7,
        [[0, 1], [1, 2], [2, 3], [0, 3], [0, 4], [4, 5], [5, 6], [0, 6]],
    )
    rep = hypergraph_girth(H)
    assert rep.girth == 4
    assert rep.witness == ((0, 1, 2, 3), (0, 1, 2, 3))


def witness_is_valid(H: OrderedHypergraph, rep: CyclesReport) -> bool:
    vs, es = rep.witness
    g = len(vs)
    if g != len(es) or g != rep.girth:
        return False
    if len(set(vs)) != g or len(set(es)) != g:
        return False
    for i in range(g):
        e = H.edges[es[i]]
        if vs[i] not in e or vs[(i + 1) % g] not in e:
            return False
    return True


def graph_girth_bfs(n: int, edges: list) -> float:
    """Direct graph-girth oracle: BFS from every vertex over plain adjacency."""
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    best = math.inf
    for root in range(n):
        dist = {root: 0}
        via = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v, eid in adj[u]:
                    if eid == via[u]:
                        continue
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        via[v] = eid
                        nxt.append(v)
                    else:
                        best = min(best, dist[u] + dist[v] + 1)
            frontier = nxt
    return best


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_girth_matches_direct_graph_bfs(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    possible = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(possible), min_size=0, max_size=18))
    H = OrderedHypergraph(n, edges)
    rep = hypergraph_girth(H)
    # Parallel copies of one pair are a 2-cycle for the hypergraph notion but
    # invisible to the simple-graph oracle, so collapse them for comparison.
    if len(set(H.edges)) != len(H.edges):
        assert rep.girth == 2
    else:
        assert rep.girth == graph_girth_bfs(n, H.edges)
    if rep.girth != Infinite:
        assert witness_is_valid(H, rep)


def _canonical_witness_all_rotations(cycle_nodes, n):
    """The O(L²) reference: every rotation that starts at a vertex node, in
    both directions, and the lexicographically smallest form among them."""
    size = len(cycle_nodes)
    best = None
    for direction in (1, -1):
        nodes = cycle_nodes if direction == 1 else cycle_nodes[::-1]
        for start in range(size):
            if nodes[start] >= n:
                continue
            rotated = nodes[start:] + nodes[:start]
            cand = (tuple(rotated[0::2]), tuple(x - n for x in rotated[1::2]))
            if best is None or cand < best:
                best = cand
    return best


def _girth_checked_against_reference(H: OrderedHypergraph):
    """hypergraph_girth(H), asserting that every cycle it canonicalizes
    gets the reference's form.  Returns (report, cycles checked)."""
    linear = hypergraph._canonical_witness
    seen = []

    def both(cycle_nodes, n):
        seen.append(cycle_nodes)
        got = linear(cycle_nodes, n)
        assert got == _canonical_witness_all_rotations(cycle_nodes, n), cycle_nodes
        return got

    with mock.patch.object(hypergraph, "_canonical_witness", both):
        rep = hypergraph_girth(H)
    return rep, len(seen)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_Gcg(2, 5),
        lambda: build_Gcg(2, 7),
        lambda: build_Gcg(2, 9),
        lambda: build_Gcg(2, 51),
        lambda: build_Gcg(2, 71),
        lambda: build_Hkc(2, 2),
        lambda: build_Hkc(3, 1),
    ],
    ids=["G(2,5)", "G(2,7)", "G(2,9)", "G(2,51)", "G(2,71)", "H(2,2)", "H(3,1)"],
)
def test_linear_witness_matches_all_rotations_on_built_instances(build):
    H = build().base
    rep, seen = _girth_checked_against_reference(H)
    assert bool(seen) == (rep.girth != Infinite)
    if seen:
        assert witness_is_valid(H, rep)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4)),
                max_size=12,
            ),
        )
    )
)
def test_linear_witness_matches_all_rotations_on_random_hypergraphs(nh):
    n, edges = nh
    H = OrderedHypergraph(n, edges)
    rep, _ = _girth_checked_against_reference(H)
    if rep.girth != Infinite:
        assert witness_is_valid(H, rep)


def _girth_sweep_tracing_both_ends(H: OrderedHypergraph) -> CyclesReport:
    """The former Itai–Rodeh sweep, frozen as the reference: it traces a
    closing edge from each of its ends (the module's adjacency, tracing and
    canonical-form helpers are shared)."""
    n = H.n
    adj = hypergraph._incidence_adjacency(H)
    total = len(adj)
    best_len = None
    best_witness = None
    dist = [-1] * total
    parent = [-1] * total
    stamp = [0] * total
    run = 0
    for root in range(n):
        if not adj[root]:
            continue
        run += 1
        dist[root] = 0
        parent[root] = -1
        stamp[root] = run
        frontier = [root]
        d = 0
        while frontier:
            if best_len is not None and 2 * d > best_len:
                break
            nxt = []
            for u in frontier:
                du = dist[u]
                for w in adj[u]:
                    if stamp[w] != run:
                        stamp[w] = run
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent[w] != u:
                        cyc = hypergraph._trace_cycle(parent, u, w)
                        clen = len(cyc)
                        if best_len is None or clen < best_len:
                            best_len = clen
                            best_witness = hypergraph._canonical_witness(cyc, n)
                        elif clen == best_len:
                            cand = hypergraph._canonical_witness(cyc, n)
                            if cand < best_witness:
                                best_witness = cand
            frontier = nxt
            d += 1
    if best_len is None:
        return CyclesReport(Infinite, None)
    return CyclesReport(best_len // 2, best_witness)


@st.composite
def _uniform_hypergraphs(draw):
    """1–14 vertices, uniformity 1–3, possibly no edges, possibly repeats."""
    n = draw(st.integers(1, 14))
    k = draw(st.integers(1, min(3, n)))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=k, max_size=k), max_size=20))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    return OrderedHypergraph(n, edges)


@settings(max_examples=300, deadline=None)
@given(_uniform_hypergraphs())
def test_girth_sweep_matches_frozen_sweep_on_random_hypergraphs(H):
    rep, ref = hypergraph_girth(H), _girth_sweep_tracing_both_ends(H)
    assert (rep.girth, rep.witness) == (ref.girth, ref.witness)


@pytest.mark.parametrize("g", [5, 7, 9, 51, 71, 101, 201])
def test_girth_sweep_matches_frozen_sweep_on_girth_instances(g):
    H = build_Gcg(2, g).base
    rep, ref = hypergraph_girth(H), _girth_sweep_tracing_both_ends(H)
    assert (rep.girth, rep.witness) == (ref.girth, ref.witness)


@st.composite
def _sparse_hypergraphs(draw):
    """A random forest on 1–20 vertices plus 0–3 extra edges of size 2–3,
    so that most components hold at most one cycle.  Vertex ids are
    shuffled, so components interleave; a vertex may stay isolated, and an
    empty edge may ride along."""
    n = draw(st.integers(1, 20))
    ids = draw(st.permutations(range(n)))
    edges = []
    for i in range(1, n):
        j = draw(st.integers(-1, i - 1))  # -1: vertex i starts a new tree
        if j >= 0:
            edges.append((ids[j], ids[i]))
    if n >= 2:
        extra = st.sets(st.integers(0, n - 1), min_size=2, max_size=min(3, n))
        edges += draw(st.lists(extra, max_size=3))
    edges += [()] * draw(st.integers(0, 1))
    return OrderedHypergraph(n, draw(st.permutations(edges)))


@settings(max_examples=300, deadline=None)
@given(_sparse_hypergraphs())
# isolated vertices, an empty edge and a doubled edge
@example(OrderedHypergraph(6, [[], [1, 4], [1, 4]]))
# pendant trees hanging off a 4-cycle, and an acyclic component before it
@example(OrderedHypergraph(10, [[0, 9], [1, 2], [2, 3], [3, 4], [1, 4], [3, 5], [5, 6], [5, 8], [2, 7]]))
# a 6-cycle on even ids, then a triangle in a component of higher ids
@example(
    OrderedHypergraph(
        15, [[0, 2], [2, 4], [4, 6], [6, 8], [8, 10], [0, 10], [11, 13], [13, 14], [11, 14], [1, 11]]
    )
)
# two triangles in one component (cycle rank 2) next to a 3-uniform cycle
@example(OrderedHypergraph(9, [[0, 3], [3, 5], [0, 5], [5, 7], [7, 8], [5, 8], [1, 2, 4], [2, 4, 6]]))
def test_girth_sweep_matches_frozen_sweep_on_sparse_hypergraphs(H):
    rep, ref = hypergraph_girth(H), _girth_sweep_tracing_both_ends(H)
    assert (rep.girth, rep.witness) == (ref.girth, ref.witness)


def test_girth_sweep_traces_a_lone_cycle_once():
    # G(2, 71) is one cycle of 213 vertices: the frozen sweep searches from
    # every vertex and traces it 213 times or more, this sweep once
    calls = []
    trace = hypergraph._trace_cycle

    def counted(parent, u, w):
        calls.append((u, w))
        return trace(parent, u, w)

    with mock.patch.object(hypergraph, "_trace_cycle", counted):
        rep = hypergraph_girth(build_Gcg(2, 71).base)
    assert rep.girth == 213
    assert 1 <= len(calls) <= 2


def _over_budget_steps(H: OrderedHypergraph, bound: int) -> int:
    """The steps hypergraph_girth reports when its budget is one short of
    ``bound``, after checking that ``bound`` itself is enough."""
    hypergraph_girth(H, node_budget=bound)
    with pytest.raises(NodeBudgetExceeded) as info:
        hypergraph_girth(H, node_budget=bound - 1)
    assert info.value.details["node_budget"] == bound - 1
    return info.value.details["steps"]


def test_girth_bound_of_a_connected_input_of_rank_two_or_more():
    H = build_Hkc(2, 2).base  # connected, with many cycles
    n, m = H.n, len(H.edges)
    bound = n * (n + m + sum(map(len, H.edges)))
    assert _over_budget_steps(H, bound) == bound


def test_girth_bound_charges_a_cut_one_cycle_component_at_every_root():
    # A triangle first, then a 41-cycle reached through a 10-vertex path,
    # with K pendant leaves on one cycle vertex.  Once the triangle is
    # known, every search of the second component is cut at depth 4, long
    # before its cycle, so each of its roots searches.
    K = 5
    triangle = [(0, 1), (1, 2), (0, 2)]
    path = [(v, v + 1) for v in range(3, 13)]  # vertices 3..12, then into the cycle
    cycle = [(v, v + 1) for v in range(13, 53)] + [(13, 53)]
    leaves = [(33, 54 + i) for i in range(K)]
    H = OrderedHypergraph(54 + K, triangle + path + cycle + leaves)
    n_c, m_c = 10 + 41 + K, len(path) + len(cycle) + K
    # size_c is nodes plus arcs: 3 + 3 + 6 for the triangle, searched once
    bound = 12 * 1 + (n_c + m_c + 2 * m_c) * n_c
    assert _over_budget_steps(H, bound) == bound

    traced = []
    trace = hypergraph._trace_cycle

    def recorded(parent, u, w):
        traced.append(trace(parent, u, w))
        return traced[-1]

    with mock.patch.object(hypergraph, "_trace_cycle", recorded):
        rep = hypergraph_girth(H, node_budget=bound)
    assert rep.girth == 3
    n = H.n
    assert traced and all(set(c) <= {0, 1, 2, n, n + 1, n + 2} for c in traced)


def _frozen_component_steps(H: OrderedHypergraph) -> int:
    """The step bound as the former component pass found it: one search
    over the incidence adjacency per component, in order of lowest vertex,
    frozen as the reference for the union-find pass."""
    n = H.n
    adj = hypergraph._incidence_adjacency(H)
    comp = [-1] * len(adj)
    steps = 0
    for s in range(n):
        if comp[s] != -1:
            continue
        comp[s] = s
        stack, nodes, ends, verts = [s], 0, 0, 0
        while stack:
            u = stack.pop()
            nodes += 1
            verts += u < n
            ends += len(adj[u])
            for w in adj[u]:
                if comp[w] == -1:
                    comp[w] = s
                    stack.append(w)
        rank = ends // 2 - nodes + 1
        if rank:
            steps += (nodes + ends // 2) * (1 if rank == 1 and not steps else verts)
    return steps


@settings(max_examples=300, deadline=None)
@given(st.one_of(_uniform_hypergraphs(), _sparse_hypergraphs()))
@example(OrderedHypergraph(6, [[], [1, 4], [1, 4]]))
@example(OrderedHypergraph(9, [[0, 3], [3, 5], [0, 5], [5, 7], [7, 8], [5, 8], [1, 2, 4], [2, 4, 6]]))
def test_girth_bound_equals_frozen_component_pass(H):
    want = _frozen_component_steps(H)
    hypergraph_girth(H, node_budget=want)
    if want:
        with pytest.raises(NodeBudgetExceeded) as info:
            hypergraph_girth(H, node_budget=want - 1)
        assert info.value.details["steps"] == want


def test_girth_refusal_comes_before_the_adjacency():
    # H(2, 2) is charged n·(n + m + Σ|e|) = 12 · 54; the refusal must not
    # need the search's adjacency, and within budget the search builds it
    H = build_Hkc(2, 2).base
    with mock.patch.object(hypergraph, "_incidence_adjacency", side_effect=AssertionError):
        with pytest.raises(NodeBudgetExceeded):
            hypergraph_girth(H, node_budget=12 * 54 - 1)
        with pytest.raises(AssertionError):
            hypergraph_girth(H, node_budget=12 * 54)


# ---------------------------------------------------------------------------
# property tests from the module contract


small_hypergraphs = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=n),
            max_size=10,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(small_hypergraphs, st.data())
def test_proper_iff_no_naive_mono_edge(nh, data):
    n, edges = nh
    H = OrderedHypergraph(n, edges)
    c = data.draw(st.integers(min_value=1, max_value=3))
    colors = tuple(
        data.draw(st.integers(min_value=0, max_value=c - 1)) for _ in range(n)
    )
    col = Coloring(c, colors)
    assert is_proper_coloring(H, col) == (naive_monochromatic_edge(H, col) is None)


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs, st.data())
def test_chromatic_number_monotone_under_edge_addition(nh, data):
    n, edges = nh
    H = OrderedHypergraph(n, edges)
    extra = data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=n)
    )
    bigger = OrderedHypergraph(n, list(H.edges) + [tuple(sorted(extra))])
    assert chromatic_number(bigger) >= chromatic_number(H)


@settings(max_examples=100, deadline=None)
@given(small_hypergraphs)
def test_is_c_colorable_agrees_with_exhaustive_scan(nh):
    n, edges = nh
    H = OrderedHypergraph(n, edges)
    for c in (1, 2):
        found = is_c_colorable(H, c)
        brute = any(
            is_proper_coloring(H, Coloring(c, combo))
            for combo in itertools.product(range(c), repeat=n)
        )
        assert (found is not None) == brute
        if found is not None:
            assert is_proper_coloring(H, found)


def test_edge_multiset_equality():
    H1 = OrderedHypergraph(4, [[0, 1], [2, 3], [0, 1]])
    H2 = OrderedHypergraph(4, [[2, 3], [0, 1], [0, 1]])
    H3 = OrderedHypergraph(4, [[2, 3], [0, 1]])
    assert edge_multiset_equal(H1, H2)
    assert not edge_multiset_equal(H1, H3)
    with pytest.raises(DomainError):
        edge_multiset_equal(H1, OrderedHypergraph(5, []))


def test_girth_on_random_multiedge_instances():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(2, 9)
        edges = [
            sorted(rng.sample(range(n), rng.randrange(2, min(4, n) + 1)))
            for _ in range(rng.randrange(0, 8))
        ]
        rep = hypergraph_girth(OrderedHypergraph(n, edges))
        if rep.girth != Infinite:
            assert rep.girth >= 2
            assert witness_is_valid(OrderedHypergraph(n, edges), rep)
