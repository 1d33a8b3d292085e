"""Independent checks of the program's outputs.

Every check here reads plain data (parsed JSON, lists, Fractions) and
decides by brute force or by a different algorithm than the program
uses.  None of them calls the program.  Each raises ``Rejected`` with a
reason when the output is wrong.
"""

from __future__ import annotations

import xml.etree.ElementTree as ElementTree
from collections import deque
from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple


class Rejected(Exception):
    """An output failed its oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Rejected(message)


def points_of(payload: dict) -> List[Tuple[Fraction, Fraction]]:
    return [(Fraction(x), Fraction(y)) for x, y in payload["points"]]


def rects_of(payload: dict) -> List[Tuple[Fraction, ...]]:
    return [tuple(Fraction(v) for v in r) for r in payload["rects"]]


def ratios(points: Sequence) -> List[Tuple[int, int, int, int]]:
    """Points as (x numerator, x denominator, y numerator, y denominator)."""
    return [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in points]


def members(points: Sequence, rect: Sequence) -> Set[int]:
    """Indices of the points (given as ``ratios``) inside the closed box,
    comparing every point by integer cross-multiplication (denominators
    are positive)."""
    (a, b), (c, d), (e, f), (g, h) = [(Fraction(v).numerator, Fraction(v).denominator) for v in rect]
    return {
        i
        for i, (xn, xd, yn, yd) in enumerate(points)
        if a * xd <= xn * b and xn * d <= c * xd and e * yd <= yn * f and yn * h <= g * yd
    }


def check_counts(n: int, edges: Sequence, want_n: int, want_edges: int, size: int) -> None:
    expect(n == want_n, f"{n} vertices, expected {want_n}")
    expect(len(edges) == want_edges, f"{len(edges)} edges, expected {want_edges}")
    expect(all(len(e) == size for e in edges), f"an edge is not of size {size}")


def check_monochromatic(edge_vertices: Sequence[int], colors: Sequence[int]) -> int:
    """The edge's members all carry one color; returns that color."""
    expect(len(edge_vertices) > 0, "empty edge")
    shades = {colors[v] for v in edge_vertices}
    expect(len(shades) == 1, f"edge {list(edge_vertices)} has colors {sorted(shades)}")
    return shades.pop()


def check_realization(real: dict, hyper: dict, nested: bool) -> None:
    """Every rectangle holds exactly its edge's points (all rectangles)."""
    points, rects = ratios(points_of(real)), rects_of(real)
    edges = hyper["edges"]
    expect(len(points) == hyper["n"], "point count differs from vertex count")
    expect(
        sorted(real["edge_of_rect"]) == list(range(len(edges))),
        "edge_of_rect is not a bijection onto the edges",
    )
    for r, e in enumerate(real["edge_of_rect"]):
        expect(members(points, rects[r]) == set(edges[e]), f"rectangle {r} misses edge {e}")
    if nested:
        ivs = [(r[2], r[3]) for r in rects]
        for a_lo, a_hi in ivs:
            for b_lo, b_hi in ivs:
                disjoint = a_hi <= b_lo or b_hi <= a_lo
                inside = (a_lo <= b_lo and b_hi <= a_hi) or (b_lo <= a_lo and a_hi <= b_hi)
                expect(disjoint or inside, "y-projections are not laminar")


def check_svg(data: bytes, n_points: int, n_rects: int) -> None:
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise Rejected(f"SVG is not well-formed: {exc}")
    tags = [el.tag.rsplit("}", 1)[-1] for el in root]
    expect(tags.count("circle") == n_points, "SVG point count is wrong")
    expect(tags.count("rect") == n_rects, "SVG rectangle count is wrong")


def _ranks(values: Sequence) -> List[int]:
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = [0] * len(values)
    for pos, i in enumerate(order):
        rank[i] = pos
    return rank


def cover_pairs(points: Sequence) -> Set[Tuple[int, int]]:
    """Cover pairs (i < j) of the dominance order.  For each point p the
    points above-right of p are swept in x order; one is a cover exactly
    when its y is below every earlier one's, since an earlier point with a
    smaller y would sit strictly between."""
    xr = _ranks([p[0] for p in points])
    yr = _ranks([p[1] for p in points])
    by_x = sorted(range(len(points)), key=xr.__getitem__)
    pairs = set()
    for p in range(len(points)):
        lowest = len(points)
        for q in by_x:
            if xr[q] > xr[p] and yr[q] > yr[p]:
                if yr[q] < lowest:
                    pairs.add((min(p, q), max(p, q)))
                    lowest = yr[q]
    return pairs


def check_hasse(points: Sequence, payload: dict) -> None:
    expect(payload["n"] == len(points), "Hasse vertex count differs from point count")
    got = {tuple(sorted(e)) for e in payload["edges"]}
    expect(len(got) == len(payload["edges"]), "repeated Hasse pair")
    want = cover_pairs(points)
    expect(got <= want, f"not dominance covers: {sorted(got - want)[:3]}")
    expect(want <= got, f"missing covers: {sorted(want - got)[:3]}")


def longest_mono_chain(points: Sequence, colors: Sequence[int]) -> int:
    """Longest chain of same-colored points joined by cover pairs."""
    covers = cover_pairs(points)
    up: Dict[int, List[int]] = {i: [] for i in range(len(points))}
    for a, b in covers:
        lo, hi = (a, b) if points[a][0] < points[b][0] else (b, a)
        if colors[lo] == colors[hi]:
            up[lo].append(hi)
    best = [1] * len(points)
    for v in sorted(range(len(points)), key=lambda i: points[i][0], reverse=True):
        for w in up[v]:
            best[v] = max(best[v], 1 + best[w])
    return max(best, default=0)


def check_mono_path(points: Sequence, colors: Sequence[int], k: int, path) -> None:
    if path is None:
        expect(longest_mono_chain(points, colors) < k, f"a chain of {k} exists")
        return
    expect(len(path) == k, "path length differs from k")
    check_monochromatic(path, colors)
    covers = cover_pairs(points)
    for a, b in zip(path, path[1:]):
        expect(points[a][0] < points[b][0] and points[a][1] < points[b][1], "path not increasing")
        expect((min(a, b), max(a, b)) in covers, "consecutive path points are not a cover")


def _adjacency(n: int, edges: Sequence) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def bipartite(n: int, edges: Sequence) -> bool:
    adj = _adjacency(n, edges)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def graph_girth(n: int, edges: Sequence) -> float:
    """Shortest cycle of a simple graph: BFS from every vertex, closing a
    cycle at each non-tree edge; the minimum over roots is exact."""
    adj = _adjacency(n, edges)
    best = float("inf")
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] + 1 >= best:
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def check_girth(hyper: dict, payload: dict, at_least: int) -> None:
    """Girth of a 2-uniform instance, its witness cycle, and the promise."""
    edges = hyper["edges"]
    want = graph_girth(hyper["n"], edges)
    if want == float("inf"):
        expect(payload["girth"] == "Infinite" and payload["witness"] is None, "acyclic graph")
        return
    g = payload["girth"]
    expect(g == want, f"girth {g}, expected {want}")
    expect(g >= at_least, f"girth {g} below the requested {at_least}")
    vs, es = payload["witness"]["vertices"], payload["witness"]["edges"]
    expect(len(vs) == g == len(es), "witness length differs from the girth")
    expect(len(set(vs)) == g and len(set(es)) == g, "witness repeats a vertex or edge")
    for i in range(g):
        e = edges[es[i]]
        expect(vs[i] in e and vs[(i + 1) % g] in e, "witness breaks an incidence")


def check_chromatic(hyper: dict, payload: dict) -> None:
    """Chromatic number 3 of a 2-uniform instance: a proper 3-coloring
    witness, and no 2-coloring (the graph is not bipartite)."""
    k = payload["chromatic_number"]
    colors = payload["witness"]["colors"]
    expect(k == 3, f"chromatic number {k}, expected 3")
    expect(len(colors) == hyper["n"] and all(0 <= x < k for x in colors), "witness palette")
    for a, b in hyper["edges"]:
        expect(colors[a] != colors[b], f"witness colors edge {(a, b)} monochromatically")
    expect(not bipartite(hyper["n"], hyper["edges"]), "graph is 2-colorable")


def check_progressions(real: dict, payload: dict) -> None:
    """Each progression meets the value set exactly in its rectangle's
    members' values, decided by set arithmetic on the integers."""
    points, rects = points_of(real), rects_of(real)
    boxed = ratios(points)
    V = [int(v) for v in payload["V"]]
    expect(len(V) == len(points), "one value per point expected")
    expect(all(a < b for a, b in zip(V, V[1:])), "values are not strictly increasing")
    xr = _ranks([p[0] for p in points])
    rect_of_edge = {e: r for r, e in enumerate(real["edge_of_rect"])}
    seen = set()
    for ap in payload["aps"]:
        start, d, length, e = int(ap["start"]), int(ap["difference"]), ap["length"], ap["edge"]
        expect(d > 0 and length > 0, "degenerate progression")
        expect(e not in seen, f"edge {e} has two progressions")
        seen.add(e)
        last = start + d * (length - 1)
        got = {v for v in V if start <= v <= last and (v - start) % d == 0}
        want = {V[xr[i]] for i in members(boxed, rects[rect_of_edge[e]])}
        expect(got == want, f"progression of edge {e} captures the wrong values")
    expect(seen == set(real["edge_of_rect"]), "an edge has no progression")
