"""Graphs with no short cycles that still need three colors.

The odd-cycle-free construction glues long odd cycles onto a tree so the
result has girth at least g yet stays non-2-colorable.  Realized as
points and rectangles, it shows that even "locally tree-like" incidence
patterns can force a third color.

Run:  python3 demos/03_high_girth.py
"""

from chromarect import build_Gcg, chromatic_number, hypergraph_girth
from chromarect.geometry import realize_Gcg, verify_realization

for g in (5, 7, 9):
    S = build_Gcg(2, g)
    H = S.base
    report = hypergraph_girth(H)
    chi = chromatic_number(H)
    print(f"g={g}: {H.n:4d} vertices, {len(H.edges):4d} edges, "
          f"girth {report.girth}, chromatic number {chi}")
    assert int(report.girth) >= g
    assert chi == 3

    R = realize_Gcg(S)
    verify_realization(R)  # raises if any rectangle misses its edge
    print(f"      realized on {len(R.points)} curve points, "
          f"{len(R.rects)} rectangles, incidences verified")
