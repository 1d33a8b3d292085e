"""Build the smallest staged pair instance and watch 2-coloring fail.

The 12-vertex, 14-edge graph is arranged in stages: a root stage of four
vertices, then eight children each tied back to an ancestor by a path
edge, while each block of consecutive children carries an embedded copy
of the previous level acting as transversal edges.  Every 2-coloring
has a monochromatic edge — and not just by exhaustion: a constructive
finder walks the stages and names one.

Run:  python3 demos/01_uncolorable_pairs.py
"""

from itertools import product

from chromarect import Coloring, build_Hkc, find_monochromatic_edge
from chromarect.hypergraph import chromatic_number, is_c_colorable, is_proper_coloring

S = build_Hkc(2, 2)
H = S.base
print(f"instance: {H.n} vertices, {len(H.edges)} edges, all pairs")
print(f"path edges:        {H.edges[:S.n_path_edges]}")
print(f"transversal edges: {H.edges[S.n_path_edges:]}")

# Exhaust all 2^12 colorings: every single one trips over some edge.
proper = sum(
    1
    for bits in product((0, 1), repeat=H.n)
    if all(bits[a] != bits[b] for a, b in H.edges)
)
print(f"proper 2-colorings among all {2 ** H.n}: {proper}")

# Three colors suffice, so the chromatic number is exactly 3.
witness = is_c_colorable(H, 3)
assert witness is not None and is_proper_coloring(H, witness)
print(f"chromatic number: {chromatic_number(H)} (witness {list(witness.colors)})")

# The finder pinpoints a monochromatic edge without scanning the instance.
col = Coloring(2, [v % 2 for v in range(H.n)])
e = find_monochromatic_edge(S, col)
print(f"alternating coloring -> finder returns edge {e} = {H.edges[e]}, "
      f"colors {[col.colors[v] for v in H.edges[e]]}")

# The same finder scales to the three-uniform instance with 1.77M
# vertices; the acceptance suite (criterion 2) runs it on 100 random
# colorings of that instance in a couple of seconds.
