"""From rectangles on the mirrored-digit curve to arithmetic progressions.

The curve y = vdc(x) mirrors the binary digits of x across the point, so
an axis-parallel window over embedded integers captures exactly one
residue class mod a power of two — a finite arithmetic progression.
Nested rectangle families translate wholesale: into progressions with
power-of-two differences directly, or with differences drawn from any
stream growing fast enough for the residue bookkeeping to stay solvable.

Run:  python3 demos/04_progressions.py
"""

from chromarect import build_Hkc, realize_Hkc_nested
from chromarect.arithmetic import (
    STREAMS,
    FiniteAP,
    ap_capture_rectangle,
    embed_integers,
    rects_to_D_aps,
    rects_to_pow2_aps,
    van_der_corput,
)

# The mirrored-digit map sends 6 = 110b to 0.011b = 3/8.
for x in (0, 1, 2, 3, 6, 11):
    print(f"vdc({x}) = {van_der_corput(x)}")

# One progression, one window: the capture rectangle for 3, 7 (start 3,
# difference 4) cuts exactly those two values out of the embedded 3..7.
A = FiniteAP(start=3, difference=4, length=2)
V = range(3, 8)
rect = ap_capture_rectangle(A, V)
emb = embed_integers(V)
captured = [int(p.x) for p in emb.points if rect.contains(p)]
assert captured == list(A.members())
print(f"\nwindow {tuple(map(str, rect))} captures {captured} "
      f"(expected {list(A.members())})")

# A whole nested family translates at once.
R = realize_Hkc_nested(build_Hkc(2, 2))

A2 = rects_to_pow2_aps(R)
print(f"\npower-of-two translation: {len(A2.aps)} progressions "
      f"on {len(A2.V)} integers")
for ap in A2.aps[:4]:
    print(f"  start {ap.start}, difference {ap.difference}, length {ap.length}")

# Any difference stream whose next term outgrows 2^level * lcm(previous
# terms) works the same way -- primes, powers of three, or a custom list.
for kind in ("pow2", "primes", "pow3"):
    A = rects_to_D_aps(R, STREAMS[kind])
    diffs = sorted({ap.difference for ap in A.aps})
    print(f"{kind:6s} differences used: {diffs}")
