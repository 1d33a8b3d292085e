"""From rectangles to arithmetic progressions, exactly.

The bridge runs through the van der Corput sequence: embedding integers n
as points (n, a_n) turns congruence classes mod 2^t into horizontal strips
of height 2^{-t}, so axis-parallel rectangles and power-of-two progressions
capture the same subsets.  For an arbitrary infinite difference set D the
same translation works after three extra steps: a growth subsequence
(each term beyond twice-the-previous-scale), residue trees built with the
general Chinese remainder theorem, and point values read off the tree's
leaf solutions.

Everything is exact integer/rational arithmetic; every translation
re-verifies its own output (captured sets recomputed from scratch) before
returning.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, StreamExhausted, VerificationError
from .geometry import (
    BoxIndex,
    Point2,
    Realization,
    Rect,
    _check_general_position,
    extend_to_perfect_nested,
    make_rect,
    y_projections,
)
from .hypergraph import OrderedHypergraph


# ---------------------------------------------------------------------------
# van der Corput embedding


def bit_reverse(n: int, width: Optional[int] = None) -> int:
    """Reverse the low `width` bits of n (default: n's own bit length)."""
    if n < 0:
        raise DomainError("bit_reverse needs a nonnegative integer", n=n)
    w = n.bit_length() if width is None else width
    if n >> w:
        raise DomainError("value does not fit the requested width", n=n, width=w)
    r = 0
    for _ in range(w):
        r = (r << 1) | (n & 1)
        n >>= 1
    return r


def van_der_corput(n: int) -> Fraction:
    """The n-th term: write n in binary and mirror the digits across the
    point, giving a dyadic rational in [0, 1)."""
    if n < 0:
        raise DomainError("sequence index must be nonnegative", n=n)
    b = n.bit_length()
    return Fraction(bit_reverse(n, b), 1 << b)


class EmbeddedPoints(NamedTuple):
    points: List[Point2]
    offset: int


def embed_integers(V: Iterable[int]) -> EmbeddedPoints:
    """Points (n, a_n) for n in V, sorted by n.  Negative inputs are first
    translated up by a recorded offset so the sequence index is valid."""
    vals = sorted(set(V))
    if not vals:
        raise DomainError("cannot embed an empty set")
    offset = -vals[0] if vals[0] < 0 else 0
    pts = [Point2(Fraction(n + offset), van_der_corput(n + offset)) for n in vals]
    return EmbeddedPoints(pts, offset)


# ---------------------------------------------------------------------------
# finite progressions


@dataclass(frozen=True)
class FiniteAP:
    """The set {start + i*difference : 0 <= i < length}."""

    start: int
    difference: int
    length: int

    def __post_init__(self):
        if self.difference < 1:
            raise DomainError("difference must be >= 1", difference=self.difference)
        if self.length < 1:
            raise DomainError("length must be >= 1", length=self.length)

    @property
    def last(self) -> int:
        return self.start + (self.length - 1) * self.difference

    def members(self) -> range:
        return range(self.start, self.last + 1, self.difference)

    def __contains__(self, n: int) -> bool:
        return n in self.members()


def ap_capture_rectangle(A: FiniteAP, V: Iterable[int]) -> Rect:
    """A closed rectangle that cuts exactly A ∩ V out of the embedded
    points of V, for power-of-two differences: x spans A's extent, y is the
    congruence strip [a_b, a_b + 2^-t) with its open top pulled in by half
    a grid step so the closed box excludes the next admissible value."""
    d = A.difference
    if d & (d - 1):
        raise DomainError("difference must be a power of two", difference=d)
    vals = sorted(set(V))
    if not vals:
        raise DomainError("V must be nonempty")
    if vals[0] < 0:
        raise DomainError("V must be offset to nonnegative integers first")
    t = d.bit_length() - 1
    T = max(n.bit_length() for n in vals)
    a_b = van_der_corput(A.start % d)
    margin = Fraction(1, 1 << (max(T, t) + 1))
    return make_rect(
        Fraction(A.start), Fraction(A.last), a_b, a_b + Fraction(1, d) - margin
    )


def ap_incidence_hypergraph(
    V: Sequence[int], aps: Sequence[FiniteAP]
) -> OrderedHypergraph:
    """One edge per progression: the ranks (in V's numeric order) of the
    members it hits.  Progressions missing V entirely yield empty edges,
    kept but flagged."""
    V = list(V)
    if any(a >= b for a, b in zip(V, V[1:])):
        raise DomainError("V must be strictly increasing")
    edges = []
    empties = []
    for j, A in enumerate(aps):
        mem = tuple(k for k, n in enumerate(V) if n in A)
        if not mem:
            empties.append(j)
        edges.append(mem)
    if empties:
        warnings.warn(f"progressions capturing nothing: {empties}", stacklevel=2)
    return OrderedHypergraph(len(V), edges)


# ---------------------------------------------------------------------------
# modular machinery


class ResidueClass(NamedTuple):
    residue: int
    modulus: int


def solve_modular_system(
    system: Iterable[Tuple[int, int]]
) -> Optional[ResidueClass]:
    """Merge congruences pairwise: x ≡ r1 (m1) and x ≡ r2 (m2) are jointly
    solvable iff r1 ≡ r2 mod gcd(m1, m2), with merged modulus lcm(m1, m2).
    Returns the combined class, or None when the system has no solution."""
    r, M = 0, 1
    for ri, mi in system:
        if mi < 1:
            raise DomainError("modulus must be >= 1", modulus=mi)
        ri %= mi
        g = gcd(M, mi)
        if (ri - r) % g:
            return None
        step = mi // g
        t = ((ri - r) // g * pow(M // g, -1, step)) % step if step > 1 else 0
        M2 = M // g * mi
        r = (r + M * t) % M2
        M = M2
    return ResidueClass(r, M)


def extension_residues(cls: Tuple[int, int], d_next: int) -> range:
    """All residues rho mod d_next for which adding x ≡ rho (d_next) keeps
    the class (r, L) solvable: exactly those with rho ≡ r mod gcd(L,
    d_next), in increasing order — d_next/gcd of them.  Returned as a lazy
    range: the candidate count grows with d_next, and greedy consumers only
    probe a prefix."""
    r, L = cls
    if L < 1 or d_next < 1:
        raise DomainError("moduli must be >= 1")
    g = gcd(L, d_next)
    return range(r % g, d_next, g)


# ---------------------------------------------------------------------------
# difference sequences and residue trees


@dataclass(frozen=True)
class DifferenceSequence:
    """Terms picked from a difference set so each exceeds 2^(i-1) times the
    lcm of its predecessors; lcms[i] = lcm(terms[:i+1])."""

    terms: Tuple[int, ...]
    lcms: Tuple[int, ...]

    def check_growth(self) -> None:
        L = 1
        for j, d in enumerate(self.terms):
            if d <= (1 << j) * L:
                raise VerificationError(
                    "growth inequality violated", index=j, term=d, bound=(1 << j) * L
                )
            L = lcm(L, d)
            if L != self.lcms[j]:
                raise VerificationError("running lcm mismatch", index=j)


def _first_greater(D):
    """D's lookup of its least element above a bound: a stream's own
    ``first_greater``, or a bisect over a list, which is checked whole
    first.  A list's lookup returns None past its last element."""
    if isinstance(D, (PrimeStream, GeometricStream)):
        return D.first_greater
    if type(D) is not list or any(type(v) is not int for v in D):
        raise DomainError("a difference set is a named stream or a list of ints")
    if any(a >= b for a, b in zip(D, D[1:])):
        raise DomainError("difference set must be strictly increasing")

    def first_greater(bound: int) -> Optional[int]:
        i = bisect_right(D, bound)
        return D[i] if i < len(D) else None

    return first_greater


def greedy_difference_sequence(D, count: int) -> DifferenceSequence:
    """First `count` terms of the growth subsequence of D: each term is the
    least element exceeding 2^(i-1) times the running lcm.  D is a
    difference stream (a value of `STREAMS`) or a list of ints, strictly
    increasing over its whole length; anything else is a DomainError.
    Every term comes from one `first_greater(bound)` lookup, so a stream
    jumps and a list bisects; a list that runs out raises StreamExhausted."""
    if count < 0:
        raise DomainError("count must be nonnegative", count=count)
    first_greater = _first_greater(D)
    terms: List[int] = []
    lcms: List[int] = []
    L = 1
    while len(terms) < count:
        d = first_greater((1 << len(terms)) * L)
        if d is None:
            raise StreamExhausted(
                "difference stream exhausted", have=len(terms), wanted=count
            )
        terms.append(d)
        L = lcm(L, d)
        lcms.append(L)
    seq = DifferenceSequence(tuple(terms), tuple(lcms))
    seq.check_growth()
    return seq


@dataclass(frozen=True)
class ResidueTree:
    """Binary tree of congruences over a growth sequence: node s at depth j
    carries a residue mod terms[j-1]; per depth all residues are pairwise
    distinct, and every root path is a solvable system.  Leaves carry the
    least nonnegative solution of their full path system."""

    depth: int
    residues: Dict[str, int]
    solutions: Dict[str, int]
    seq: DifferenceSequence


def build_residue_tree(seq: DifferenceSequence, depth: int) -> ResidueTree:
    """Assign residues level by level, parents in label order, each child
    taking the smallest extension residue unused at its level.  The growth
    inequality guarantees enough candidates (each parent offers d/gcd >=
    2^j choices at depth j), so exhaustion is an internal error, not a
    domain error.

    Every class at depth j-1 has the same modulus L and merges with the
    same d, so the CRT step (g = gcd(L, d) and one inverse of L/g mod d/g)
    is computed once per depth.  Parents whose residues agree mod g share
    one candidate range and the others' ranges are disjoint from it, so
    the used residues of a range are a prefix of it: one cursor per range
    start gives the least unused candidate."""
    if depth < 0:
        raise DomainError("depth must be nonnegative", depth=depth)
    if depth > len(seq.terms):
        raise DomainError(
            "sequence too short for requested depth",
            depth=depth,
            terms=len(seq.terms),
        )
    residues: Dict[str, int] = {}
    classes: Dict[str, int] = {"": 0}  # label -> residue mod L, in label order
    L = 1
    for j in range(1, depth + 1):
        d = seq.terms[j - 1]
        g = gcd(L, d)
        step, M = d // g, L // g * d
        inv = pow(L // g, -1, step) if step > 1 else 0
        cursor: Dict[int, int] = {}
        next_classes: Dict[str, int] = {}
        for s, r in classes.items():
            candidates = extension_residues((r, L), d)
            rho = cursor.get(candidates.start, candidates.start)
            for bit in "01":
                if rho >= candidates.stop:
                    raise AssertionError(
                        "residue candidates exhausted; growth inequality "
                        "should make this impossible"
                    )
                residues[s + bit] = rho
                next_classes[s + bit] = (r + L * ((rho - r) // g * inv % step)) % M
                rho += g
            cursor[candidates.start] = rho
        classes, L = next_classes, M
    if depth and L != seq.lcms[depth - 1]:
        raise AssertionError("leaf modulus is not the running lcm")
    return ResidueTree(depth, residues, classes, seq)


# ---------------------------------------------------------------------------
# difference-set streams


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeStream:
    """Strictly increasing primes; deterministic Miller–Rabin below
    3.3e24, strong probable primes beyond.  Supports jumping straight past
    any bound, which the greedy selection exploits."""

    def first_greater(self, bound: int) -> int:
        n = bound + 1
        if n <= 2:
            return 2
        if n % 2 == 0:
            n += 1
        while not _is_probable_prime(n):
            n += 2
        return n


class GeometricStream:
    """base, base^2, base^3, ..."""

    def __init__(self, base: int):
        if base < 2:
            raise DomainError("base must be >= 2", base=base)
        self.base = base

    def first_greater(self, bound: int) -> int:
        v = self.base
        while v <= bound:
            v *= self.base
        return v


# the named streams the CLI exposes; each is stateless, so one instance serves
STREAMS = {"primes": PrimeStream(), "pow2": GeometricStream(2), "pow3": GeometricStream(3)}


# ---------------------------------------------------------------------------
# rectangles -> progressions


@dataclass
class APRealization:
    """Integer values V (strictly increasing, matching the source points'
    x-order) plus one finite progression per realized edge."""

    V: List[int]
    aps: List[FiniteAP]
    edge_of_ap: List[int]
    offset: int = 0

    def to_json_dict(self) -> dict:
        return {
            "offset": self.offset,
            "V": [str(v) for v in self.V],
            "aps": [
                {
                    "start": str(a.start),
                    "difference": str(a.difference),
                    "length": a.length,
                    "edge": e,
                }
                for a, e in zip(self.aps, self.edge_of_ap)
            ],
        }


def _emit_aps(R, fam, point_value, diff_and_residue) -> APRealization:
    """One progression per nonempty rectangle, clamped to the values at the
    ends of its rank window's x-side, checked against the drawing."""
    P = _check_general_position(R.points)
    index = BoxIndex(P)
    labels = fam.point_labels
    # yx is in x-order, so i is the point's x-rank
    V = [point_value(labels[P.y_ids[j]], i + 1) for i, j in enumerate(P.yx)]
    if any(a >= b for a, b in zip(V, V[1:])):
        raise VerificationError("integer values are not strictly increasing")
    aps: List[FiniteAP] = []
    edge_of_ap: List[int] = []
    expected: List[tuple] = []
    flagged: List[int] = []
    for r, w in enumerate(R.windows()):
        mem = tuple(P.x_rank[v] for v in index.members(w))
        if not mem:
            flagged.append(r)
            continue
        d, res = diff_and_residue(fam.input_labels[r])
        lo, hi = V[w[0]], V[w[1] - 1]
        start = lo + (res - lo) % d
        end = hi - (hi - res) % d
        if start > end:
            raise VerificationError(
                "no value of the residue class falls in the window", rect=r
            )
        aps.append(FiniteAP(start, d, (end - start) // d + 1))
        edge_of_ap.append(R.edge_of_rect[r])
        expected.append(mem)
    if flagged:
        warnings.warn(
            f"rectangles with no points produce no progression: {flagged}",
            stacklevel=3,
        )
    out = APRealization(V, aps, edge_of_ap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        observed = ap_incidence_hypergraph(V, aps)
    if observed.edges != expected:
        raise VerificationError(
            "progressions do not reproduce the drawing's incidence"
        )
    return out


def _label_residue(q: str) -> int:
    return sum(1 << j for j, ch in enumerate(q) if ch == "1")


def rects_to_pow2_aps(R: Realization) -> APRealization:
    """Reverse direction of the power-of-two equivalence: extend the nested
    y-projections to a perfect family of depth t, give the point with leaf
    label s_1...s_{t-1} and 1-based x-rank i the value
    sum_j s_j 2^(j-1) + i*2^(t-1), and turn the rectangle labeled q_1...q_r
    into the progression of difference 2^r and residue sum_j q_j 2^(j-1),
    clamped to its x-window.  Output re-verified against the drawing."""
    fam = extend_to_perfect_nested(y_projections(R), [p.y for p in R.points])
    t = fam.depth
    step = 1 << (t - 1)

    def value(s: str, i: int) -> int:
        return _label_residue(s) + i * step

    def diff_res(q: str):
        return (1 << len(q), _label_residue(q))

    return _emit_aps(R, fam, value, diff_res)


def rects_to_D_aps(R: Realization, D) -> APRealization:
    """General difference sets: the same translation with 2^r replaced by
    the r-th growth-sequence term and bit patterns by residue-tree classes;
    point values come from the leaf solutions, spaced by the running lcm.
    D is what `greedy_difference_sequence` takes: a named stream, or a
    strictly increasing list of ints, checked whole.  The root is padded
    strictly so every rectangle sits at depth >= 1 and has a difference to
    use.  Output re-verified against the drawing."""
    fam = extend_to_perfect_nested(
        y_projections(R), [p.y for p in R.points], strict_root=True
    )
    t = fam.depth
    seq = greedy_difference_sequence(D, t - 1)
    tree = build_residue_tree(seq, t - 1)
    L = seq.lcms[-1] if seq.terms else 1

    def value(s: str, i: int) -> int:
        return tree.solutions[s] + i * L

    def diff_res(q: str):
        if not q:
            raise VerificationError("a rectangle landed on the padded root")
        return (seq.terms[len(q) - 1], tree.residues[q])

    return _emit_aps(R, fam, value, diff_res)
