"""Tests for the progression bridge: embedding, strips, growth sequences,
residue trees, and the rectangle -> progression translations."""

import itertools
import random
from fractions import Fraction as F
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from chromarect.arithmetic import (
    STREAMS,
    DifferenceSequence,
    EmbeddedPoints,
    FiniteAP,
    GeometricStream,
    PrimeStream,
    ResidueClass,
    ap_capture_rectangle,
    ap_incidence_hypergraph,
    bit_reverse,
    build_residue_tree,
    embed_integers,
    extension_residues,
    greedy_difference_sequence,
    rects_to_D_aps,
    rects_to_pow2_aps,
    solve_modular_system,
    van_der_corput,
)
from chromarect.construction import build_Hkc
from chromarect.errors import DomainError, StreamExhausted, VerificationError
from chromarect.geometry import (
    Point2,
    Realization,
    make_rect,
    realize_Hkc,
    realize_Hkc_nested,
    relabel_to_x_order,
)
from chromarect.hypergraph import OrderedHypergraph, edge_multiset_equal


@lru_cache(maxsize=None)
def _nested22():
    return realize_Hkc_nested(build_Hkc(2, 2))


def greedy_oracle(values, count):
    """Literal translation of the definition over a finite list."""
    terms = []
    L = 1
    for i in range(count):
        bound = (1 << i) * L
        candidates = [d for d in values if d > bound]
        terms.append(min(candidates))
        L = lcm(L, terms[-1])
    return tuple(terms)


class TestVanDerCorput:
    @pytest.mark.parametrize(
        "n,expect",
        [(0, F(0)), (1, F(1, 2)), (2, F(1, 4)), (3, F(3, 4)), (4, F(1, 8)),
         (5, F(5, 8)), (6, F(3, 8)), (7, F(7, 8))],
    )
    def test_frozen_values(self, n, expect):
        assert van_der_corput(n) == expect

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            van_der_corput(-1)

    @given(st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_range_and_exact_value(self, n):
        a = van_der_corput(n)
        assert 0 <= a < 1
        w = n.bit_length()
        assert a * (1 << w) == bit_reverse(n, w)

    @given(st.integers(0, 4095), st.integers(0, 4095))
    @settings(max_examples=200)
    def test_injective(self, m, n):
        if m != n:
            assert van_der_corput(m) != van_der_corput(n)

    def test_strip_equivalence_small(self):
        # n ≡ b (mod 2^t)  <=>  a_b <= a_n < a_b + 2^-t, checked literally
        for t in range(0, 6):
            for b in range(1 << t):
                ab = van_der_corput(b)
                for n in range(64):
                    lhs = n % (1 << t) == b
                    an = van_der_corput(n)
                    rhs = ab <= an < ab + F(1, 1 << t)
                    assert lhs == rhs, (n, t, b)

    def test_bit_reverse(self):
        assert bit_reverse(0b1101) == 0b1011
        assert bit_reverse(6, 12) == 0b011000000000
        assert bit_reverse(0) == 0
        with pytest.raises(DomainError):
            bit_reverse(5, 2)
        with pytest.raises(DomainError):
            bit_reverse(-3)


class TestEmbedding:
    def test_singleton_zero(self):
        pts, offset = embed_integers({0})
        assert offset == 0
        assert pts == [Point2(F(0), F(0))]

    def test_figure_set(self):
        pts, offset = embed_integers({1, 3, 7, 8, 10, 15})
        assert offset == 0
        d = {int(p.x): p.y for p in pts}
        assert d[3] == F(3, 4)
        assert d[7] == F(7, 8)
        assert [int(p.x) for p in pts] == [1, 3, 7, 8, 10, 15]

    def test_negative_shift(self):
        pts, offset = embed_integers({-2, 0})
        assert offset == 2
        assert [int(p.x) for p in pts] == [0, 2]
        assert pts[1].y == F(1, 4)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            embed_integers(set())


class TestCapture:
    def test_figure_example(self):
        V = [1, 3, 7, 8, 10, 15]
        A = FiniteAP(3, 2, 3)  # {3, 5, 7}
        rect = ap_capture_rectangle(A, V)
        pts, _ = embed_integers(V)
        captured = {int(p.x) for p in pts if rect.contains(p)}
        assert captured == {3, 7}

    def test_single_element(self):
        V = [1, 3, 7, 8, 10, 15]
        for n in V:
            rect = ap_capture_rectangle(FiniteAP(n, 1, 1), V)
            pts, _ = embed_integers(V)
            assert {int(p.x) for p in pts if rect.contains(p)} == {n}

    def test_rejects_non_power_difference(self):
        with pytest.raises(DomainError):
            ap_capture_rectangle(FiniteAP(0, 3, 2), [0, 1])

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            ap_capture_rectangle(FiniteAP(0, 2, 2), [-1, 3])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_capture_equals_set_intersection(self, data):
        V = sorted(
            data.draw(st.sets(st.integers(0, 4095), min_size=1, max_size=24))
        )
        t = data.draw(st.integers(0, 8))
        d = 1 << t
        b = data.draw(st.integers(0, d - 1))
        k0 = data.draw(st.integers(0, 64))
        length = data.draw(st.integers(1, 80))
        A = FiniteAP(b + k0 * d, d, length)
        rect = ap_capture_rectangle(A, V)
        pts, _ = embed_integers(V)
        captured = {int(p.x) for p in pts if rect.contains(p)}
        assert captured == set(A.members()) & set(V)

    def test_coarse_difference_beyond_value_grid(self):
        # difference 2^t with t larger than any value's bit length: the
        # naive margin would flip the strip inside out
        V = [0, 1]
        rect = ap_capture_rectangle(FiniteAP(0, 8, 2), V)
        pts, _ = embed_integers(V)
        assert {int(p.x) for p in pts if rect.contains(p)} == {0, 8} & set(V)


class TestFiniteAP:
    def test_members(self):
        A = FiniteAP(3, 2, 3)
        assert list(A.members()) == [3, 5, 7]
        assert A.last == 7
        assert 5 in A and 4 not in A and 9 not in A

    def test_validation(self):
        with pytest.raises(DomainError):
            FiniteAP(0, 0, 1)
        with pytest.raises(DomainError):
            FiniteAP(0, 1, 0)


class TestModularSystems:
    def test_forced(self):
        assert solve_modular_system([(1, 2), (3, 8)]) == ResidueClass(3, 8)

    def test_parity_clash(self):
        assert solve_modular_system([(0, 4), (1, 2)]) is None

    def test_empty_system(self):
        assert solve_modular_system([]) == ResidueClass(0, 1)

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            solve_modular_system([(0, 0)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 12)),
            max_size=4,
        )
    )
    @settings(max_examples=200)
    def test_against_scan(self, system):
        got = solve_modular_system(system)
        M = 1
        for _, m in system:
            M = lcm(M, m)
        sols = [
            x for x in range(M)
            if all(x % m == r % m for r, m in system)
        ]
        if got is None:
            assert sols == []
        else:
            assert got.modulus == M
            assert sols == [got.residue] if M else True
            assert all(x % M == got.residue for x in sols)
            assert sols


class TestExtensionResidues:
    def test_worked_example(self):
        assert list(extension_residues(ResidueClass(1, 2), 8)) == [1, 3, 5, 7]

    def test_trivial_class(self):
        assert list(extension_residues((0, 1), 5)) == [0, 1, 2, 3, 4]

    @given(st.integers(0, 40), st.integers(1, 40), st.integers(1, 64))
    @settings(max_examples=200)
    def test_against_scan(self, r, L, d):
        r %= L
        got = list(extension_residues((r, L), d))
        want = [
            rho for rho in range(d)
            if solve_modular_system([(r, L), (rho, d)]) is not None
        ]
        assert got == want
        assert len(got) == d // gcd(L, d)

    def test_count_bound(self):
        # whenever d > 2^j * L, at least 2^j residues extend the class
        for L, d, j in [(2, 8, 1), (6, 30, 2), (4, 64, 3)]:
            assert d > (1 << j) * L
            assert len(extension_residues((1 % L, L), d)) >= 1 << j


class TestGreedySequence:
    def test_powers_of_two(self):
        seq = greedy_difference_sequence(GeometricStream(2), 3)
        assert seq.terms == (2, 8, 64)
        assert seq.terms == greedy_oracle([1 << i for i in range(1, 20)], 3)

    def test_primes(self):
        seq = greedy_difference_sequence(PrimeStream(), 3)
        assert seq.terms == (2, 5, 41)
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
        assert seq.terms == greedy_oracle(primes, 3)

    def test_powers_of_three(self):
        # honestly recomputed: 3 > 1; then 9 > 2*3 = 6 already — the
        # smallest qualifying power is 9, not 27
        seq = greedy_difference_sequence(GeometricStream(3), 3)
        assert seq.terms == (3, 9, 81)
        assert seq.terms == greedy_oracle([3**i for i in range(1, 20)], 3)

    def test_growth_inequality_ten_terms(self):
        for stream in (GeometricStream(2), GeometricStream(3), PrimeStream()):
            seq = greedy_difference_sequence(stream, 10)
            L = 1
            for j, d in enumerate(seq.terms):
                assert d > (1 << j) * L
                L = lcm(L, d)
            seq.check_growth()

    def test_plain_iterable(self):
        seq = greedy_difference_sequence([2, 3, 5, 7, 11, 13, 41, 43], 3)
        assert seq.terms == (2, 5, 41)

    def test_exhaustion(self):
        with pytest.raises(StreamExhausted):
            greedy_difference_sequence([2, 3, 5], 3)

    def test_not_increasing_rejected(self):
        with pytest.raises(DomainError):
            greedy_difference_sequence([2, 2, 3], 2)

    def test_zero_terms(self):
        assert greedy_difference_sequence([2, 3], 0).terms == ()

    @given(st.sets(st.integers(-5, 10**5), max_size=12), st.integers(0, 5))
    @settings(max_examples=300)
    def test_list_lookup_matches_oracle(self, values, count):
        values = sorted(values)
        try:
            want = greedy_oracle(values, count)
        except ValueError:  # min() of no candidates: the list runs out
            with pytest.raises(StreamExhausted):
                greedy_difference_sequence(values, count)
        else:
            assert greedy_difference_sequence(values, count).terms == want

    def test_whole_list_checked(self):
        # the terms come before the descent, which the list check still sees
        assert greedy_difference_sequence([2, 5, 41], 3).terms == (2, 5, 41)
        with pytest.raises(DomainError):
            greedy_difference_sequence([2, 5, 41, 1], 3)

    @pytest.mark.parametrize(
        "D",
        [(2, 5, 41), (d for d in [2, 5, 41]), [2, 5, True, 41]],
        ids=["tuple", "generator", "bool"],
    )
    def test_only_lists_of_ints(self, D):
        with pytest.raises(DomainError):
            greedy_difference_sequence(D, 3)

    def test_named_streams(self):
        assert isinstance(STREAMS["primes"], PrimeStream)
        assert STREAMS["pow2"].base == 2
        assert STREAMS["pow3"].base == 3


def scan_solvable(residue_path, moduli):
    """Brute-force CRT oracle: does any x < lcm satisfy the whole path?"""
    M = 1
    for m in moduli:
        M = lcm(M, m)
    return [
        x for x in range(M)
        if all(x % m == r for r, m in zip(residue_path, moduli))
    ]


class TestResidueTree:
    def test_depth_one(self):
        seq = greedy_difference_sequence(GeometricStream(2), 1)
        tree = build_residue_tree(seq, 1)
        assert tree.residues == {"0": 0, "1": 1}
        assert tree.solutions == {"0": 0, "1": 1}

    def test_frozen_two_eight(self):
        seq = DifferenceSequence((2, 8), (2, 8))
        tree = build_residue_tree(seq, 2)
        assert tree.residues == {
            "0": 0, "1": 1, "00": 0, "01": 2, "10": 1, "11": 3,
        }
        assert tree.solutions == {"00": 0, "01": 2, "10": 1, "11": 3}

    @pytest.mark.parametrize(
        "stream,depth",
        [(GeometricStream(3), 3), (PrimeStream(), 3), (GeometricStream(2), 4)],
    )
    def test_invariants_via_scan(self, stream, depth):
        seq = greedy_difference_sequence(stream, depth)
        tree = build_residue_tree(seq, depth)
        # (ii): per-depth residues pairwise distinct
        for j in range(1, depth + 1):
            level = [tree.residues[s] for s in tree.residues if len(s) == j]
            assert len(level) == 1 << j
            assert len(set(level)) == len(level)
        # (i): every root path solvable, checked by brute scan
        for s in tree.residues:
            path = [tree.residues[s[: j + 1]] for j in range(len(s))]
            moduli = list(seq.terms[: len(s)])
            if moduli[-1] > 10**6:
                continue  # scan oracle only at desk scale
            assert scan_solvable(path, moduli)
        # leaf solutions solve their system and are reduced
        L = seq.lcms[depth - 1]
        for s, f in tree.solutions.items():
            assert 0 <= f < L
            for j in range(depth):
                assert f % seq.terms[j] == tree.residues[s[: j + 1]]

    def test_depth_zero(self):
        seq = greedy_difference_sequence(GeometricStream(2), 0)
        tree = build_residue_tree(seq, 0)
        assert tree.solutions == {"": 0}
        assert tree.residues == {}

    def test_too_deep(self):
        seq = greedy_difference_sequence(GeometricStream(2), 2)
        with pytest.raises(DomainError):
            build_residue_tree(seq, 3)


def reference_residue_tree(seq, depth):
    """The greedy/CRT builder as it stood before the per-depth inverse and
    the per-class cursors, frozen: one `solve_modular_system` call per node
    and a scan of the candidates for the least unused one."""
    classes = {"": ResidueClass(0, 1)}
    residues = {}
    for j in range(1, depth + 1):
        d = seq.terms[j - 1]
        used = set()
        next_classes = {}
        for s in sorted(classes):
            cls = classes[s]
            candidates = extension_residues(cls, d)
            for bit in "01":
                rho = next((x for x in candidates if x not in used), None)
                if rho is None:
                    raise AssertionError(
                        "residue candidates exhausted; growth inequality "
                        "should make this impossible"
                    )
                used.add(rho)
                residues[s + bit] = rho
                merged = solve_modular_system([(cls.residue, cls.modulus), (rho, d)])
                if merged is None:
                    raise AssertionError("extension residue produced an unsolvable system")
                next_classes[s + bit] = merged
        classes = next_classes
    if depth and any(c.modulus != seq.lcms[depth - 1] for c in classes.values()):
        raise AssertionError("leaf modulus is not the running lcm")
    return residues, {s: c.residue for s, c in classes.items()}


def _built(seq, depth):
    tree = build_residue_tree(seq, depth)
    return tree.residues, tree.solutions


def _outcome(build, seq, depth):
    """(residues, solutions), or the type and text of what was raised."""
    try:
        return build(seq, depth)
    except (AssertionError, DomainError) as exc:
        return type(exc), str(exc)


def _hand_made(terms):
    """A sequence with honest running lcms and no growth check."""
    return DifferenceSequence(tuple(terms), tuple(itertools.accumulate(terms, lcm)))


def _seeded_lists():
    """The 10-term growth sequences of seeded strictly increasing lists:
    decoys below each bound, then a kept value just above it that is a
    multiple of a seeded divisor of the running lcm (the whole lcm, a
    part of it, or 1), so the terms share factors in varying amounts."""
    for seed in range(24):
        rng = random.Random(seed)
        values, L = [], 1
        for i in range(10):
            bound = L << i
            lo = values[-1] + 1 if values else 1
            values += sorted({rng.randrange(lo, bound + 1) for _ in range(3)}) if bound >= lo else []
            f = rng.choice((L, gcd(L, rng.randrange(1, 1000)), 1))
            values.append((bound // f + 1 + rng.randrange(4)) * f)
            L = lcm(L, values[-1])
        yield pytest.param(greedy_difference_sequence(values, 10), id=f"seed{seed}")


class TestResidueTreeAgainstReference:
    @pytest.mark.parametrize("depth", range(11))
    @pytest.mark.parametrize("name", ["primes", "pow2", "pow3"])
    def test_named_streams(self, name, depth):
        seq = greedy_difference_sequence(STREAMS[name], depth)
        assert _outcome(_built, seq, depth) == _outcome(reference_residue_tree, seq, depth)

    @pytest.mark.parametrize("seq", _seeded_lists())
    def test_seeded_lists(self, seq):
        for depth in range(len(seq.terms) + 1):
            assert _outcome(_built, seq, depth) == _outcome(reference_residue_tree, seq, depth)

    @pytest.mark.parametrize(
        "terms",
        [
            (6, 10, 15),
            (4, 6, 9, 10),
            (12, 18, 8, 27),
            (3, 6, 12, 24, 48),
            (6, 4),  # the second level runs out of candidates
            (2, 2),
            (10, 4, 25, 8, 125),
            (1, 2, 3),
            (0, 5),
            (4, -6),
        ],
    )
    def test_shared_factors(self, terms):
        seq = _hand_made(terms)
        for depth in range(len(terms) + 1):
            assert _outcome(_built, seq, depth) == _outcome(
                reference_residue_tree, seq, depth
            )

    def test_seeded_hand_made_sequences(self):
        rng = random.Random(7)
        raised = 0
        for _ in range(400):
            terms = [rng.choice((2, 3, 4, 6, 8, 9, 10, 12, 15, 18, 20, 24, 30, 36))
                     * rng.randrange(1, 6) for _ in range(rng.randrange(1, 6))]
            seq = _hand_made(terms)
            for depth in range(len(terms) + 1):
                want = _outcome(reference_residue_tree, seq, depth)
                assert _outcome(_built, seq, depth) == want
                raised += want[0] is AssertionError
        assert raised  # some of them exhaust their candidates

    def test_wrong_running_lcm_still_refused(self):
        seq = DifferenceSequence((2, 8), (2, 4))
        want = (AssertionError, "leaf modulus is not the running lcm")
        assert _outcome(reference_residue_tree, seq, 2) == want
        assert _outcome(_built, seq, 2) == want

    def test_primes_leaves_solve_their_systems(self):
        seq = greedy_difference_sequence(STREAMS["primes"], 8)
        tree = build_residue_tree(seq, 8)
        assert len(tree.solutions) == 256
        for s, z in tree.solutions.items():
            system = [(tree.residues[s[: j + 1]], seq.terms[j]) for j in range(8)]
            assert solve_modular_system(system) == ResidueClass(z, seq.lcms[7])


class TestApIncidence:
    def test_figure(self):
        H = ap_incidence_hypergraph([1, 3, 7, 8, 10, 15], [FiniteAP(3, 2, 3)])
        assert H.edges == [(1, 2)]

    def test_disjoint_flagged(self):
        with pytest.warns(UserWarning, match="capturing nothing"):
            H = ap_incidence_hypergraph([1, 2], [FiniteAP(10, 2, 2)])
        assert H.edges == [()]

    def test_requires_increasing(self):
        with pytest.raises(DomainError):
            ap_incidence_hypergraph([3, 1], [])


def two_point_realization():
    pts = [Point2(F(0), F(0)), Point2(F(1), F(1, 2))]
    rect = make_rect(F(-1), F(2), F(-1), F(1))
    H = OrderedHypergraph(2, [(0, 1)])
    return Realization(pts, [rect], [0], H)


class TestPow2Translation:
    def test_single_rectangle_two_points(self):
        out = rects_to_pow2_aps(two_point_realization())
        assert len(out.aps) == 1
        assert out.aps[0].difference == 1  # root label: difference 2^0
        got = set(out.aps[0].members()) & set(out.V)
        assert got == set(out.V)

    def test_nested_instance(self):
        R = _nested22()
        out = rects_to_pow2_aps(R)
        assert len(out.aps) == 14
        assert out.edge_of_ap == list(range(14))
        for a in out.aps:
            assert a.difference & (a.difference - 1) == 0
        assert all(a < b for a, b in zip(out.V, out.V[1:]))

    def test_incidence_matches_source(self):
        R = _nested22()
        out = rects_to_pow2_aps(R)
        observed = ap_incidence_hypergraph(out.V, out.aps)
        want = relabel_to_x_order(R.hypergraph, R.points)
        assert edge_multiset_equal(observed, want)

    def test_plain_projections_rejected(self):
        with pytest.raises(DomainError):
            rects_to_pow2_aps(realize_Hkc(build_Hkc(2, 2)))

    @pytest.mark.parametrize("k,c", [(2, 1), (3, 1), (1, 2)])
    def test_small_instances_round_trip(self, k, c):
        S = build_Hkc(k, c)
        R = realize_Hkc_nested(S)
        out = rects_to_pow2_aps(R)
        observed = ap_incidence_hypergraph(out.V, out.aps)
        assert edge_multiset_equal(
            observed, relabel_to_x_order(S.base, R.points)
        )

    def test_empty_rectangle_flagged(self):
        pts = [Point2(F(0), F(0)), Point2(F(1), F(1, 2))]
        rects = [make_rect(F(-1), F(2), F(-1), F(1)),
                 make_rect(F(5), F(6), F(5), F(6))]
        H = OrderedHypergraph(2, [(0, 1), ()])
        R = Realization(pts, rects, [0, 1], H)
        with pytest.warns(UserWarning, match="no progression"):
            out = rects_to_pow2_aps(R)
        assert len(out.aps) == 1
        assert out.edge_of_ap == [0]

    def test_tied_points_rejected(self):
        pts = [Point2(F(0), F(0)), Point2(F(1), F(0))]
        R = Realization(pts, [], [], OrderedHypergraph(2, []))
        with pytest.raises(DomainError):
            rects_to_pow2_aps(R)


class TestGeneralTranslation:
    @pytest.mark.parametrize("kind", ["primes", "pow3"])
    def test_nested_instance(self, kind):
        R = _nested22()
        out = rects_to_D_aps(R, STREAMS[kind])
        assert len(out.aps) == 14
        # recompute the growth sequence independently and check membership
        seq = greedy_difference_sequence(STREAMS[kind], 10)
        assert {a.difference for a in out.aps} <= set(seq.terms)
        observed = ap_incidence_hypergraph(out.V, out.aps)
        want = relabel_to_x_order(R.hypergraph, R.points)
        assert edge_multiset_equal(observed, want)

    def test_pow3_differences_are_powers_of_three(self):
        out = rects_to_D_aps(_nested22(), GeometricStream(3))
        for a in out.aps:
            d = a.difference
            while d % 3 == 0:
                d //= 3
            assert d == 1

    def test_pow2_agrees_with_direct_translation(self):
        R = _nested22()
        direct = rects_to_pow2_aps(R)
        general = rects_to_D_aps(R, GeometricStream(2))
        a = ap_incidence_hypergraph(direct.V, direct.aps)
        b = ap_incidence_hypergraph(general.V, general.aps)
        assert a.edges == b.edges  # same captured sets, rect by rect

    def test_values_strictly_increasing(self):
        out = rects_to_D_aps(_nested22(), PrimeStream())
        assert all(a < b for a, b in zip(out.V, out.V[1:]))

    def test_single_rectangle_two_points(self):
        # strict-root padding: even the hull rectangle gets depth >= 1
        out = rects_to_D_aps(two_point_realization(), PrimeStream())
        assert len(out.aps) == 1
        assert out.aps[0].difference >= 2
        captured = set(out.aps[0].members()) & set(out.V)
        assert captured == set(out.V)


class TestApRealizationJson:
    def test_big_integers_as_strings(self):
        out = rects_to_D_aps(_nested22(), PrimeStream())
        d = out.to_json_dict()
        assert all(isinstance(v, str) for v in d["V"])
        assert all(isinstance(a["start"], str) for a in d["aps"])
        assert all(isinstance(a["length"], int) for a in d["aps"])
