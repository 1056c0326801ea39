"""Crossing engine: interleaving rule, analytic closed form, drawing oracle."""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecurves import intersections
from sparsecurves.curves import Curve, CurveSystem, generate_system
from sparsecurves.errors import DomainError
from sparsecurves.homology import certify_distinct
from sparsecurves.intersections import (
    AnnulusStrand,
    BoundaryPosition,
    _family_crossings_sorted,
    annulus_family_crossings,
    necklace_family_crossings,
    oracle_crossings_pl,
    pair_intersection,
    strands_cross,
    total_crossings_analytic,
    total_crossings_explicit,
)
from sparsecurves.surfaces import CompositeSurface, plan_composite

# surfaces with h = 2..6 and plenty of necklaces
SURFACES = {h: plan_composite(h * h * 4, Fraction(0)) for h in range(2, 7)}


def _word_strategy(n):
    return st.tuples(*[st.integers(min_value=1, max_value=4)] * n)


def test_strands_cross_parallel():
    s1 = AnnulusStrand(BoundaryPosition(1, 0), BoundaryPosition(1, 0))
    s2 = AnnulusStrand(BoundaryPosition(2, 0), BoundaryPosition(2, 0))
    assert strands_cross(s1, s2) == 0


def test_strands_cross_interleaving():
    s1 = AnnulusStrand(BoundaryPosition(1, 0), BoundaryPosition(2, 0))
    s2 = AnnulusStrand(BoundaryPosition(2, 0), BoundaryPosition(1, 0))
    assert strands_cross(s1, s2) == 1


def test_strands_cross_bundle_mates():
    # same arc both sides, ranks preserved: parallel bundle, no crossing
    s1 = AnnulusStrand(BoundaryPosition(3, 0), BoundaryPosition(3, 0))
    s2 = AnnulusStrand(BoundaryPosition(3, 1), BoundaryPosition(3, 1))
    assert strands_cross(s1, s2) == 0


def test_strands_cross_rejects_coincident_positions():
    s1 = AnnulusStrand(BoundaryPosition(1, 0), BoundaryPosition(2, 0))
    with pytest.raises(DomainError):
        strands_cross(s1, s1)


def test_pair_intersection_cross_necklace_is_zero():
    surface = SURFACES[3]
    assert pair_intersection(Curve(0, (1, 2)), Curve(1, (1, 2)), surface) == 0
    assert pair_intersection(Curve(0, (2, 3)), Curve(4, (1, 4)), surface) == 0


def test_pair_intersection_h2_like_labels():
    surface = SURFACES[2]
    assert pair_intersection(Curve(0, (1,)), Curve(0, (3,)), surface) == 0


def test_pair_intersection_identical_curve_rejected():
    surface = SURFACES[2]
    with pytest.raises(DomainError):
        pair_intersection(Curve(0, (1,)), Curve(0, (1,)), surface)


def test_pair_intersection_word_length_mismatch():
    surface = SURFACES[3]
    with pytest.raises(DomainError):
        pair_intersection(Curve(0, (1,)), Curve(0, (1, 2)), surface)


@given(data=st.data(), h=st.integers(min_value=2, max_value=6))
@settings(max_examples=150, deadline=None)
def test_pair_intersection_symmetry_and_localization(data, h):
    surface = SURFACES[h]
    n = h - 1
    u = data.draw(_word_strategy(n))
    w = data.draw(_word_strategy(n))
    if u == w:
        return
    c1, c2 = Curve(0, u), Curve(0, w)
    forward = pair_intersection(c1, c2, surface)
    backward = pair_intersection(c2, c1, surface)
    assert forward == backward
    assert 0 <= forward <= n


def test_explicit_total_equals_pairwise_sum_g36():
    surface = SURFACES[3]
    words = list(product((1, 2, 3, 4), repeat=2))
    curves = tuple(Curve(k, w) for k in range(2) for w in words)
    system = CurveSystem(surface=surface, curves=curves)
    total = total_crossings_explicit(system)
    by_pairs = sum(
        pair_intersection(a, b, surface) for a, b in combinations(curves, 2)
    )
    assert total == by_pairs


def test_explicit_total_g36_is_864():
    system = generate_system(plan_composite(36, Fraction(0)))
    assert total_crossings_explicit(system) == 864


@given(data=st.data(), h=st.integers(min_value=2, max_value=6))
@settings(max_examples=150, deadline=None)
def test_explicit_total_equals_pairwise_rule_on_subfamilies(data, h):
    # the packed prefix counter against the independent pair-by-pair rule
    surface = SURFACES[h]
    words = data.draw(st.sets(_word_strategy(h - 1), max_size=40))
    necklaces = data.draw(
        st.lists(st.integers(0, 1), min_size=len(words), max_size=len(words))
    )
    curves = tuple(Curve(k, w) for k, w in zip(necklaces, sorted(words)))
    system = CurveSystem(surface=surface, curves=curves)
    by_pairs = sum(
        pair_intersection(a, b, surface) for a, b in combinations(curves, 2)
    )
    assert total_crossings_explicit(system) == by_pairs


def _prefix_walk_crossings(words, necklace):
    """The explicit counter as a prefix-group letter-pair histogram sum, an
    independent form of the packed prefix count: each range of sorted words
    sharing d letters is split by its letter at d, and for every annulus
    i >= d each group's histogram of letter pairs is paired with those of
    earlier groups."""
    count = len(words)
    for a in range(count - 1):
        if words[a] == words[a + 1]:
            word = "".join(map(str, words[a]))
            raise DomainError(f"duplicate curve {necklace}:{word}")
    if count < 2:
        return 0
    n = len(words[0])
    total = 0
    ranges = [(0, count, 0)]  # words[lo:hi] share their first d letters
    while ranges:
        lo, hi, d = ranges.pop()
        prefix = words[lo][:d]
        groups = []
        while lo < hi:  # one group per letter at d
            end = bisect_left(words, prefix + (words[lo][d] + 1,), lo, hi)
            groups.append((lo, end))
            lo = end
        if d + 2 < n:
            ranges.extend((a, b, d + 1) for a, b in groups if b - a > 1)
        if len(groups) < 2:
            continue
        for i in range(d, n):
            j = (i + 1) % n
            earlier = Counter()
            for a, b in groups:
                current = Counter((w[i], w[j]) for w in words[a:b])
                for (x, y), p in earlier.items():
                    for (s, t), q in current.items():
                        if (x <= s) != (y <= t):
                            total += p * q
                earlier.update(current)
    return total


def _packed_crossings(n):
    """The counter on sorted words given as tuples, packed as a listed necklace
    holds them, after the check for an adjacent repeat that its caller makes."""

    def count(words, necklace):
        for u, w in zip(words, words[1:]):
            if u == w:
                raise DomainError(f"duplicate curve {Curve(necklace, u)}")
        return _family_crossings_sorted(b"".join(map(bytes, words)), n)

    return count


def _outcome(count, words):
    try:
        return count(words, 3)
    except DomainError as exc:
        return f"DomainError: {exc}"


@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=7),
    # a block of 2**k - 1 words fits k-bit fields, so small blocks run the
    # carry between blocks that only necklaces past 0xFFFF words reach
    field=st.sampled_from([0xFFFF, 1, 3, 7, 31]),
)
@settings(max_examples=200, deadline=None)
def test_packed_prefix_count_matches_the_prefix_walk(data, n, field):
    words = data.draw(st.lists(_word_strategy(n), max_size=300))
    if words:
        words += data.draw(st.lists(st.sampled_from(words), max_size=3))
    words.sort()
    with mock.patch.object(intersections, "_FIELD", field):
        packed = _outcome(_packed_crossings(n), words)
    assert packed == _outcome(_prefix_walk_crossings, words)


@given(data=st.data(), h=st.integers(min_value=2, max_value=6))
@settings(max_examples=100, deadline=None)
def test_byte_sweep_equals_the_pairwise_sum(data, h):
    surface = SURFACES[h]
    words = sorted(data.draw(st.sets(_word_strategy(h - 1), max_size=30)))
    by_pairs = sum(
        pair_intersection(Curve(0, u), Curve(0, w), surface)
        for u, w in combinations(words, 2)
    )
    assert _packed_crossings(h - 1)(words, 0) == by_pairs


@pytest.mark.parametrize("h", range(2, 9))
def test_byte_sweep_full_family_matches_the_closed_form(h):
    words = list(product((1, 2, 3, 4), repeat=h - 1))
    assert _packed_crossings(h - 1)(words, 0) == necklace_family_crossings(h)


@pytest.mark.parametrize("h", range(2, 8))
def test_full_family_words_match_the_cartesian_power(h):
    # the column-by-column pack of the cross-check against the joined product
    words = product((1, 2, 3, 4), repeat=h - 1)
    assert intersections._full_family_words(h - 1) == bytes(chain.from_iterable(words))


def test_packed_prefix_count_spans_blocks_on_the_full_h10_family():
    # 262,144 words: five blocks of at most 0xFFFF words per annulus
    words = list(product((1, 2, 3, 4), repeat=9))
    assert len(words) > 4 * intersections._FIELD
    assert _packed_crossings(9)(words, 0) == necklace_family_crossings(10)


def test_counter_and_certificate_name_the_same_repeated_word():
    surface = plan_composite(36, Fraction(0))
    curves = (Curve(2, (3, 2)), Curve(5, (1, 4)), Curve(5, (1, 4)), Curve(5, (4, 1)))
    system = CurveSystem(surface, curves)
    with pytest.raises(DomainError, match=r"^duplicate curve 5:14$"):
        total_crossings_explicit(system)
    assert certify_distinct(system).collision == (Curve(5, (1, 4)), Curve(5, (1, 4)))


@pytest.mark.parametrize("g, h", [(196, 7), (256, 8)])
def test_explicit_total_full_family_large(g, h):
    # 4,096 and 16,384 words on one necklace, against the closed form
    surface = plan_composite(g, Fraction(0))
    assert surface.h == h
    curves = tuple(Curve(0, w) for w in product((1, 2, 3, 4), repeat=h - 1))
    system = CurveSystem(surface=surface, curves=curves)
    assert total_crossings_explicit(system) == necklace_family_crossings(h)


def test_explicit_total_g16_is_zero():
    system = generate_system(plan_composite(16, Fraction(0)))
    assert total_crossings_explicit(system) == 0


def test_explicit_rejects_duplicate_words():
    surface = SURFACES[2]
    system = CurveSystem(
        surface=surface, curves=(Curve(0, (1,)), Curve(0, (1,)))
    )
    with pytest.raises(DomainError):
        total_crossings_explicit(system)


def test_two_curves_distinct_necklaces_zero():
    surface = SURFACES[2]
    system = CurveSystem(
        surface=surface, curves=(Curve(0, (1,)), Curve(1, (1,)))
    )
    assert total_crossings_explicit(system) == 0


@pytest.mark.parametrize("h", range(2, 7))
def test_analytic_equals_explicit_one_necklace(h):
    words = list(product((1, 2, 3, 4), repeat=h - 1))
    surface = SURFACES[h]
    curves = tuple(Curve(0, w) for w in words)
    system = CurveSystem(surface=surface, curves=curves)
    explicit = total_crossings_explicit(system)
    assert explicit == necklace_family_crossings(h)
    # per-annulus direct sums agree with the closed form too
    assert explicit == sum(
        annulus_family_crossings(h - 1, a) for a in range(h - 1)
    )


@pytest.mark.parametrize("g", [16, 36, 64])
def test_analytic_equals_explicit_full_system(g):
    surface = plan_composite(g, Fraction(0))
    system = generate_system(surface)
    assert total_crossings_analytic(surface) == total_crossings_explicit(system)


@pytest.mark.parametrize("h", range(2, 7))
def test_per_necklace_crossing_bound(h):
    family_size = 4 ** (h - 1)
    bound = (h - 1) * family_size * (family_size - 1) // 2
    assert necklace_family_crossings(h) <= bound


def test_closed_form_matches_annulus_sums_moderate_sizes():
    for n in range(2, 24):
        total = sum(annulus_family_crossings(n, a) for a in range(n))
        assert total == necklace_family_crossings(n + 1)


def _necklace_family_crossings_by_powers(h):
    """The closed form as first written, with 4**k for the shifts."""
    n = h - 1
    if n < 2:
        return 0
    s1 = (4 ** (2 * n - 3) - 4 ** (n - 2)) // 3
    m = n - 2
    s2 = 0
    if m > 0:
        s2 = (12 * m * 4 ** (2 * n - 6) - 4 ** (2 * n - 5) + 4 ** (n - 3)) // 9
    return 72 * s1 + 720 * s2


@pytest.mark.parametrize("hs", [range(2, 2001), [5 * 10 ** 5]])
def test_closed_form_shifts_match_powers_of_4(hs):
    for h in hs:
        assert necklace_family_crossings(h) == _necklace_family_crossings_by_powers(h), h


def test_oracle_examples():
    surface = SURFACES[2]
    assert oracle_crossings_pl(Curve(0, (1,)), Curve(0, (3,)), surface) == 0
    surface3 = SURFACES[3]
    # interleaving in both annuli
    assert (
        oracle_crossings_pl(Curve(0, (1, 2)), Curve(0, (2, 1)), surface3)
        == pair_intersection(Curve(0, (1, 2)), Curve(0, (2, 1)), surface3)
        == 2
    )


def test_oracle_rejects_bad_inputs():
    surface = SURFACES[3]
    with pytest.raises(DomainError):
        oracle_crossings_pl(Curve(0, (1, 2)), Curve(1, (2, 1)), surface)
    with pytest.raises(DomainError):
        oracle_crossings_pl(Curve(0, (1, 2)), Curve(0, (1, 2)), surface)
    with pytest.raises(DomainError):
        oracle_crossings_pl(Curve(0, (1, 2)), Curve(0, (2, 1)), surface, resolution=3)


def test_oracle_resolution_independent():
    surface = SURFACES[4]
    c1, c2 = Curve(0, (1, 3, 2)), Curve(0, (3, 1, 4))
    counts = {oracle_crossings_pl(c1, c2, surface, resolution=r) for r in (4, 5, 8, 13)}
    assert len(counts) == 1


@given(data=st.data(), h=st.integers(min_value=2, max_value=6))
@settings(max_examples=200, deadline=None)
def test_oracle_agrees_with_rule(data, h):
    surface = SURFACES[h]
    n = h - 1
    u = data.draw(_word_strategy(n))
    w = data.draw(_word_strategy(n))
    if u == w:
        return
    c1, c2 = Curve(0, u), Curve(0, w)
    assert oracle_crossings_pl(c1, c2, surface) == pair_intersection(c1, c2, surface)


def test_oracle_exhaustive_h3():
    surface = SURFACES[3]
    words = list(product((1, 2, 3, 4), repeat=2))
    for u, w in combinations(words, 2):
        c1, c2 = Curve(0, u), Curve(0, w)
        assert oracle_crossings_pl(c1, c2, surface) == pair_intersection(
            c1, c2, surface
        )


def test_frozen_family_totals_via_oracle():
    # per-necklace totals pinned by summing the drawing oracle over all pairs
    for h, expected in ((2, 0), (3, 72)):
        surface = SURFACES[h]
        words = list(product((1, 2, 3, 4), repeat=h - 1))
        total = sum(
            oracle_crossings_pl(Curve(0, u), Curve(0, w), surface)
            for u, w in combinations(words, 2)
        )
        assert total == expected == necklace_family_crossings(h)
    # twelve disjoint copies of the h=3 family
    assert total_crossings_analytic(plan_composite(36, Fraction(0))) == 12 * 72


@given(h=st.integers(min_value=2, max_value=2000), h_prime=st.integers(1, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_analytic_total_is_h_prime_necklace_families(h, h_prime):
    surface = CompositeSurface(g=h * h_prime, alpha=Fraction(0), h=h, h_prime=h_prime, base_genus=0)
    assert total_crossings_analytic(surface) == h_prime * necklace_family_crossings(h)


def test_analytic_total_refuses_a_genus_one_necklace():
    surface = CompositeSurface(g=3, alpha=Fraction(0), h=1, h_prime=3, base_genus=0)
    with pytest.raises(DomainError, match="necklace genus"):
        total_crossings_analytic(surface)


def test_oracle_perturbation_retry():
    # at resolution 4 these strands cross exactly on a shared sample vertex,
    # so the first drawing is degenerate and the rank-indexed retry must land
    from sparsecurves.intersections import _count_drawing_crossings, _Degenerate, _polyline

    surface = SURFACES[3]
    c1, c2 = Curve(0, (1, 2)), Curve(0, (3, 1))
    with pytest.raises(_Degenerate):
        _count_drawing_crossings(
            _polyline(c1.word, [0, 0], 3, 0), _polyline(c2.word, [0, 0], 3, 0)
        )
    assert oracle_crossings_pl(c1, c2, surface, resolution=4) == pair_intersection(
        c1, c2, surface
    )


def test_oracle_exhaustive_h3_low_resolution():
    # resolution 4 maximizes sample-vertex collisions; every pair still agrees
    surface = SURFACES[3]
    words = list(product((1, 2, 3, 4), repeat=2))
    for u, w in combinations(words, 2):
        c1, c2 = Curve(0, u), Curve(0, w)
        assert oracle_crossings_pl(c1, c2, surface, resolution=4) == pair_intersection(
            c1, c2, surface
        )
