"""Family generation, system assembly, and sparsity verdicts."""

import time
from fractions import Fraction
from itertools import islice, product
from operator import eq
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsecurves.curves import (
    EXPLICIT_WORD_LIMIT,
    Curve,
    CurveSystem,
    SparsityThreshold,
    generate_system,
    sparsity_chain_check,
    verify_sparsity,
)
from sparsecurves import intersections
from sparsecurves.errors import DomainError
from sparsecurves.homology import certify_distinct, certify_generated
from sparsecurves.intersections import (
    necklace_family_crossings,
    total_crossings,
    total_crossings_explicit,
)
from sparsecurves.surfaces import CompositeSurface, plan_composite


def _small_families():
    """(g, alpha) planning at most 256 words per necklace and 6,000 curves."""
    cases = []
    for alpha in (Fraction(-1, 3), Fraction(0), Fraction(1, 3), Fraction(1, 2)):
        for g in range(16, 130):
            try:
                surface = plan_composite(g, alpha)
            except DomainError:
                continue
            words = 4 ** (surface.h - 1)
            if words <= 256 and surface.h_prime * words <= 6000:
                cases.append((g, alpha))
    return cases


SMALL_FAMILIES = _small_families()


def test_family_h2_is_alphabet():
    system = generate_system(plan_composite(16, Fraction(0)))  # h = 2, h' = 8
    assert list(system.iter_curves()) == [
        Curve(k, (a,)) for k in range(8) for a in (1, 2, 3, 4)
    ]


def test_family_h3_is_cartesian_square():
    system = generate_system(plan_composite(36, Fraction(0)))  # h = 3
    family = [c.word for c in islice(system.iter_curves(), 16)]
    assert family[0] == (1, 1)
    assert family[-1] == (4, 4)
    assert family == sorted(family) == list(product((1, 2, 3, 4), repeat=2))


def test_family_cap():
    # the explicit counter refuses a full family past EXPLICIT_WORD_LIMIT
    # words per necklace before listing one, and counts one at the limit
    surface = plan_composite(256, Fraction(0))  # h = 8: 16,384 words
    with mock.patch.object(intersections, "_full_family_words", side_effect=AssertionError):
        with pytest.raises(DomainError, match="exceeds the explicit limit of 4096"):
            total_crossings_explicit(generate_system(surface))
    surface = plan_composite(196, Fraction(0))  # h = 7: 4,096 words
    assert total_crossings_explicit(generate_system(surface)) == (
        surface.h_prime * necklace_family_crossings(7)
    )


@pytest.mark.parametrize("h", [10 ** 4, 10 ** 8])
def test_family_cap_is_compared_by_bit_length(h):
    # 4**(h-1) has 2*10**4 or 2*10**8 bits; it is neither built nor printed
    surface = plan_composite(2 * h, Fraction(1))
    assert surface.h == h
    start = time.perf_counter()
    with pytest.raises(DomainError, match="exceeds the explicit limit"):
        total_crossings_explicit(generate_system(surface))
    assert time.perf_counter() - start < 0.5


def test_full_family_is_listed_lazily():
    system = generate_system(plan_composite(64, Fraction(1)))  # 4**31 words a necklace
    assert next(system.iter_curves()) == Curve(0, (1,) * 31)


@st.composite
def _repeating_systems(draw):
    """Listed systems on four necklaces of the g=100 plan, with repeats, given
    in any order."""
    surface = plan_composite(100, Fraction(0))  # h = 5: words of 4 letters
    curves = draw(
        st.lists(
            st.builds(
                Curve,
                st.integers(min_value=0, max_value=3),
                st.tuples(*[st.integers(min_value=1, max_value=4)] * 4),
            ),
            max_size=24,
        )
    )
    curves += draw(st.lists(st.sampled_from(curves), max_size=3)) if curves else []
    return CurveSystem(surface, tuple(draw(st.permutations(curves))))


@given(system=_repeating_systems(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_first_repeat_and_holds_match_the_sorted_curves(system, data):
    curves = sorted(system.curves)
    repeats = [u for u, w in zip(curves, curves[1:]) if u == w]
    assert system.first_repeat == (repeats[0] if repeats else None)
    listed = set(system.curves)
    probes = [Curve(k, w) for k, w in product(range(5), [(1, 1, 1, 1), (4, 4, 4, 4)])]
    for necklace, blob in system.packed:
        if len(blob) >= 8:  # a word straddling the first two packed words
            probes.append(Curve(necklace, tuple(blob[2:6])))
    probes += data.draw(st.lists(st.sampled_from(curves), max_size=3)) if curves else []
    probes += [Curve(0, (1, 2)), Curve(0, (1, 2, 3, 5))]  # not curves of the surface
    for curve in probes:
        assert system.holds(curve) == (curve in listed)


def _slice_scan_first_repeat(system):
    """`first_repeat` as a scan of one `bytes` slice per word, necklace by necklace."""
    n = system.surface.piece_count
    for necklace, blob in system.packed:
        words = [blob[i : i + n] for i in range(0, len(blob), n)]
        k = bytes(map(eq, words, words[1:])).find(1)
        if k >= 0:
            return Curve(necklace, tuple(words[k]))
    return None


@st.composite
def _systems_with_one_placed_repeat(draw):
    """A listed system with words of n = 1 to 7 letters on up to three
    necklaces, each necklace's words distinct, and then one repeat placed:
    on the first word, on the last word, on a necklace after the first, or
    none.  Letters come from a narrow range now and then, so that
    neighbouring words share most of their letters."""
    n = draw(st.integers(min_value=1, max_value=7))
    surface = plan_composite(4 * (n + 1) ** 2, Fraction(0))  # h = n + 1
    top = draw(st.sampled_from([2, 4]))
    letters = st.tuples(*[st.integers(min_value=1, max_value=top)] * n)
    necklaces = sorted(draw(st.sets(st.integers(0, surface.h_prime - 1), min_size=1, max_size=3)))
    groups = {k: sorted(draw(st.sets(letters, min_size=1, max_size=40))) for k in necklaces}
    place = draw(st.sampled_from(["first", "last", "later", "none"]))
    if place == "first":
        k = necklaces[0]
        groups[k].insert(0, groups[k][0])
    elif place == "last":
        k = necklaces[-1]
        groups[k].append(groups[k][-1])
    elif place == "later" and len(necklaces) > 1:
        k = draw(st.sampled_from(necklaces[1:]))
        groups[k].append(draw(st.sampled_from(groups[k])))
    curves = [Curve(k, word) for k, words in groups.items() for word in words]
    return CurveSystem(surface, tuple(draw(st.permutations(curves))))


@given(system=_systems_with_one_placed_repeat())
@settings(max_examples=400, deadline=None)
def test_first_repeat_matches_the_slice_scan(system):
    assert system.first_repeat == _slice_scan_first_repeat(system)


@pytest.mark.parametrize("k", [1, 2, 2048, 4095])
def test_first_repeat_in_the_h7_family_matches_the_slice_scan(k):
    # the 4,096 words of h = 7 on necklace 27 with word k written over word k-1
    surface = plan_composite(196, Fraction(0))
    n = surface.piece_count
    family = intersections._full_family_words(n)
    blob = bytearray(family)
    blob[k * n : (k + 1) * n] = blob[(k - 1) * n : k * n]
    system = CurveSystem.from_packed(surface, ((0, family), (27, bytes(blob))))
    expected = Curve(27, tuple(blob[k * n : (k + 1) * n]))
    assert system.first_repeat == _slice_scan_first_repeat(system) == expected


def test_a_repeat_is_found_once_for_the_counter_and_the_certificate():
    surface = plan_composite(100, Fraction(0))
    curves = (Curve(3, (4, 3, 3, 3)), Curve(1, (1, 2, 3, 4)), Curve(3, (4, 3, 3, 3)))
    system = CurveSystem(surface, curves)
    with pytest.raises(DomainError, match=r"^duplicate curve 3:4333$"):
        total_crossings(system)
    assert "first_repeat" in vars(system)
    repeat = vars(system)["first_repeat"]
    assert certify_distinct(system).collision == (repeat, repeat)
    assert str(repeat) == "3:4333"


def test_full_family_holds_exactly_the_curves_of_its_surface():
    system = generate_system(plan_composite(36, Fraction(0)))  # h = 3, h' = 12
    assert system.holds(Curve(11, (4, 1)))
    assert not system.holds(Curve(12, (4, 1)))
    assert not system.holds(Curve(0, (4, 5)))
    assert system.first_repeat is None


def test_a_full_system_refuses_a_curve_list():
    # a full system is written as "curves": "full", which would drop the list
    surface = plan_composite(36, Fraction(0))
    with pytest.raises(DomainError, match="full system"):
        CurveSystem(surface, (Curve(0, (1, 2)),), full=True)
    assert CurveSystem(surface, (), full=True) == generate_system(surface)


@pytest.mark.parametrize(
    "curve, message",
    [
        (Curve(True, (1, 1)), r"^necklace index True outside \[0, 12\)$"),
        (Curve(0, (True, 2)), r"^arc label must be in \(1, 2, 3, 4\), got True$"),
        (Curve(0, (1.0, 2)), r"^arc label must be in \(1, 2, 3, 4\), got 1\.0$"),
    ],
    ids=["bool-necklace", "bool-letter", "float-letter"],
)
def test_curves_take_exact_ints_only(curve, message):
    # a bool necklace would be written as JSON true, and a float letter
    # cannot be packed as a letter code
    surface = plan_composite(36, Fraction(0))
    with pytest.raises(DomainError, match=message):
        CurveSystem(surface, (curve,))
    assert not generate_system(surface).holds(curve)


def test_curve_text_shows_a_necklace_past_the_digit_limit_by_its_size():
    assert str(Curve(10**5000, (1, 2))) == "[bits=16610,log10=5000.0]:12"
    assert str(Curve(3, (4, 3, 3, 3))) == "3:4333"


def test_generate_system_counts():
    for g, expected in ((16, 32), (36, 192), (64, 1024)):
        surface = plan_composite(g, Fraction(0))
        system = generate_system(surface)
        assert system.curve_count == expected
        assert system.curve_count == surface.h_prime * 4 ** (surface.h - 1)
        assert system.full and system.curves == ()
        curves = list(system.iter_curves())
        assert len(curves) == expected
        words_len = {len(c.word) for c in curves}
        assert words_len == {surface.h - 1}
        assert len(set(curves)) == len(curves)
        assert certify_distinct(CurveSystem(surface, tuple(curves))).distinct


def test_generate_system_canonical_order():
    system = generate_system(plan_composite(36, Fraction(0)))
    curves = list(system.iter_curves())
    assert len(curves) == system.curve_count == 192
    assert curves == sorted(curves)


def test_analytic_system_counts_only():
    surface = plan_composite(64, Fraction(1))  # h = 32: far beyond enumeration
    system = generate_system(surface)
    assert system.full and system.curves == ()
    assert system.mode == "analytic"
    assert system.curve_count == surface.h_prime * 4 ** (surface.h - 1)


def test_verify_sparsity_g16():
    surface = plan_composite(16, Fraction(0))
    system = generate_system(surface)
    report = verify_sparsity(system, SparsityThreshold.rational(1))
    assert report.total_crossings == 0
    assert report.pair_count == 496
    assert report.is_sparse
    assert report.mode == "explicit"
    assert verify_sparsity(system, SparsityThreshold.rational(1)) == report


def test_verify_sparsity_rejects_tiny_systems():
    surface = plan_composite(16, Fraction(0))
    singleton = CurveSystem(surface=surface, curves=(Curve(0, (1,)),))
    with pytest.raises(DomainError, match="undefined"):
        verify_sparsity(singleton, SparsityThreshold.rational(1))


def test_two_crossing_curves_fail_threshold_one():
    # two curves crossing twice: average 2 > 1
    surface = plan_composite(36, Fraction(0))  # h = 3, two annuli
    curves = (Curve(0, (1, 2)), Curve(0, (2, 1)))
    system = CurveSystem(surface=surface, curves=curves)
    report = verify_sparsity(system, SparsityThreshold.rational(1))
    assert report.total_crossings == 2
    assert report.pair_count == 1
    assert not report.is_sparse


def test_threshold_power_comparisons_exact():
    t = SparsityThreshold.power(Fraction(1, 2))
    # 4 <= 1 * 17**(1/2) is false (sqrt(17) = 4.12...; 4 <= 4.12 true); check both sides
    assert t.admits(4, 1, 17)
    assert not t.admits(5, 1, 17)
    # boundary: 4 <= sqrt(16) exactly
    assert t.admits(4, 1, 16)
    neg = SparsityThreshold.power(Fraction(-1))
    assert neg.admits(1, 100, 100)  # 1 <= 100/100
    assert not neg.admits(2, 100, 100)


def test_threshold_rejects_nonpositive_rational():
    with pytest.raises(DomainError):
        SparsityThreshold.rational(0)


def test_sparsity_chain_g36():
    surface = plan_composite(36, Fraction(0))
    system = generate_system(surface)
    report = verify_sparsity(system, SparsityThreshold.power(Fraction(0)))
    first, second = sparsity_chain_check(
        report.total_crossings, report.pair_count, surface
    )
    assert first and second


@given(
    case=st.sampled_from(SMALL_FAMILIES),
    f=st.one_of(st.none(), st.fractions(min_value=Fraction(1, 100), max_value=4)),
)
@settings(max_examples=40, deadline=None)
def test_described_family_matches_its_listing(case, f):
    # the described full family against the same family listed curve by curve
    g, alpha = case
    full = generate_system(plan_composite(g, alpha))
    listed = CurveSystem(full.surface, tuple(full.iter_curves()))
    threshold = SparsityThreshold.power(alpha) if f is None else SparsityThreshold.rational(f)
    described = verify_sparsity(full, threshold)
    assert described == verify_sparsity(listed, threshold)
    assert described.mode == "explicit"
    assert certify_generated(full.surface).distinct
    assert certify_distinct(listed).distinct


@pytest.mark.parametrize("h", range(2, 41))
def test_full_family_count_and_mode_match_powers_of_4(h):
    # h = 7 has 4,096 words per necklace, the last explicit size; h = 8 is analytic
    for surface in (plan_composite(4 * h * h, 0), plan_composite(2 * h, 1)):
        assert surface.h == h
        system = generate_system(surface)
        assert system.curve_count == surface.h_prime * 4 ** (h - 1)
        expected = "analytic" if 4 ** (h - 1) > EXPLICIT_WORD_LIMIT else "explicit"
        assert system.mode == expected
    assert (system.mode == "explicit") == (h <= 7)


@given(h=st.integers(min_value=2, max_value=3000), h_prime=st.integers(1, 10**6))
@example(h=2, h_prime=1)  # n = 4 curves: the smallest shift, e - 1 = 1
@settings(max_examples=100, deadline=None)
def test_full_family_pair_count_by_shifts_matches_the_product(h, h_prime):
    surface = CompositeSurface(g=h * h_prime, alpha=Fraction(0), h=h, h_prime=h_prime, base_genus=0)
    system = generate_system(surface)
    n = system.curve_count
    assert system.pair_count == n * (n - 1) // 2
