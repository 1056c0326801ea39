"""Homology class assignment and distinctness certificates."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsecurves.curves import Curve, CurveSystem, generate_system
from sparsecurves.errors import DomainError
from sparsecurves.homology import (
    ARC_OFFSETS,
    DistinctnessCertificate,
    certify_distinct,
    certify_generated,
    curve_class,
)
from sparsecurves.exactint import min_admissible_genus
from sparsecurves.surfaces import CompositeSurface, plan_composite


def test_offsets_are_injective():
    assert len(set(ARC_OFFSETS.values())) == 4


def test_all_ones_word_reduces_to_longitude():
    surface = plan_composite(36, Fraction(0))  # h=3
    cls = curve_class(Curve(0, (1, 1)), surface)
    coords = cls.coefficients
    assert len(coords) == 2 * surface.g
    # arc 1 contributes zero offsets; only the longitude slot is set
    assert sum(map(abs, coords)) == 1
    assert coords[2 * (surface.h - 1)] == 1


def test_single_letter_change_moves_one_block():
    surface = plan_composite(64, Fraction(0))  # h=4
    base = curve_class(Curve(0, (1, 2, 3)), surface).coefficients
    changed = curve_class(Curve(0, (1, 4, 3)), surface).coefficients
    diff = [i for i, (a, b) in enumerate(zip(base, changed)) if a != b]
    # exactly one piece's 2-slot block moves
    assert diff == [2, 3] or diff == [2] or diff == [3]
    block = 2 * 1  # piece index 1
    assert all(i in (block, block + 1) for i in diff)


def test_distinct_necklaces_distinct_classes():
    surface = plan_composite(36, Fraction(0))
    c1 = curve_class(Curve(0, (1, 1)), surface)
    c2 = curve_class(Curve(1, (1, 1)), surface)
    assert c1 != c2
    # non-overlapping support
    support1 = {i for i, v in enumerate(c1.coefficients) if v}
    support2 = {i for i, v in enumerate(c2.coefficients) if v}
    assert support1.isdisjoint(support2)
    assert support1 and support2


def test_vector_length_is_2g_with_base_genus():
    surface = plan_composite(17, Fraction(0))  # h=2, h'=8, base genus 1
    assert surface.base_genus == 1
    cls = curve_class(Curve(3, (2,)), surface)
    assert len(cls.coefficients) == 2 * 17


def test_curve_class_validates():
    surface = plan_composite(16, Fraction(0))
    with pytest.raises(DomainError):
        curve_class(Curve(0, (1, 2)), surface)  # wrong word length
    with pytest.raises(DomainError):
        curve_class(Curve(99, (1,)), surface)  # necklace out of range


@pytest.mark.parametrize("h", range(2, 7))
def test_word_class_injectivity_exhaustive(h):
    surface = plan_composite(4 * h * h, Fraction(0))
    assert surface.h == h
    words = list(product((1, 2, 3, 4), repeat=h - 1))
    classes = {curve_class(Curve(0, w), surface).coefficients for w in words}
    assert len(classes) == len(words) == 4 ** (h - 1)


@pytest.mark.parametrize("g", [16, 36, 64])
def test_certify_generated_systems(g):
    system = generate_system(plan_composite(g, Fraction(0)))
    certificate = certify_distinct(system)
    assert certificate.distinct
    assert certificate.collision is None


def test_certify_duplicate_word_fails_with_witness():
    surface = plan_composite(16, Fraction(0))
    curves = (Curve(0, (1,)), Curve(0, (2,)), Curve(0, (1,)))
    system = CurveSystem(surface=surface, curves=curves)
    certificate = certify_distinct(system)
    assert not certificate.distinct
    assert certificate.collision == (Curve(0, (1,)), Curve(0, (1,)))


def test_certify_single_curve_system():
    surface = plan_composite(16, Fraction(0))
    system = CurveSystem(surface=surface, curves=(Curve(0, (1,)),))
    assert certify_distinct(system).distinct


def test_certify_generated_shortcut():
    surface = plan_composite(64, Fraction(1))
    certificate = certify_generated(surface)
    assert certificate.distinct
    assert certificate.method == "construction"


@given(h=st.integers(min_value=2, max_value=3000), h_prime=st.integers(1, 10**6))
@example(h=3, h_prime=5)  # g = 15 has no plan at alpha = 0
@example(h=2, h_prime=18)  # the plan of g = 36 has h = 3, h' = 12
@example(h=5, h_prime=20)  # the plan of g = 100
@settings(max_examples=100, deadline=None)
def test_certify_generated_refuses_a_surface_that_is_not_its_plan(h, h_prime):
    # at alpha = 0, g = h*h' plans h = floor(sqrt(g)/2) and h' = floor(2*sqrt(g)),
    # whose product is g only when both floors are exact, i.e. h' = 4h
    surface = CompositeSurface(g=h * h_prime, alpha=Fraction(0), h=h, h_prime=h_prime, base_genus=0)
    if h_prime == 4 * h:
        assert certify_generated(surface) == DistinctnessCertificate(True, "construction")
    else:
        with pytest.raises(DomainError):
            certify_generated(surface)


def test_certify_generated_says_why_it_refuses():
    surface = CompositeSurface(g=36, alpha=Fraction(0), h=2, h_prime=18, base_genus=0)
    with pytest.raises(DomainError, match="^surface is not the plan of its g and alpha$"):
        certify_generated(surface)


@given(
    g=st.integers(min_value=1, max_value=10 ** 8),
    alpha=st.fractions(min_value=Fraction(-23, 24), max_value=1, max_denominator=24),
)
@settings(max_examples=200, deadline=None)
def test_certify_generated_certifies_every_plan(g, alpha):
    if g < min_admissible_genus(alpha):
        return
    certificate = certify_generated(plan_composite(g, alpha))
    assert certificate == DistinctnessCertificate(True, "construction")


@pytest.mark.parametrize("g, alpha", [(196, 0), (10 ** 6, 1)])
def test_certify_distinct_certifies_a_full_family_by_its_construction(g, alpha):
    # g = 10**6 at alpha = 1 has 4**499999 words per necklace: none is listed
    surface = plan_composite(g, Fraction(alpha))
    certificate = certify_distinct(generate_system(surface))
    assert certificate == certify_generated(surface)
    assert certificate.method == "construction"


def _dense_certificate(surface, curves) -> DistinctnessCertificate:
    """The certificate keyed on each curve's full 2g-length class vector,
    scanned in (necklace, word) order."""
    classes = [curve_class(curve, surface).coefficients for curve in curves]
    seen = {}
    for curve, key in sorted(zip(curves, classes)):
        if key in seen:
            return DistinctnessCertificate(False, "exhaustive", (seen[key], curve))
        seen[key] = curve
    return DistinctnessCertificate(True, "exhaustive")


def _outcome(certify, *args):
    try:
        return certify(*args)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


@st.composite
def _listed_systems(draw):
    """Surfaces with h = 2..4 (and a base handle at g=17), each with curves in
    arbitrary order, with duplicates, and sometimes an out-of-range necklace
    or a malformed word."""
    surface = plan_composite(draw(st.sampled_from([16, 17, 36, 64, 65])), Fraction(0))
    n = surface.piece_count
    necklace = st.integers(min_value=0, max_value=surface.h_prime - 1)
    word = st.tuples(*[st.sampled_from((1, 2, 3, 4))] * n)
    curves = draw(st.lists(st.builds(Curve, necklace, word), max_size=40))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if curves:
            copy = curves[draw(st.integers(min_value=0, max_value=len(curves) - 1))]
            curves.insert(draw(st.integers(min_value=0, max_value=len(curves))), copy)
    bad = st.one_of(
        st.builds(Curve, st.sampled_from([-1, surface.h_prime, 0.5]), word),
        st.builds(Curve, necklace, st.tuples(*[st.sampled_from((1, 2, 3, 4))] * (n + 1))),
        st.builds(Curve, necklace, st.tuples(*[st.sampled_from((0, 1, 4, 5))] * n)),
    )
    if curves and draw(st.booleans()):
        curves.insert(draw(st.integers(min_value=0, max_value=len(curves))), draw(bad))
    return surface, tuple(curves)


@given(listed=_listed_systems())
@settings(max_examples=300, deadline=None)
def test_curve_key_matches_the_dense_class_key(listed):
    # same verdict, same collision pair, same exception type; building the
    # system is part of the production outcome
    surface, curves = listed

    def production(surface, curves):
        return certify_distinct(CurveSystem(surface, curves))

    assert _outcome(production, surface, curves) == _outcome(_dense_certificate, surface, curves)
