"""Composite-surface planning."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecurves.errors import DomainError
from sparsecurves.exactint import floor_scaled_power, min_admissible_genus
from sparsecurves.surfaces import MAX_NECKLACE_GENUS, plan_composite


def test_plan_composite_examples():
    s = plan_composite(16, Fraction(0))
    assert (s.h, s.h_prime, s.base_genus) == (2, 8, 0)
    s = plan_composite(36, Fraction(0))
    assert (s.h, s.h_prime, s.base_genus) == (3, 12, 0)
    s = plan_composite(64, Fraction(0))
    assert (s.h, s.h_prime, s.base_genus) == (4, 16, 0)
    s = plan_composite(100, Fraction(0))
    assert (s.h, s.h_prime, s.base_genus) == (5, 20, 0)


def test_plan_composite_threshold_error_reports_minimal_genus():
    with pytest.raises(DomainError, match="g >= 16"):
        plan_composite(15, Fraction(0))
    with pytest.raises(DomainError, match="g >= 4"):
        plan_composite(3, Fraction(1))


def test_plan_composite_rejects_bad_alpha():
    with pytest.raises(DomainError):
        plan_composite(100, Fraction(-1))
    with pytest.raises(DomainError):
        plan_composite(100, Fraction(3, 2))


def test_plan_composite_deterministic():
    a = plan_composite(1234, Fraction(1, 3))
    b = plan_composite(1234, Fraction(1, 3))
    assert a == b


@given(
    g=st.integers(min_value=16, max_value=10 ** 6),
    p=st.integers(min_value=-2, max_value=3),
    q=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200)
def test_plan_composite_invariants(g, p, q):
    alpha = Fraction(p, q)
    if not (Fraction(-1) < alpha <= 1):
        return
    if g < min_admissible_genus(alpha):
        return
    s = plan_composite(g, alpha)
    assert 2 <= s.h <= g
    assert s.h * s.h_prime <= g
    assert s.base_genus == g - s.h * s.h_prime >= 0


@given(
    g_alpha=st.one_of(
        st.tuples(
            st.integers(min_value=1, max_value=10 ** 12),
            st.fractions(min_value=Fraction(-11, 12), max_value=1, max_denominator=12),
        ),
        st.tuples(
            st.integers(min_value=1, max_value=10 ** 6),
            st.sampled_from([Fraction(999, 1000), Fraction(-999, 1000)]),
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_every_admissible_plan_meets_the_surface_rules(g_alpha):
    # a surface is valid exactly when it is its plan, so these rules must hold
    # by construction; at g <= 10**6, alpha = -999/1000 admits no plan
    g, alpha = g_alpha
    if g < min_admissible_genus(alpha):
        with pytest.raises(DomainError, match=r"^g >= \d+ required"):
            plan_composite(g, alpha)
        return
    if floor_scaled_power(Fraction(1, 2), g, (1 + alpha) / 2) > MAX_NECKLACE_GENUS:
        with pytest.raises(DomainError, match="cannot be held$"):
            plan_composite(g, alpha)
        return
    s = plan_composite(g, alpha)
    assert 2 <= s.h and 2 * s.h <= g
    assert s.h * s.h_prime <= g
    assert s.base_genus == g - s.h * s.h_prime >= 0


@given(
    g=st.integers(min_value=16, max_value=10 ** 8),
    alpha=st.fractions(min_value=Fraction(-23, 24), max_value=1, max_denominator=24),
)
@settings(max_examples=200)
def test_every_plan_up_to_g_1e8_is_accepted(g, alpha):
    if g >= min_admissible_genus(alpha):
        assert plan_composite(g, alpha).h <= MAX_NECKLACE_GENUS


def test_plans_past_the_necklace_genus_limit_are_refused():
    # at alpha = 1, h = floor(g/2) is the largest necklace genus of any plan
    assert plan_composite(10 ** 8, Fraction(1)).h == 5 * 10 ** 7
    assert plan_composite(2 * MAX_NECKLACE_GENUS + 1, Fraction(1)).h == MAX_NECKLACE_GENUS
    for g in (2 * MAX_NECKLACE_GENUS + 2, 10 ** 12):
        with pytest.raises(DomainError, match="cannot be held"):
            plan_composite(g, Fraction(1))


def test_a_plan_is_kept_and_a_refusal_is_not():
    # verify plans a full family on load and again in its certificate
    assert plan_composite(10 ** 9 + 7, Fraction(1, 3)) is plan_composite(10 ** 9 + 7, "1/3")
    for _ in range(2):
        with pytest.raises(DomainError, match="cannot be held$"):
            plan_composite(2 * MAX_NECKLACE_GENUS + 2, Fraction(1))


def test_alpha_denominator_is_bounded():
    from sparsecurves.surfaces import MAX_ALPHA_DENOMINATOR

    assert plan_composite(16, Fraction(1, MAX_ALPHA_DENOMINATOR)).h == 2
    with pytest.raises(DomainError, match="denominator of at most 1000, got 1001$"):
        plan_composite(16, Fraction(1, MAX_ALPHA_DENOMINATOR + 1))


@pytest.mark.parametrize(
    "alpha, message",
    [
        (Fraction(1, 10 ** 5000), r"denominator of at most 1000, got \[bits=16610,log10=5000\.0\]$"),
        (Fraction(10 ** 5000), r"lie in \(-1, 1\], got \[bits=16610,log10=5000\.0\]$"),
        (Fraction(2), r"lie in \(-1, 1\], got 2$"),
    ],
)
def test_alpha_check_names_values_past_the_digit_limit(alpha, message):
    from sparsecurves.surfaces import check_alpha

    with pytest.raises(DomainError, match=message):
        check_alpha(alpha)
