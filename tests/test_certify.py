"""The refinement loop `logspace.refine`, the comparison `logspace.certify` and
the inequality gate, each of them settled by that loop."""

import math
import signal
from contextlib import contextmanager
from decimal import Decimal
from functools import cache
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from sparsecurves import bounds as bounds_module
from sparsecurves.bounds import (
    CrossingInequalityVerdict,
    InequalityStatus,
    _ceiling,
    _check_genus,
    crossing_inequality_check,
)
from sparsecurves.errors import DomainError, PrecisionError
from sparsecurves.logspace import (
    MAX_DIGITS,
    Interval,
    certify,
    check_digits,
    interval_context,
    ln_int,
    log10_int,
    midpoint,
    nstr,
    refine,
)

KERNEL_CAP = 400

positive = st.integers(min_value=1, max_value=10 ** 80)


def _log_of(n):
    return lambda d: log10_int(interval_context(d), n)


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=150, deadline=None)
@given(
    a=positive,
    b_far=positive,
    delta=st.integers(-3, 3),
    near=st.booleans(),
    digits=st.integers(1, 60),
)
def test_certify_agrees_with_exact_comparison(a, b_far, delta, near, digits):
    b = a + delta if near else b_far
    assume(b >= 1 and a != b)
    verdict, settled = certify(_log_of(a), _log_of(b), digits=digits, max_digits=KERNEL_CAP)
    assert verdict == (a < b)
    assert digits <= settled <= KERNEL_CAP


@settings(max_examples=40, deadline=None)
@given(a=st.integers(min_value=2, max_value=10 ** 80), digits=st.integers(1, 30))
def test_certify_equal_values_hit_the_cap(a, digits):
    with pytest.raises(PrecisionError):
        certify(_log_of(a), _log_of(a), digits=digits, max_digits=40)


def test_certify_decides_equal_exact_points():
    # log10(1) = 0 is enclosed by the single point [0, 0]
    assert certify(_log_of(1), _log_of(1), digits=1) == (True, 1)


@pytest.mark.parametrize("digits", [0, -1])
def test_certify_rejects_precision_below_one(digits):
    with pytest.raises(DomainError):
        certify(_log_of(2), _log_of(3), digits=digits)


def test_near_threshold_gate_returns_at_once():
    # m sits 0.5 above e**6 * (2g-1); at digits=0 the doubling never moved and
    # this call did not return
    g, m, cr = 10 ** 6, 806857184, 10 ** 12
    with _deadline(30):
        with pytest.raises(DomainError):
            crossing_inequality_check(g, m, cr, digits=0)
        for digits in (1, 50):
            verdict = crossing_inequality_check(g, m, cr, digits=digits)
            assert verdict.status is InequalityStatus.HOLDS


def _plain_status(g, m, cr):
    """Status from a plain 200-digit evaluation, or None within 1e-30 of a tie."""
    with mp.workdps(200):
        tie = mp.mpf("1e-30")
        size = mp.log10(m)
        threshold = mp.log10(2 * g - 1) + 6 / mp.log(10)
        if abs(size - threshold) <= tie:
            return None
        if size < threshold:
            return InequalityStatus.NOT_APPLICABLE
        if cr == 0:
            return InequalityStatus.INCONSISTENT
        gap = mp.log(m) - mp.log(2 * g - 1) - 6
        left = 2 * (size + mp.log10(gap)) - mp.log10(128 * (2 * g - 2))
        crossings = mp.log10(cr)
        if abs(left - crossings) <= tie:
            return None
        return InequalityStatus.HOLDS if left < crossings else InequalityStatus.INCONSISTENT


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    g=st.integers(2, 10 ** 6),
    m=st.integers(1, 13).flatmap(lambda k: st.integers(2, 10 ** k)),
    cr=st.integers(0, 40).flatmap(lambda k: st.integers(0, 10 ** k)),
    digits=st.sampled_from([1, 3, 50]),
)
def test_inequality_status_matches_plain_evaluation(g, m, cr, digits):
    expected = _plain_status(g, m, cr)
    assume(expected is not None)
    verdict = crossing_inequality_check(g, m, cr, digits=digits)
    assert verdict.status is expected
    assert digits <= verdict.digits <= MAX_DIGITS


# ----------------------------------------------------------------------
# refine, and the two loops it replaced
# ----------------------------------------------------------------------


def _recording(settle_at):
    """A step that settles from precision `settle_at` on, and the precisions
    it was called at."""
    calls = []

    def step(d):
        calls.append(d)
        return "settled" if d >= settle_at else None

    return step, calls


@given(digits=st.integers(1, 300), max_digits=st.integers(1, 3000), settle_at=st.integers(1, 3000))
@example(digits=3, max_digits=40, settle_at=41)  # calls 3, 6, 12, 24 and 40, then raises
@example(digits=50, max_digits=40, settle_at=51)  # one call above the cap, then raises
def test_refine_doubles_to_the_cap_and_returns_the_first_settled_digits(
    digits, max_digits, settle_at
):
    step, calls = _recording(settle_at)
    expected = [digits]
    while expected[-1] < settle_at and expected[-1] < max_digits:
        expected.append(min(2 * expected[-1], max_digits))
    if expected[-1] >= settle_at:
        assert refine(step, digits=digits, max_digits=max_digits) == ("settled", expected[-1])
    else:
        with pytest.raises(PrecisionError):
            refine(step, digits=digits, max_digits=max_digits)
    assert calls == expected
    # only a first precision already above the cap is ever called above it
    assert all(d <= max(digits, max_digits) for d in calls)


def test_refine_settles_on_any_value_but_none():
    for value in (False, 0, "", ()):
        assert refine(lambda d: value, digits=3) == (value, 3)


@pytest.mark.parametrize("digits", [0, -1, -(10 ** 40)])
def test_refine_rejects_precision_below_one_before_any_step(digits):
    step, calls = _recording(settle_at=1)
    with pytest.raises(DomainError):
        refine(step, digits=digits)
    assert calls == []


def _old_certify(eval_a, eval_b, *, strict=False, digits=50, max_digits=MAX_DIGITS):
    """The loop `certify` was before `refine`; strict certified a < b."""
    check_digits(digits)
    d = digits
    while True:
        a, b = eval_a(d), eval_b(d)
        if a.hi < b.lo or (a.hi == b.lo and not strict):
            return True, d
        if b.hi < a.lo or (b.hi == a.lo and strict):
            return False, d
        if d >= max_digits:
            raise PrecisionError(
                f"comparison undecidable at {d} digits "
                f"(a in [{nstr(a.lo, 25)}, {nstr(a.hi, 25)}], "
                f"b in [{nstr(b.lo, 25)}, {nstr(b.hi, 25)}])"
            )
        d = min(2 * d, max_digits)


def _outcome(function, *args, **kwargs):
    try:
        return function(*args, **kwargs)
    except PrecisionError:
        return PrecisionError


def _enclosure(center, radius, shrinks):
    """digits -> [center - r, center + r], r = radius, or radius / digits when
    it shrinks: enclosures that touch, overlap and separate as digits grow."""

    def evaluate(d):
        r = Decimal(radius) / d if shrinks else Decimal(radius)
        return Interval(center - r, center + r, interval_context(d))

    return evaluate


@settings(max_examples=300, deadline=None)
@given(
    centers=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    radii=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    shrinks=st.tuples(st.booleans(), st.booleans()),
    digits=st.integers(1, 40),
    max_digits=st.integers(1, 80),
)
def test_certify_matches_the_old_loop(centers, radii, shrinks, digits, max_digits):
    eval_a, eval_b = (_enclosure(*args) for args in zip(centers, radii, shrinks))
    assert _outcome(certify, eval_a, eval_b, digits=digits, max_digits=max_digits) == _outcome(
        _old_certify, eval_a, eval_b, digits=digits, max_digits=max_digits
    )


def _old_gate(g, m, cr, *, digits=50, max_digits=MAX_DIGITS):
    """`crossing_inequality_check` before `refine`: three chained strict
    certifications, with the gap certified positive in between; `max_digits`
    stands for MAX_DIGITS."""
    _check_genus(g)
    if not isinstance(m, int) or m < 2:
        raise DomainError("system size must be an integer >= 2")
    if cr < 0:
        raise DomainError("crossing total must be >= 0")

    threshold = cache(_ceiling(2 * g - 1, lambda ctx: ctx.point(0)))

    @cache
    def size(d):
        return log10_int(interval_context(d), m)

    def gap(ctx):
        return ln_int(ctx, m) - ln_int(ctx, 2 * g - 1) - 6

    @cache
    def left(d):
        ctx = interval_context(d)
        gap_iv = gap(ctx)
        if gap_iv.lo <= 0:
            return Interval(Decimal("-Infinity"), Decimal("Infinity"), ctx)
        return (
            2 * (log10_int(ctx, m) + ctx.ln(gap_iv) / ctx.ln10)
            - log10_int(ctx, 128 * (2 * g - 2))
        )

    @cache
    def crossings(d):
        return log10_int(interval_context(d), cr)

    def verdict(status, d, left_eval=None, crossings_eval=None):
        return CrossingInequalityVerdict(
            status,
            midpoint(threshold(d), d),
            midpoint(size(d), d),
            None if left_eval is None else midpoint(left_eval(d), d),
            None if crossings_eval is None else midpoint(crossings_eval(d), d),
            d,
        )

    try:
        below, d = _old_certify(size, threshold, strict=True, digits=digits, max_digits=max_digits)
        if below:
            return verdict(InequalityStatus.NOT_APPLICABLE, d)
        if cr == 0:
            _, d = _old_certify(
                lambda d: interval_context(d).point(0),
                lambda d: gap(interval_context(d)),
                strict=True,
                digits=d,
                max_digits=max_digits,
            )
            return verdict(InequalityStatus.INCONSISTENT, d, left)
        holds, d = _old_certify(left, crossings, strict=True, digits=d, max_digits=max_digits)
    except PrecisionError:
        return verdict(InequalityStatus.UNDECIDED, max(digits, max_digits))
    status = InequalityStatus.HOLDS if holds else InequalityStatus.INCONSISTENT
    return verdict(status, d, left, crossings)


def _nearest_crossings(g, m):
    """nint(10**left) for the left side (m log(m / ((2g-1)e**6)))**2 / (128(2g-2)),
    or 1 where m is not past the threshold."""
    with mp.workdps(120):
        gap = mp.log(m) - mp.log(2 * g - 1) - 6
        if gap <= 0:
            return 1
        return int(mp.nint((m * gap) ** 2 / (128 * (2 * g - 2))))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    g=st.integers(2, 10 ** 6),
    # sizes within 3 of the threshold e**6 * (2g-1), or past it by 4 to 10**13
    offset=st.one_of(
        st.integers(-3, 3), st.integers(1, 13).flatmap(lambda k: st.integers(4, 10 ** k))
    ),
    crossings=st.sampled_from(["zero", "nearest", "nearest+1"]),
    digits=st.sampled_from([1, 3, 50, 999, 1000, 1200]),
    cap=st.sampled_from([MAX_DIGITS, MAX_DIGITS, 4, 16]),
)
# settled after four doublings, undecided at the cap, and undecided above it
@example(g=10 ** 6, offset=10 ** 12, crossings="nearest", digits=1, cap=MAX_DIGITS)
@example(g=10 ** 6, offset=10 ** 12, crossings="nearest", digits=1, cap=4)
@example(g=10 ** 6, offset=10 ** 40, crossings="nearest", digits=50, cap=16)
def test_gate_matches_the_chained_certifications(g, offset, crossings, digits, cap):
    m = max(2, math.floor(math.exp(6) * (2 * g - 1)) + offset)
    cr = {"zero": 0, "nearest": _nearest_crossings(g, m), "nearest+1": _nearest_crossings(g, m) + 1}[
        crossings
    ]
    with patch.object(bounds_module, "MAX_DIGITS", cap):
        verdict = crossing_inequality_check(g, m, cr, digits=digits)
    assert verdict == _old_gate(g, m, cr, digits=digits, max_digits=cap)


def test_gate_is_undecided_at_its_cap():
    g, m = 10 ** 6, 10 ** 12
    cr = _nearest_crossings(g, m)
    with patch.object(bounds_module, "MAX_DIGITS", 4):
        verdict = crossing_inequality_check(g, m, cr, digits=1)
    assert verdict.status is InequalityStatus.UNDECIDED
    assert verdict.digits == 4
    assert verdict.left_log10 is None and verdict.crossings_log10 is None
    # unpatched, the same comparison settles a few doublings later
    assert crossing_inequality_check(g, m, cr, digits=1).status is InequalityStatus.HOLDS
