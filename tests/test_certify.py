"""The certified-comparison kernel `logspace.certify` and the inequality gate built on it."""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from sparsecurves.bounds import InequalityStatus, crossing_inequality_check
from sparsecurves.errors import DomainError, PrecisionError
from sparsecurves.logspace import MAX_DIGITS, certify, interval_context, log10_int

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
    strict=st.booleans(),
    digits=st.integers(1, 60),
)
def test_certify_agrees_with_exact_comparison(a, b_far, delta, near, strict, digits):
    b = a + delta if near else b_far
    assume(b >= 1 and a != b)
    verdict, settled = certify(
        _log_of(a), _log_of(b), strict=strict, digits=digits, max_digits=KERNEL_CAP
    )
    assert verdict == (a < b)
    assert digits <= settled <= KERNEL_CAP


@settings(max_examples=40, deadline=None)
@given(a=st.integers(min_value=2, max_value=10 ** 80), strict=st.booleans(), digits=st.integers(1, 30))
def test_certify_equal_values_hit_the_cap(a, strict, digits):
    with pytest.raises(PrecisionError):
        certify(_log_of(a), _log_of(a), strict=strict, digits=digits, max_digits=40)


def test_certify_decides_equal_exact_points():
    # log10(1) = 0 is enclosed by the single point [0, 0]
    assert certify(_log_of(1), _log_of(1), digits=1) == (True, 1)
    assert certify(_log_of(1), _log_of(1), strict=True, digits=1) == (False, 1)


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
