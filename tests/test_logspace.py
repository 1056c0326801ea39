"""Certified interval comparisons in log10 space."""

import pytest
from mpmath import mp

from sparsecurves import logspace
from sparsecurves.bounds import bounds_table
from sparsecurves.errors import PrecisionError
from sparsecurves.logspace import (
    _GUARD_DIGITS,
    certify,
    endpoints,
    interval_context,
    iv_fraction,
    log10_int,
    power_ln,
)
from fractions import Fraction


def _log_of(n):
    return lambda d: log10_int(interval_context(d), n)


def test_endpoints_enclose_and_order():
    ctx = interval_context(30)
    lo, hi = endpoints(ctx.log(ctx.mpf(7)))
    assert lo < hi
    # a much finer reference value sits strictly inside the enclosure
    with mp.workdps(80):
        assert lo < mp.log(7) < hi


def test_certified_le_both_directions():
    assert certify(_log_of(2), _log_of(3))[0]
    assert not certify(_log_of(3), _log_of(2))[0]
    assert certify(_log_of(999), _log_of(1000), strict=True)[0]
    assert not certify(_log_of(1000), _log_of(999), strict=True)[0]


def test_certified_le_huge_separation():
    assert certify(_log_of(10 ** 500), _log_of(10 ** 501))[0]


def test_equal_quantities_hit_precision_cap():
    with pytest.raises(PrecisionError):
        certify(_log_of(7), _log_of(7), max_digits=120)


def test_power_ln_matches_exact_integer_powers():
    ctx = interval_context(40)
    lo, hi = endpoints(power_ln(ctx, 5, Fraction(3)))
    assert lo <= 125 <= hi
    lo, hi = endpoints(power_ln(ctx, 16, Fraction(1, 2)))
    assert lo <= 4 <= hi
    # negative exponent
    lo, hi = endpoints(power_ln(ctx, 4, Fraction(-1)))
    with mp.workdps(50):
        assert lo <= mp.mpf(1) / 4 <= hi


def test_iv_fraction_encloses():
    ctx = interval_context(30)
    lo, hi = endpoints(iv_fraction(ctx, Fraction(1, 3)))
    with mp.workdps(80):
        assert lo < mp.mpf(1) / 3 < hi


def test_log10_rejects_nonpositive():
    ctx = interval_context(20)
    with pytest.raises(ValueError):
        log10_int(ctx, 0)


def test_interval_context_is_shared_per_precision():
    assert interval_context(37) is interval_context(37)
    assert interval_context(37) is not interval_context(38)


def test_shared_contexts_keep_their_precision():
    bounds_table([16, 17, 4096], [Fraction(0), Fraction(1, 2), Fraction(1)])
    with pytest.raises(PrecisionError):
        certify(_log_of(7), _log_of(7), max_digits=120)
    # the escalation reached 50, 100 and 120 digits
    assert {50, 100, 120} <= set(logspace._CONTEXTS)
    for digits, ctx in logspace._CONTEXTS.items():
        assert ctx.dps == digits + _GUARD_DIGITS, digits
