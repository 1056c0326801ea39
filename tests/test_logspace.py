"""Certified interval comparisons in log10 space."""

import random
import tracemalloc
from decimal import Decimal

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from sparsecurves import logspace
from sparsecurves.bounds import (
    bounds_table,
    construction_count,
    crossing_inequality_check,
    linear_regime_bound,
    lower_bound,
    upper_bound,
)
from sparsecurves.curves import (
    Curve,
    SparsityThreshold,
    check_curve,
    generate_system,
    validate_word,
    verify_sparsity,
)
from sparsecurves.document import SystemDocument, from_dict, to_dict
from sparsecurves.errors import DocumentError, DomainError, PrecisionError
from sparsecurves.logspace import (
    _GUARD_DIGITS,
    certify,
    fraction_text,
    int_text,
    interval_context,
    iv_fraction,
    ln_int,
    log10_int,
    nstr,
    power_ln,
)
from sparsecurves.intersections import (
    annulus_family_crossings,
    necklace_family_crossings,
    oracle_crossings_pl,
)
from sparsecurves.surfaces import plan_composite
from fractions import Fraction


def _log_of(n):
    return lambda d: log10_int(interval_context(d), n)


def test_endpoints_enclose_and_order():
    ctx = interval_context(30)
    x = ctx.ln(ctx.point(7))
    lo, hi = x.lo, x.hi
    assert lo < hi
    # a much finer reference value sits strictly inside the enclosure
    with mp.workdps(80):
        assert mp.mpf(str(lo)) < mp.log(7) < mp.mpf(str(hi))


def test_certified_le_both_directions():
    assert certify(_log_of(2), _log_of(3))[0]
    assert not certify(_log_of(3), _log_of(2))[0]
    assert certify(_log_of(999), _log_of(1000))[0]
    assert not certify(_log_of(1000), _log_of(999))[0]


def test_certified_le_huge_separation():
    assert certify(_log_of(10 ** 500), _log_of(10 ** 501))[0]


def test_equal_quantities_hit_precision_cap():
    with pytest.raises(PrecisionError):
        certify(_log_of(7), _log_of(7), max_digits=120)


def test_power_ln_matches_exact_integer_powers():
    ctx = interval_context(40)
    x = power_ln(ctx, 5, Fraction(3))
    assert x.lo <= 125 <= x.hi
    x = power_ln(ctx, 16, Fraction(1, 2))
    assert x.lo <= 4 <= x.hi
    # negative exponent
    x = power_ln(ctx, 4, Fraction(-1))
    with mp.workdps(50):
        assert mp.mpf(str(x.lo)) <= mp.mpf(1) / 4 <= mp.mpf(str(x.hi))


def test_iv_fraction_encloses():
    ctx = interval_context(30)
    x = iv_fraction(ctx, Fraction(1, 3))
    with mp.workdps(80):
        assert mp.mpf(str(x.lo)) < mp.mpf(1) / 3 < mp.mpf(str(x.hi))


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
        assert ctx.prec == ctx.floor.prec == ctx.ceiling.prec == digits + _GUARD_DIGITS, digits


# ----------------------------------------------------------------------
# Enclosures against exact rationals and against mpmath at twice the digits
# ----------------------------------------------------------------------

_PRECISIONS = st.sampled_from([1, 15, 50, 100, 1000])
_rationals = st.fractions(min_value=-(10 ** 12), max_value=10 ** 12, max_denominator=10 ** 30)


def _encloses_exactly(x, value: Fraction) -> bool:
    return Fraction(x.lo) <= value <= Fraction(x.hi)


def _encloses(x, reference) -> bool:
    """x holds the mpf `reference`, read at the working precision of the caller."""
    return mp.mpf(str(x.lo)) <= reference <= mp.mpf(str(x.hi))


def _twice(digits):
    """mpmath at twice the working digits of an evaluation at `digits`."""
    return mp.workdps(2 * (digits + _GUARD_DIGITS))


@given(digits=_PRECISIONS, a=_rationals, b=_rationals)
@settings(max_examples=150, deadline=None)
def test_arithmetic_encloses_the_exact_result(digits, a, b):
    ctx = interval_context(digits)
    x, y = iv_fraction(ctx, a), iv_fraction(ctx, b)
    assert _encloses_exactly(x, a) and _encloses_exactly(y, b)
    assert _encloses_exactly(x + y, a + b)
    assert _encloses_exactly(x - y, a - b)
    assert _encloses_exactly(x * y, a * b)
    assert _encloses_exactly(3 + x, 3 + a)
    assert _encloses_exactly(x - 3, a - 3)
    assert _encloses_exactly(x * -7, a * -7)
    assert _encloses_exactly(-7 * x, -7 * a)
    if b:
        assert _encloses_exactly(x / y, a / b)
        assert _encloses_exactly(x / -5, a / -5)


def _of_bits(bits: int, seed: int) -> int:
    return random.Random(seed).getrandbits(bits) | 1 << (bits - 1)


@given(
    digits=_PRECISIONS,
    bits=st.one_of(st.integers(1, 300), st.integers(1, 10 ** 6)),
    seed=st.integers(0, 2 ** 32),
    twos=st.integers(0, 200),
)
@settings(max_examples=80, deadline=None)
def test_log10_int_encloses_mpmath(digits, bits, seed, twos):
    n = _of_bits(bits, seed) << twos
    x = log10_int(interval_context(digits), n)
    with _twice(digits):
        assert _encloses(x, mp.log10(mp.mpf(n)))


@given(
    digits=st.sampled_from([20, 50, 100]),
    odd_bits=st.integers(1, 600),
    seed=st.integers(0, 2 ** 32),
    twos=st.one_of(st.integers(0, 600), st.integers(0, 10 ** 6)),
)
@example(digits=50, odd_bits=1, seed=0, twos=10 ** 6)  # 2**k: a short odd part
@example(digits=20, odd_bits=1, seed=0, twos=4 * (20 + _GUARD_DIGITS))
@example(digits=100, odd_bits=600, seed=1, twos=0)
@settings(max_examples=80, deadline=None)
def test_ln_int_encloses_mpmath_on_odd_times_powers_of_two(digits, odd_bits, seed, twos):
    n = (_of_bits(odd_bits, seed) | 1) << twos
    x = ln_int(interval_context(digits), n)
    with _twice(digits):
        assert _encloses(x, mp.log(mp.mpf(n)))


def test_ln_int_reads_only_the_leading_bits_of_a_megabit_total():
    n = necklace_family_crossings(500_000)  # about 2 million bits, 250 KB
    ctx = interval_context(50)
    tracemalloc.start()
    try:
        ln_int(ctx, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # stripping the twos of n itself allocates three copies of it
    assert peak < 64 * 1024


@given(
    digits=_PRECISIONS,
    g=st.integers(1, 10 ** 6),
    exponent=st.fractions(min_value=-3, max_value=3, max_denominator=1000),
)
@example(digits=1, g=64, exponent=Fraction(11, 6))
@settings(max_examples=80, deadline=None)
def test_power_ln_encloses_mpmath(digits, g, exponent):
    x = power_ln(interval_context(digits), g, exponent)
    with _twice(digits):
        reference = mp.power(g, mp.mpf(exponent.numerator) / exponent.denominator)
        root = int(mp.nint(reference))
        if exponent >= 0 and root ** exponent.denominator == g ** exponent.numerator:
            # g**exponent is the integer root (64**(11/6) = 2048), and power_ln
            # gives it as a point; mpmath's rounded 11/6 lands a few units off
            assert _encloses_exactly(x, Fraction(root))
        else:
            assert _encloses(x, reference)


@given(
    digits=_PRECISIONS,
    value=st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 12),
    positive=st.fractions(min_value=0, max_value=10 ** 12, max_denominator=10 ** 12),
)
@settings(max_examples=80, deadline=None)
def test_exp_sqrt_and_ln_of_intervals_enclose_mpmath(digits, value, positive):
    ctx = interval_context(digits)
    x, y = iv_fraction(ctx, value), iv_fraction(ctx, positive)
    with _twice(digits):
        assert _encloses(ctx.exp(x), mp.exp(mp.mpf(value.numerator) / value.denominator))
        root = mp.sqrt(mp.mpf(positive.numerator) / positive.denominator)
        assert _encloses(ctx.sqrt(y), root)
        if positive:
            assert _encloses(ctx.ln(y), mp.log(root) * 2)
            # a wide interval: [positive, positive + 1]
            assert _encloses(ctx.ln(y + 1), mp.log(root ** 2 + 1))


# ----------------------------------------------------------------------
# nstr against mpmath.nstr, on values both read exactly: k * 2**shift
# ----------------------------------------------------------------------

_mantissas = st.one_of(
    st.integers(0, 10 ** 30),
    # runs of 9s followed by a digit that rounds them up, or not
    st.builds(lambda j, r: 10 ** j - r, st.integers(1, 40), st.integers(1, 60)),
    # the leading digit on either side of the fixed/exponent limits
    st.builds(lambda j, r: 10 ** j + r, st.integers(0, 40), st.integers(-1, 1)),
)


@given(
    mantissa=_mantissas,
    shift=st.one_of(st.just(0), st.integers(-400, 400)),
    negative=st.booleans(),
    digits=st.sampled_from([1, 2, 5, 12, 15, 20, 25]),
)
@example(mantissa=2 * 10 ** 12 - 1, shift=-1, negative=False, digits=12)  # 999999999999.5
@example(mantissa=1, shift=-14, negative=False, digits=15)  # 6.103515625e-05
@example(mantissa=1, shift=-13, negative=True, digits=15)  # -0.0001220703125
@example(mantissa=10 ** 25 - 5, shift=0, negative=False, digits=25)
# rounding carries into a new leading digit that crosses a layout limit
@example(mantissa=2 * 10 ** 15 - 1, shift=-1, negative=False, digits=15)  # 1.0e+15
@example(mantissa=2 ** 80 // 10 ** 5, shift=-80, negative=False, digits=12)  # 1.0e-5
@settings(max_examples=400, deadline=None)
def test_nstr_matches_mpmath(mantissa, shift, negative, digits):
    k = -mantissa if negative else mantissa
    if shift >= 0:
        value = Decimal(k << shift)
    else:
        value = Decimal(f"{k * 5 ** -shift}E{shift}")
    with mp.workprec(max(53, mantissa.bit_length() + 8)):
        reference = mpmath.ldexp(mp.mpf(k), shift)
    assert nstr(value, digits) == mpmath.nstr(reference, digits)


def test_nstr_of_infinities_and_zeros():
    assert nstr(Decimal("Infinity"), 15) == "+inf"
    assert nstr(Decimal("-Infinity"), 15) == "-inf"
    assert nstr(Decimal(0), 15) == "0.0"
    assert nstr(Decimal("-0"), 15) == "0.0"


# ----------------------------------------------------------------------
# numbers past the int<->str limit, as the library shows them
# ----------------------------------------------------------------------

_B = 10 ** 5000
_B_TOKEN = "[bits=16610,log10=5000.0]"


@pytest.mark.parametrize(
    "value",
    [0, -7, 10 ** 4300 - 1, -(10 ** 4300) + 1, True, None, 1.5, "x", [10 ** 90]],
)
def test_int_text_is_repr_within_the_limit(value):
    assert int_text(value) == repr(value)


@pytest.mark.parametrize(
    "value, text",
    [
        ("x" * 98, repr("x" * 98)),  # 100 characters with its quotes
        ("x" * 99, "'" + "x" * 99 + "...[101 characters]"),
        ("x" * 10 ** 6, "'" + "x" * 99 + "...[1000002 characters]"),
        ([10 ** 4000], "[1" + "0" * 98 + "...[4003 characters]"),
        ([10 ** 5000], "list"),  # repr itself refuses
        (ValueError("y" * 150), "y" * 100 + "...[150 characters]"),
        (ValueError("short"), "short"),
    ],
    ids=[
        "short", "just-past", "long", "long-repr", "repr-fails", "long-exception",
        "short-exception",
    ],
)
def test_int_text_cuts_other_long_text_and_never_raises(value, text):
    assert int_text(value) == text


def test_int_text_past_the_limit_is_one_signed_token():
    assert int_text(10 ** 4300) == "[bits=14285,log10=4300.0]"
    assert int_text(_B) == _B_TOKEN and int_text(-_B) == "-" + _B_TOKEN
    assert int_text(3 * _B) == "[bits=16612,log10=5000.47712125472]"


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(-3, 4), "-3/4"),
        (Fraction(5), "5"),
        (Fraction(_B), _B_TOKEN),
        (Fraction(-1, _B), "-1/" + _B_TOKEN),
        (Fraction(-_B - 1, _B), f"-[bits=16610,log10=5000.0]/{_B_TOKEN}"),
    ],
)
def test_fraction_text_is_str_with_int_text_parts(value, text):
    assert fraction_text(value) == text
    if "[" not in text:
        assert text == str(value)
    # as a document writes it: p/q whatever q is
    slashed = text if value.denominator != 1 else f"{text}/1"
    assert fraction_text(value, slash=True) == slashed


_G16 = plan_composite(16, 0)
_G16_PAIR = (Curve(0, (1,) * _G16.piece_count), Curve(0, (2,) * _G16.piece_count))


def _full_g16_with_huge_is_sparse() -> dict:
    system = generate_system(_G16)
    report = verify_sparsity(system, SparsityThreshold.rational(100))
    data = to_dict(SystemDocument(system, report=report))
    data["report"]["isSparse"] = _B
    return data


# Every public call below quotes its caller's number in the error it raises;
# before that number went through `int_text`, each raised the int<->str
# ValueError instead.
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: plan_composite(-_B, 0), DomainError),
        (lambda: plan_composite(_B * _B, 0), DomainError),
        (lambda: lower_bound(-_B, 0), DomainError),
        (lambda: construction_count(-_B, 0), DomainError),
        (lambda: upper_bound(-_B, 1), DomainError),
        (lambda: upper_bound(16, -Fraction(_B)), DomainError),
        (lambda: crossing_inequality_check(-_B, 5, 3), DomainError),
        (lambda: crossing_inequality_check(16, -_B, 3), DomainError),
        (lambda: crossing_inequality_check(16, 5, -_B), DomainError),
        (lambda: linear_regime_bound(16, Fraction(_B)), DomainError),
        (lambda: linear_regime_bound(-_B, -1), DomainError),
        (lambda: SparsityThreshold.rational(-Fraction(_B)), DomainError),
        (lambda: bounds_table([_B * _B], [0]), DomainError),
        (lambda: from_dict(_full_g16_with_huge_is_sparse()), DocumentError),
    ],
    ids=[
        "plan_composite-g", "plan_composite-h", "lower_bound", "construction_count",
        "upper_bound-g", "upper_bound-f", "crossing_inequality-g", "crossing_inequality-m",
        "crossing_inequality-cr", "linear_regime-alpha", "linear_regime-g",
        "threshold", "bounds_table", "from_dict",
    ],
)
def test_errors_quote_huge_arguments_as_tokens(call, error):
    with pytest.raises(error) as caught:
        call()
    message = str(caught.value)
    assert "[bits=" in message and "string conversion" not in message


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: check_curve(Curve(_B, (1,)), _G16), DomainError),
        (lambda: validate_word((_B,), 1), DomainError),
        (lambda: certify(_log_of(2), _log_of(3), digits=-_B), DomainError),
        (lambda: lower_bound(16, 0, digits=-_B), DomainError),
        (lambda: ln_int(interval_context(20), -_B), ValueError),
        (lambda: power_ln(interval_context(20), -_B, Fraction(1, 2)), ValueError),
        (lambda: annulus_family_crossings(3, _B), DomainError),
        (lambda: necklace_family_crossings(-_B), DomainError),
        (lambda: oracle_crossings_pl(*_G16_PAIR, _G16, resolution=-_B), DomainError),
    ],
    ids=[
        "check_curve", "validate_word", "certify-digits", "lower_bound-digits",
        "ln_int", "power_ln", "annulus_family", "necklace_family", "oracle",
    ],
)
def test_other_checks_quote_huge_arguments_as_tokens(call, error):
    with pytest.raises(error, match=r"\[bits=16610,log10=5000\.0\]"):
        call()


@pytest.mark.parametrize(
    "threshold, text",
    [
        (SparsityThreshold.rational(Fraction(_B)), _B_TOKEN),
        (SparsityThreshold.power(Fraction(1, _B)), "g^1/" + _B_TOKEN),
    ],
    ids=["rational", "power"],
)
def test_thresholds_describe_huge_values_as_tokens(threshold, text):
    assert threshold.describe() == text
