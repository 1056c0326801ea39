"""Integer root extraction and exact rational-power comparisons."""

import hashlib
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from sparsecurves import bounds
from sparsecurves.curves import SparsityThreshold
from sparsecurves.errors import DomainError
from sparsecurves.exactint import (
    _RESIDUE_PRIME,
    DECIMAL_DIGIT_LIMIT,
    fits_decimal,
    floor_scaled_power,
    integer_nth_root,
    is_exact_power,
    le_scaled_power,
    lowest_terms_within,
    min_admissible_genus,
    parse_fraction,
)
from sparsecurves.surfaces import check_plan_domain, plan_composite


def test_nth_root_small_cases():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(1, 5) == 1
    assert integer_nth_root(15, 2) == 3
    assert integer_nth_root(16, 2) == 4
    assert integer_nth_root(17, 2) == 4
    assert integer_nth_root(2 ** 90, 3) == 2 ** 30
    assert integer_nth_root(2 ** 90 - 1, 3) == 2 ** 30 - 1


def test_nth_root_rejects_bad_args():
    with pytest.raises(ValueError):
        integer_nth_root(-1, 2)
    with pytest.raises(ValueError):
        integer_nth_root(10, 0)


@given(n=st.integers(min_value=0, max_value=10 ** 40), k=st.integers(min_value=1, max_value=12))
def test_nth_root_bracket(n, k):
    r = integer_nth_root(n, k)
    assert r ** k <= n < (r + 1) ** k


def _of_bits(bits: int, seed: int) -> int:
    """A `bits`-bit integer (0 for no bits) whose lower bits hash the draw."""
    if bits == 0:
        return 0
    digest = hashlib.sha256(f"{bits}:{seed}".encode()).digest() * (bits // 256 + 1)
    return (1 << (bits - 1)) | int.from_bytes(digest, "big") % (1 << (bits - 1))


@given(
    bits=st.integers(min_value=0, max_value=50_000),
    seed=st.integers(min_value=0, max_value=2 ** 32),
    k=st.one_of(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=2000)),
    power=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_nth_root_bracket_up_to_50000_bits(bits, seed, k, power):
    n = _of_bits(bits, seed)
    if power:  # an exact k-th power, or one less
        n = _of_bits(max(1, bits // k), seed) ** k - (seed % 2)
    r = integer_nth_root(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(n=st.integers(min_value=0, max_value=2 ** 4000), k=st.integers(min_value=1, max_value=2000))
@example(n=3 ** 700, k=700)  # r**k
@example(n=3 ** 700 - 1, k=700)  # r**k - 1
@example(n=(10 ** 40 + 1) ** 97, k=97)
@example(n=(10 ** 40 + 1) ** 97 - 1, k=97)
@example(n=2 ** 2000 - 1, k=2000)  # bit length <= k: root 1
@example(n=2 ** 1999, k=2000)
@example(n=1, k=2000)
@example(n=10 ** 1200 + 7, k=1)
@settings(max_examples=300, deadline=None)
def test_nth_root_is_the_floor_of_the_real_root(n, k):
    r = integer_nth_root(n, k)
    assert r ** k <= n < (r + 1) ** k


@given(n=st.integers(min_value=0, max_value=2 ** 4000))
@example(n=(2 ** 2000 + 1) ** 2)
@example(n=(2 ** 2000 + 1) ** 2 - 1)
@settings(max_examples=300)
def test_square_root_is_isqrt(n):
    assert integer_nth_root(n, 2) == math.isqrt(n)


@given(
    g=st.integers(min_value=1, max_value=10 ** 9),
    a=st.integers(min_value=1, max_value=9),
    b=st.integers(min_value=1, max_value=9),
    r=st.integers(min_value=0, max_value=5),
    s=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=200)
def test_floor_scaled_power_definition(g, a, b, r, s):
    coeff = Fraction(a, b)
    exponent = Fraction(r, s)
    k = floor_scaled_power(coeff, g, exponent)
    # k <= c * g**(r/s) < k+1, cross-raised to integer powers
    assert (k * b) ** s <= a ** s * g ** r
    assert ((k + 1) * b) ** s > a ** s * g ** r


def test_floor_scaled_power_known_values():
    # floor((1/2) * 16**(1/2)) = 2 and floor(2 * 16**(1/2)) = 8
    assert floor_scaled_power(Fraction(1, 2), 16, Fraction(1, 2)) == 2
    assert floor_scaled_power(Fraction(2), 16, Fraction(1, 2)) == 8
    assert floor_scaled_power(Fraction(1, 2), 36, Fraction(1, 2)) == 3
    assert floor_scaled_power(Fraction(2), 36, Fraction(1, 2)) == 12
    # non-square genus: floor((1/2) * sqrt(17)) = 2
    assert floor_scaled_power(Fraction(1, 2), 17, Fraction(1, 2)) == 2


@given(
    lhs=st.integers(min_value=0, max_value=10 ** 6),
    rhs=st.integers(min_value=0, max_value=10 ** 6),
    g=st.integers(min_value=1, max_value=10 ** 4),
    p=st.integers(min_value=-3, max_value=3),
    q=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=200)
def test_le_scaled_power_matches_fractions(lhs, rhs, g, p, q):
    alpha = Fraction(p, q)
    got = le_scaled_power(lhs, rhs, g, alpha)
    # independent check via exact Fraction arithmetic on the q-th powers
    expected = Fraction(lhs) ** q * Fraction(g) ** max(-p, 0) <= Fraction(rhs) ** q * Fraction(g) ** max(p, 0)
    assert got == expected


def _plain_le_scaled_power(lhs, rhs, g, alpha):
    """lhs <= rhs * g**alpha by the q-th powers of the whole sides alone."""
    p, q = alpha.numerator, alpha.denominator
    if p >= 0:
        return lhs ** q <= rhs ** q * g ** p
    return lhs ** q * g ** (-p) <= rhs ** q


# integers of each bit length up to 400, so that most exceed the leading bits
_SIZED = st.integers(min_value=0, max_value=400).flatmap(
    lambda n: st.integers(min_value=2 ** n // 2, max_value=2 ** n)
)


@given(
    rhs=_SIZED,
    g=st.integers(min_value=1, max_value=10 ** 6),
    p=st.integers(min_value=-2000, max_value=2000),
    q=st.integers(min_value=1, max_value=1000),
    near=st.booleans(),
    other=_SIZED,
    delta=st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=300, deadline=None)
def test_le_scaled_power_matches_the_plain_power_comparison(rhs, g, p, q, near, other, delta):
    alpha = Fraction(p, q)
    if near:
        # within a few units of rhs * g**alpha, where the leading bits often cannot decide
        bits = rhs.bit_length() + abs(alpha.numerator) * g.bit_length() // alpha.denominator
        with mp.workdps(bits // 3 + 30):
            lhs = max(0, int(mpmath.floor(rhs * mpmath.power(g, mpmath.mpf(p) / q))) + delta)
    else:
        lhs = other
    assert le_scaled_power(lhs, rhs, g, alpha) == _plain_le_scaled_power(lhs, rhs, g, alpha)


@given(
    lhs=st.one_of(st.just(0), _SIZED),
    rhs=st.one_of(st.just(0), _SIZED),
    g=st.integers(min_value=1, max_value=10 ** 6),
    p=st.integers(min_value=-2000, max_value=2000),
    q=st.integers(min_value=1, max_value=1000),
)
@example(lhs=0, rhs=0, g=1, p=0, q=1)
@example(lhs=0, rhs=0, g=10 ** 6, p=-999, q=1000)
@example(lhs=0, rhs=2 ** 400, g=10 ** 6, p=-2000, q=1)
@example(lhs=1, rhs=0, g=10 ** 6, p=2000, q=1)
@settings(max_examples=300, deadline=None)
def test_le_scaled_power_with_zero_sides_matches_the_plain_power_comparison(lhs, rhs, g, p, q):
    # a zero lhs is decided before any power is raised
    alpha = Fraction(p, q)
    assert le_scaled_power(lhs, rhs, g, alpha) == _plain_le_scaled_power(lhs, rhs, g, alpha)


def test_is_exact_power():
    assert is_exact_power(16, Fraction(1, 2)) == 4
    assert is_exact_power(17, Fraction(1, 2)) is None
    assert is_exact_power(8, Fraction(2, 3)) == 4
    assert is_exact_power(10 ** 6, Fraction(1, 2)) == 1000


def _is_exact_power_of_the_power(g, exponent):
    """The reference: the s-th root of g**r itself, as is_exact_power once took it."""
    if g < 1 or exponent < 0:
        return None
    r, s = exponent.numerator, exponent.denominator
    power = g ** r
    root = integer_nth_root(power, s)
    return root if root ** s == power else None


@given(
    t=st.integers(min_value=1, max_value=10 ** 6),
    r=st.integers(min_value=0, max_value=30),
    s=st.integers(min_value=1, max_value=12),
    near=st.sampled_from([-1, 0, 1, None]),
    other=st.integers(min_value=1, max_value=10 ** 60),
)
@example(t=1, r=0, s=1, near=0, other=1)
@example(t=2, r=3, s=12, near=-1, other=1)  # 2**12 - 1
@example(t=3, r=5, s=12, near=0, other=1)  # 3**12
@example(t=10 ** 6, r=7, s=12, near=1, other=1)
@settings(max_examples=300, deadline=None)
def test_is_exact_power_matches_the_root_of_the_power(t, r, s, near, other):
    # g is t**s - 1, t**s, t**s + 1, or any value
    g = other if near is None else max(1, t ** s + near)
    exponent = Fraction(r, s)
    assert is_exact_power(g, exponent) == _is_exact_power_of_the_power(g, exponent)


def test_is_exact_power_of_a_large_genus_takes_one_small_root():
    # the 2000th root of g**1999, about 8.6 million bits, took seconds
    started = time.perf_counter()
    assert is_exact_power(10 ** 1300 + 7, Fraction(1999, 2000)) is None
    assert time.perf_counter() - started < 1
    assert is_exact_power(12345 ** 2000, Fraction(1999, 2000)) == 12345 ** 1999


def test_min_admissible_genus():
    assert min_admissible_genus(Fraction(0)) == 16
    assert min_admissible_genus(Fraction(1)) == 4
    assert min_admissible_genus(Fraction(1, 2)) == 7  # 4**(4/3) = 6.34...


@given(
    p=st.integers(min_value=-5, max_value=6),
    q=st.integers(min_value=1, max_value=6),
)
def test_min_admissible_genus_is_minimal(p, q):
    if not (-q < p <= q):
        return
    alpha = Fraction(p, q)
    g0 = min_admissible_genus(alpha)
    assert g0 ** (p + q) >= 4 ** (2 * q)
    assert (g0 - 1) ** (p + q) < 4 ** (2 * q)


def _plan_domain_admits(g: int, alpha: Fraction) -> bool:
    try:
        check_plan_domain(g, alpha)
    except DomainError as exc:
        assert str(exc).startswith(f"g >= {min_admissible_genus(alpha)} required for alpha = ")
        return False
    return True


_ADMISSION_ALPHAS = sorted({
    Fraction(p, q)
    for q in (1, 2, 3, 7, 24, 999, 1000)
    for p in (1 - q, -(q // 2), 0, 1, q // 3, q - 1, q)
})


def test_plan_domain_admits_exactly_the_genera_past_the_bound():
    assert _plan_domain_admits(16, Fraction(0)) and not _plan_domain_admits(15, Fraction(0))
    assert _plan_domain_admits(7, Fraction(1, 2)) and not _plan_domain_admits(6, Fraction(1, 2))
    for alpha in _ADMISSION_ALPHAS:
        p, q = alpha.numerator, alpha.denominator
        g0 = min_admissible_genus(alpha)
        for g in (g0 - 1, g0, g0 + 1):
            # the definition: g**(1+alpha) >= 16, raised to the q-th power
            assert _plan_domain_admits(g, alpha) == (g ** (p + q) >= 4 ** (2 * q)), (g, alpha)


# Shared factors: powers of two, odd or even multi-thousand-bit integers, and
# both together, so the inputs are far from lowest terms.
_shared_factors = st.one_of(
    st.just(1),
    st.integers(min_value=0, max_value=4000).map(lambda e: 1 << e),
    st.integers(min_value=1, max_value=1 << 3000),
    st.tuples(st.integers(0, 2000), st.integers(1, 1 << 1500)).map(lambda t: t[1] << t[0]),
)


def _of_bits(bits: int, salt: int) -> int:
    """A `bits`-bit integer (0 for 0 bits) whose lower bits hash the draw."""
    if bits == 0:
        return 0
    digest = hashlib.sha256(f"{bits}:{salt}".encode()).digest()
    return (1 << (bits - 1)) | int.from_bytes(digest, "big") % (1 << (bits - 1))


# bit lengths skewed small or large, so the lowest-terms sizes p_bits + q_bits
# fall on both sides of 133 bits
_bit_length = st.integers(min_value=0, max_value=110)
_skewed_bits = st.one_of(_bit_length, _bit_length.map(lambda b: 110 - b))


@given(
    p_bits=_skewed_bits,
    q_bits=_skewed_bits.map(lambda b: max(b, 1)),
    salt=st.integers(min_value=0, max_value=2 ** 32),
    factor=_shared_factors,
    bits=st.sampled_from([133, 1, 2, 64, 200]),
)
@settings(max_examples=300, deadline=None)
def test_lowest_terms_within_matches_fraction(p_bits, q_bits, salt, factor, bits):
    num = _of_bits(p_bits, salt) * factor
    den = _of_bits(q_bits, salt + 1) * factor
    exact = Fraction(num, den)
    fits = exact.numerator.bit_length() + exact.denominator.bit_length() <= bits
    expected = (exact.numerator, exact.denominator) if fits else None
    assert lowest_terms_within(num, den, bits) == expected


def test_lowest_terms_within_edges():
    assert lowest_terms_within(0, 1 << 5000, 133) == (0, 1)
    assert lowest_terms_within(6 << 9000, 4 << 9000, 133) == (3, 2)
    # 2**66 + 1 over 2**66 needs 67 + 67 = 134 bits: one bit over
    assert lowest_terms_within((2 ** 66 + 1) * 7, 2 ** 66 * 7, 133) is None
    assert lowest_terms_within((2 ** 66 + 1) * 7, 2 ** 66 * 7, 134) == (2 ** 66 + 1, 2 ** 66)
    with pytest.raises(ValueError):
        lowest_terms_within(1, 0, 133)
    with pytest.raises(ValueError):
        lowest_terms_within(-1, 2, 133)


def _lowest_terms_by_full_division(num: int, den: int, bits: int) -> tuple[int, int] | None:
    """The former lowest_terms_within: the convergents of the full quotient
    floor(num * 2**(2*bits+1) / den), each tested by products alone."""
    shift = 2 * bits + 1
    scale = 1 << shift
    quotient = (num << shift) // den
    a, b = quotient, scale
    p0, q0, p1, q1 = 0, 1, 1, 0
    while b:
        term, rest = divmod(a, b)
        a, b = b, rest
        p0, q0, p1, q1 = p1, q1, term * p1 + p0, term * q1 + q0
        if q1.bit_length() > bits:
            return None
        if 0 <= p1 * scale - quotient * q1 < q1 and num * q1 == p1 * den:
            return (p1, q1) if p1.bit_length() + q1.bit_length() <= bits else None
    return None


@given(
    p_bits=_skewed_bits,
    q_bits=_skewed_bits.map(lambda b: max(b, 1)),
    salt=st.integers(min_value=0, max_value=2 ** 32),
    factor=_shared_factors,
    # a shared power of two up to two million bits, and one side shifted
    # further, so the ratio also falls far outside 2**-bits .. 2**bits
    shift=st.one_of(st.integers(0, 3000), st.integers(0, 2_000_000)),
    skew=st.integers(-300, 300),
    # added to the numerator: a ratio a hair off p/q, whose lowest terms are
    # as long as the inputs; a multiple of the prime leaves num*q == p*den
    # modulo it
    tail=st.one_of(
        st.just(0),
        st.integers(1, 1 << 64),
        st.integers(1, 1 << 40).map(lambda t: t * _RESIDUE_PRIME),
    ),
    bits=st.sampled_from([133, 1, 2, 64, 200]),
)
# num*q == p*den modulo the prime but not exactly, with p/q = 3/7 the only
# convergent the window admits: the products must refuse it
@example(
    p_bits=2, q_bits=3, salt=14, factor=1, shift=1_000_000, skew=0, tail=_RESIDUE_PRIME, bits=133
)
@settings(max_examples=300, deadline=None)
def test_lowest_terms_within_matches_full_division(
    p_bits, q_bits, salt, factor, shift, skew, tail, bits
):
    num = (_of_bits(p_bits, salt) * factor << shift + max(skew, 0)) + tail
    den = _of_bits(q_bits, salt + 1) * factor << shift + max(-skew, 0)
    assert lowest_terms_within(num, den, bits) == _lowest_terms_by_full_division(num, den, bits)


def test_fits_decimal_is_the_int_to_str_limit():
    largest = 10 ** DECIMAL_DIGIT_LIMIT - 1
    assert fits_decimal(largest) and fits_decimal(-largest) and fits_decimal(0)
    assert len(str(largest)) == DECIMAL_DIGIT_LIMIT
    assert not fits_decimal(largest + 1)
    with pytest.raises(ValueError):
        str(largest + 1)


_PARSE_ENTRY_POINTS = {
    "SparsityThreshold.rational": SparsityThreshold.rational,
    "SparsityThreshold.power": SparsityThreshold.power,
    "check_plan_domain": lambda text: check_plan_domain(16, text),
    "plan_composite": lambda text: plan_composite(16, text),
    "upper_bound": lambda text: bounds.upper_bound(16, text),
    "bounds_table": lambda text: bounds.bounds_table([16], [text]),
    "linear_regime_bound": lambda text: bounds.linear_regime_bound(16, text),
}


@pytest.mark.parametrize("name", sorted(_PARSE_ENTRY_POINTS))
def test_library_parses_refuse_a_huge_exponent_at_once(name):
    # Fraction("1e-10000000") alone builds 10**10000000, about 30 s
    entry = _PARSE_ENTRY_POINTS[name]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
        entry("1e-10000000")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name", sorted(_PARSE_ENTRY_POINTS))
def test_library_parses_refuse_a_text_past_the_digit_limit(name):
    # 99 * 10**4299 has 4,301 digits: read, it could not be printed back
    with pytest.raises(ValueError, match="more than 4300 decimal digits"):
        _PARSE_ENTRY_POINTS[name]("99e4299")


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "99e4299", "-1e4300"])
def test_parse_fraction_refuses_a_text_past_the_digit_limit(text):
    with pytest.raises(ValueError, match="more than 4300 decimal digits"):
        parse_fraction(text)


def test_parse_fraction_reads_a_text_at_the_digit_limit():
    assert parse_fraction("1e4299") == 10 ** 4299
    assert parse_fraction("-1e-4299") == Fraction(-1, 10 ** 4299)
    assert parse_fraction("9" * 4300) == 10 ** 4300 - 1


def test_parse_fraction_takes_numbers_as_they_are():
    assert parse_fraction(Fraction(3, 7)) == Fraction(3, 7)
    assert parse_fraction(-2) == Fraction(-2) and type(parse_fraction(5)) is Fraction
    assert parse_fraction("1e-3") == Fraction(1, 1000)
    # only a text is held to the digit limit
    assert parse_fraction(10 ** 4300) == 10 ** 4300
    assert parse_fraction(Fraction(1, 10 ** 4300)) == Fraction(1, 10 ** 4300)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: integer_nth_root(-(10 ** 5000), 2), "radicand must be >= 0, got -[bits=16610]"),
        (lambda: integer_nth_root(4, -(10 ** 5000)), "root index must be >= 1, got -[bits=16610]"),
        (
            lambda: floor_scaled_power(Fraction(1), -(10 ** 5000), Fraction(1, 2)),
            "base must be >= 1, got -[bits=16610]",
        ),
        (
            lambda: le_scaled_power(1, 1, -(10 ** 5000), Fraction(1, 2)),
            "base must be >= 1, got -[bits=16610]",
        ),
        (
            lambda: min_admissible_genus(Fraction(10 ** 5000)),
            "alpha must lie in (-1, 1], got [bits=16610]",
        ),
    ],
    ids=["nth_root_radicand", "nth_root_index", "floor_scaled_power", "le_scaled_power",
         "min_admissible_genus"],
)
def test_errors_show_numbers_past_the_digit_limit_by_bit_length(call, message):
    # str() of such a number raises ValueError itself
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
