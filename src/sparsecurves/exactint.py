"""Exact integer arithmetic for floors and comparisons of rational powers.

Quantities of the form floor(c * g**(r/s)) decide how many pieces and how
many necklaces a construction gets, and for large g a one-ULP floating-point
error flips the floor and changes the curve count by a factor of four.
Everything here therefore stays in integer arithmetic: k <= c * g**(r/s) is
decided by raising both sides to the s-th power (their leading bits first,
which usually settle it), and floors are obtained from an integer root: a
Newton descent from above whose start is the root of the radicand's leading
bits, taken the same way, so no float is involved and a few steps at full
size suffice.
Crossing totals run to millions of bits, so a ratio of them is brought to
lowest terms without a gcd, and only while that form is small.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction

# Integers print in decimal up to this many digits, CPython's default int<->str
# limit; past it `str(n)` and `json.dumps` raise ValueError.
DECIMAL_DIGIT_LIMIT = 4300
_DECIMAL_BOUND = 10 ** DECIMAL_DIGIT_LIMIT

# the decimal exponent of a Fraction text such as "1.5e-7", as Fraction reads it
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def fits_decimal(n: int) -> bool:
    """True iff n has at most DECIMAL_DIGIT_LIMIT decimal digits."""
    return -_DECIMAL_BOUND < n < _DECIMAL_BOUND


def _number_text(value: object) -> str:
    """str(value) for an error message, but an int past DECIMAL_DIGIT_LIMIT
    digits, alone or as a part of a Fraction, is shown as `[bits=B]`, signed:
    the start of `logspace.int_text`'s token, which needs logarithms that
    live above this module."""
    if isinstance(value, Fraction):
        p, q = value.numerator, value.denominator
        return _number_text(p) if q == 1 else f"{_number_text(p)}/{_number_text(q)}"
    if isinstance(value, int) and not fits_decimal(value):
        return f"{'-' * (value < 0)}[bits={value.bit_length()}]"
    return str(value)


def parse_fraction(value: Fraction | int | str) -> Fraction:
    """Fraction(value), refusing with ValueError a text whose decimal exponent
    is beyond DECIMAL_DIGIT_LIMIT in absolute value before Fraction builds
    10**exponent, and a text whose numerator or denominator has more than
    DECIMAL_DIGIT_LIMIT digits, which could not be printed back.  The
    int<->str limit already bounds the digits of every other part of a text;
    a Fraction or an int is taken as it is."""
    if not isinstance(value, str):
        return Fraction(value)
    match = _EXPONENT.search(value)
    if match:
        digits = match.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(DECIMAL_DIGIT_LIMIT)) or int(digits or 0) > DECIMAL_DIGIT_LIMIT:
            raise ValueError(f"decimal exponent beyond {DECIMAL_DIGIT_LIMIT} in absolute value")
    result = Fraction(value)
    if not (fits_decimal(result.numerator) and fits_decimal(result.denominator)):
        raise ValueError(f"value has more than {DECIMAL_DIGIT_LIMIT} decimal digits")
    return result


# The prime modulus of numeric hashes, 2**61 - 1 on 64-bit builds: for
# n >= 0, hash(n) == n % _RESIDUE_PRIME, read digit by digit, where `n % P`
# copies n for a P past one CPython digit, and on 3.10 for any P.
_RESIDUE_PRIME = sys.hash_info.modulus


def lowest_terms_within(num: int, den: int, bits: int) -> tuple[int, int] | None:
    """num/den in lowest terms as (p, q), if p.bit_length() + q.bit_length() <= bits.

    Returns None when the lowest-terms form is larger.  Requires num >= 0 and
    den >= 1.  No gcd, and no division or product of full size short of a
    final check, runs on the (possibly multi-million-bit) inputs.  With
    x = num/den, a = num >> s and b = den >> s, where s leaves b its leading
    3*bits + 8 bits, one truncated quotient Q = floor(a * 2**G / b), with
    G = 2*bits + 2, is expanded as a continued fraction, and its convergents
    p/q with q < 2**bits are the only candidates.

    Why this is exact.  A candidate is accepted only if num*q == p*den, checked
    by integer multiplication, and a convergent is always in lowest terms.
    Conversely, suppose the lowest-terms form p/q fits, so p, q < 2**bits and
    x < 2**bits; an x with num.bit_length() > den.bit_length() + bits + 1 is
    at least 2**(bits+1) and is refused at once.  With s > 0, x lies between
    a/(b+1) and (a+1)/b, b >= 2**(3*bits+7) and, after that refusal,
    a/b < 2**(bits+2); so |x - a/b| < (1 + a/b)/b < 2**(-2*bits-4).  With
    s = 0, a/b = x.  And 0 <= a/b - Q/2**G < 2**-G.
    So |x - Q/2**G| < 2**(-2*bits-1) < 1/(2*q**2).  By Legendre's theorem,
    any p/q with |y - p/q| < 1/(2*q**2) is a convergent of y, so p/q is a
    convergent of Q/2**G and the walk meets it.  A convergent is tested only
    if it lies within 2**(-2*bits-1) of Q/2**G; two fractions with
    denominators below 2**bits differ by more than 2**(-2*bits), so at most
    one is.  Before the products, that one is tested modulo the prime
    P = sys.hash_info.modulus, through hash(): num*q == p*den implies
    num*q == p*den (mod P), so a residue that differs refutes it, and a
    residue that agrees is settled by the products.
    """
    if num < 0 or den < 1:
        raise ValueError("need num >= 0 and den >= 1")
    if num.bit_length() > den.bit_length() + bits + 1:
        return None
    shift = max(0, den.bit_length() - 3 * bits - 8)
    guard = 2 * bits + 2
    scale = 1 << guard
    quotient = ((num >> shift) << guard) // (den >> shift)
    num_residue, den_residue = hash(num), hash(den)
    # convergents p/q of quotient/scale: a, b run the Euclidean algorithm
    a, b = quotient, scale
    p0, q0, p1, q1 = 0, 1, 1, 0
    while b:
        term, rest = divmod(a, b)
        a, b = b, rest
        p0, q0, p1, q1 = p1, q1, term * p1 + p0, term * q1 + q0
        if q1.bit_length() > bits:
            return None
        if (
            abs(p1 * scale - quotient * q1) < q1 << 1
            and (num_residue * q1 - p1 * den_residue) % _RESIDUE_PRIME == 0
            and num * q1 == p1 * den
        ):
            return (p1, q1) if p1.bit_length() + q1.bit_length() <= bits else None
    return None


def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by one integer Newton descent.

    The descent starts above the root: at one more than the root of the
    leading bits n >> k*s, taken by this function, shifted left by
    s = bits // k // 2, which is right in about its upper half of bits; or,
    once s is 0, at 2**ceil(bits/k).  From above, a step never falls below the
    floor (the mean of k-1 copies of x and n/x**(k-1) is at least their
    geometric mean, the real root) and decreases while x**k > n, so the
    descent stops, when a step no longer decreases, exactly at the floor.
    """
    if k < 1:
        raise ValueError(f"root index must be >= 1, got {_number_text(k)}")
    if n < 0:
        raise ValueError(f"radicand must be >= 0, got {_number_text(n)}")
    if n == 0 or k == 1:
        return n
    bits = n.bit_length()
    s = bits // k // 2
    x = (integer_nth_root(n >> k * s, k) + 1) << s if s else 1 << -(-bits // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def floor_scaled_power(coeff: Fraction, g: int, exponent: Fraction) -> int:
    """floor(coeff * g**exponent), exactly.

    Requires coeff > 0, g >= 1, exponent >= 0.  With coeff = a/b and
    exponent = r/s the result is the largest k with (k*b)**s <= a**s * g**r,
    i.e. floor of the integer s-th root of a**s * g**r, divided by b.
    """
    if coeff <= 0:
        raise ValueError(f"coefficient must be positive, got {_number_text(coeff)}")
    if g < 1:
        raise ValueError(f"base must be >= 1, got {_number_text(g)}")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {_number_text(exponent)}")
    a, b = coeff.numerator, coeff.denominator
    r, s = exponent.numerator, exponent.denominator
    return integer_nth_root(a ** s * g ** r, s) // b


# Leading bits of the larger side that `le_scaled_power` tries first.
_LEADING_BITS = 128


def le_scaled_power(lhs: int, rhs: int, g: int, alpha: Fraction) -> bool:
    """Decide lhs <= rhs * g**alpha exactly, for integers lhs, rhs >= 0 and g >= 1.

    With alpha = p/q (p may be negative) this is (lhs/rhs)**q <= g**p, decided
    on q-th powers cross-multiplied so only integer comparisons remain.  The
    leading bits decide first: with a = lhs >> s and b = rhs >> s, where s
    leaves the larger side _LEADING_BITS bits, lhs/rhs lies in
    [a/(b+1), (a+1)/b], and the q-th powers of these small bounds settle the
    verdict unless they straddle g**p.  Only then are the totals themselves,
    which run to millions of bits, raised to the q-th power.  A zero lhs
    holds at once, since the right side is never negative.
    """
    if lhs < 0 or rhs < 0:
        raise ValueError("comparison sides must be nonnegative")
    if g < 1:
        raise ValueError(f"base must be >= 1, got {_number_text(g)}")
    if lhs == 0:
        return True
    p, q = alpha.numerator, alpha.denominator

    def ratio_le(num: int, den: int) -> bool:  # (num/den)**q <= g**p
        if p >= 0:
            return num ** q <= den ** q * g ** p
        return num ** q * g ** (-p) <= den ** q

    shift = max(lhs, rhs).bit_length() - _LEADING_BITS
    if shift > 0:
        a, b = lhs >> shift, rhs >> shift
        if ratio_le(a + 1, b):  # lhs/rhs < (a+1)/b
            return True
        if not ratio_le(a, b + 1):  # lhs/rhs >= a/(b+1)
            return False
    return ratio_le(lhs, rhs)


def is_exact_power(g: int, exponent: Fraction) -> int | None:
    """Return g**exponent as an int when that value is an exact integer, else None:
    with exponent = r/s in lowest terms, exactly when g is an s-th power t**s."""
    if g < 1 or exponent < 0:
        return None
    r, s = exponent.numerator, exponent.denominator
    root = integer_nth_root(g, s)
    return root ** r if root ** s == g else None


@functools.lru_cache(maxsize=256)
def min_admissible_genus(alpha: Fraction) -> int:
    """Smallest integer g with g**(1+alpha) >= 16, i.e. g >= 4**(2/(1+alpha)).

    alpha must lie in (-1, 1]; the exponent 1+alpha is then positive and the
    threshold is decided by the integer comparison g**(p+q) >= 4**(2q), so
    g admits a plan exactly when g >= min_admissible_genus(alpha).  The last
    256 values are kept: a bounds grid asks for the same few alphas.
    """
    if not (Fraction(-1) < alpha <= Fraction(1)):
        raise ValueError(f"alpha must lie in (-1, 1], got {_number_text(alpha)}")
    p, q = alpha.numerator, alpha.denominator
    e = p + q
    target = 4 ** (2 * q)
    root = integer_nth_root(target, e)
    return root if root ** e >= target else root + 1
