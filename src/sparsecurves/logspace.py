"""Rigorous base-10 logarithms of huge positive quantities.

The bound formulas mix exact integers with terms like e**(sqrt(128*g) + 6)
whose values overflow any fixed-precision float, so all magnitude comparisons
happen in log10 space.  Every quantity is enclosed in an `Interval`, a pair
of `decimal.Decimal` endpoints rounded outward, by an evaluator: a function
from decimal digits to an enclosure.  The standard library's `decimal`
rounds + - * / toward floor or ceiling as asked, and its `ln`, `exp` and
`sqrt` are correctly rounded, so each of those is widened by one unit in the
last place; no float decides anything.  Evaluators at one precision share one
`IntervalContext`, whose precision and rounding are fixed when it is built
(see `interval_context`).  Every certified verdict is settled by one loop,
`refine`: while its step settles nothing it doubles the digits, up to a hard
cap, and raises PrecisionError if the step is still unsettled there.
Precision starts at `digits >= 1` (doubling 0 never moves).  `certify` is
`refine` with the step a <= b; formula inequalities hold with room, so the
cap is only ever reached for genuinely equal quantities.  `int_text` and
`fraction_text` show any number past CPython's int<->str limit by its bit
length and certified log10, and `int_text` cuts any other long text, so an
error line stays short.
"""

from __future__ import annotations

from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    ROUND_CEILING,
    ROUND_FLOOR,
    ROUND_HALF_EVEN,
    ROUND_HALF_UP,
    Context,
    Decimal,
)
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, TypeVar

from .errors import DomainError, PrecisionError
from .exactint import fits_decimal, is_exact_power

DEFAULT_DIGITS = 50
MAX_DIGITS = 1000

# Significant digits of every printed log10.
PRINT_DIGITS = 15

# Extra working digits so enclosure widths stay well below the nominal precision.
_GUARD_DIGITS = 10


def _context(prec: int, rounding: str) -> Context:
    return Context(prec=prec, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN)


class Interval:
    """The real interval [lo, hi]; + - * / round lo down and hi up in `ctx`.
    An int operand is the exact point [n, n]; an int may also be added to or
    multiply an interval from the left.  Intervals are never modified."""

    __slots__ = ("lo", "hi", "ctx")

    def __init__(self, lo: Decimal, hi: Decimal, ctx: IntervalContext):
        self.lo, self.hi, self.ctx = lo, hi, ctx

    def __add__(self, other: Interval | int) -> Interval:
        c, d = _bounds(other)
        ctx = self.ctx
        return Interval(ctx.floor.add(self.lo, c), ctx.ceiling.add(self.hi, d), ctx)

    __radd__ = __add__

    def __sub__(self, other: Interval | int) -> Interval:
        c, d = _bounds(other)
        ctx = self.ctx
        return Interval(ctx.floor.subtract(self.lo, d), ctx.ceiling.subtract(self.hi, c), ctx)

    def __mul__(self, other: Interval | int) -> Interval:
        a, b = self.lo, self.hi
        c, d = _bounds(other)
        if d <= 0:  # a nonpositive factor: (-x)(-y)
            a, b, c, d = b.copy_negate(), a.copy_negate(), d.copy_negate(), c.copy_negate()
        ctx = self.ctx
        floor, ceiling = ctx.floor.multiply, ctx.ceiling.multiply
        if c >= 0:  # the factor is nonnegative: the ends of self give the ends
            return Interval(
                floor(a, c if a >= 0 else d), ceiling(b, d if b >= 0 else c), ctx
            )
        return Interval(  # the factor straddles zero
            min(floor(a, d), floor(b, c)), max(ceiling(a, c), ceiling(b, d)), ctx
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Interval | int) -> Interval:
        a, b = self.lo, self.hi
        c, d = _bounds(other)
        if c <= 0 <= d:
            raise ZeroDivisionError("interval divisor contains zero")
        if d < 0:  # x/y = (-x)/(-y)
            a, b, c, d = b.copy_negate(), a.copy_negate(), d.copy_negate(), c.copy_negate()
        ctx = self.ctx
        floor, ceiling = ctx.floor.divide, ctx.ceiling.divide
        return Interval(floor(a, d if a >= 0 else c), ceiling(b, c if b >= 0 else d), ctx)


def _bounds(x: Interval | int) -> tuple[Decimal, Decimal]:
    if isinstance(x, Interval):
        return x.lo, x.hi
    value = Decimal(x)
    return value, value


class IntervalContext:
    """Outward-rounding decimal arithmetic at digits + _GUARD_DIGITS
    significant digits: `floor` and `ceiling` are the two directed
    `decimal.Context`s, and ln 2 and ln 10 are taken once, here."""

    __slots__ = ("prec", "floor", "ceiling", "bits", "shift_error", "ln2", "ln10")

    def __init__(self, digits: int):
        self.prec = digits + _GUARD_DIGITS
        self.floor = _context(self.prec, ROUND_FLOOR)
        self.ceiling = _context(self.prec, ROUND_CEILING)
        # `ln_int` reads an integer's leading `bits` bits, m >= 2**(bits-1),
        # and adds 1/m >= ln(1 + 1/m) for the bits it drops
        self.bits = 4 * self.prec
        self.shift_error = self.ceiling.divide(1, 1 << (self.bits - 1))
        self.ln2 = self.ln(self.point(2))
        self.ln10 = self.ln(self.point(10))

    def point(self, value: int | Decimal) -> Interval:
        """The exact point [value, value]."""
        value = Decimal(value)
        return Interval(value, value, self)

    def _monotone(
        self, function: Callable[[Context, Decimal], Decimal], x: Interval
    ) -> Interval:
        """An increasing `decimal.Context` method at each end of x, widened by
        one unit in the last place: `decimal` rounds these results to nearest
        whatever the context's rounding, so one unit covers the error."""
        floor, ceiling = self.floor, self.ceiling
        lo = function(floor, x.lo)
        hi = lo if x.hi == x.lo else function(floor, x.hi)
        return Interval(floor.next_minus(lo), ceiling.next_plus(hi), self)

    def ln(self, x: Interval) -> Interval:
        if x.lo <= 0:
            raise ValueError("ln needs a positive interval")
        return self._monotone(Context.ln, x)

    def exp(self, x: Interval) -> Interval:
        ceiling = self.ceiling
        width = ceiling.subtract(x.hi, x.lo)
        if not 0 < width <= 1:
            return self._monotone(Context.exp, x)
        # one exp, not two: e**hi = e**lo * e**width <= e**lo * (1 + 2 * width)
        lo = self._monotone(Context.exp, Interval(x.lo, x.lo, self))
        factor = ceiling.add(1, ceiling.multiply(2, width))
        return Interval(lo.lo, ceiling.multiply(lo.hi, factor), self)

    def sqrt(self, x: Interval) -> Interval:
        if x.lo < 0:
            raise ValueError("sqrt needs a nonnegative interval")
        root = self._monotone(Context.sqrt, x)
        # sqrt(0) = 0 exactly; keep the enclosure nonnegative
        return Interval(x.lo, root.hi, self) if x.lo == 0 else root


# Interval contexts by requested digits, each built on first use.
_CONTEXTS: dict[int, IntervalContext] = {}


def interval_context(digits: int) -> IntervalContext:
    """The interval context at the requested decimal precision, shared by every
    evaluation at that precision in the process.

    A shared context is read-only: its precision and rounding are set once,
    here.  `decimal` records flags on the contexts, but no code reads them and
    none traps but the default three, so an enclosure does not depend on what
    was evaluated before it, and threads may share a context.
    """
    ctx = _CONTEXTS.get(digits)
    if ctx is None:
        ctx = _CONTEXTS[digits] = IntervalContext(digits)
    return ctx


def iv_fraction(ctx: IntervalContext, value: Fraction) -> Interval:
    """Enclosure of an exact rational in the given context."""
    return ctx.point(value.numerator) / value.denominator


# ln of a positive integer of at most ctx.bits bits, per context: the odd part
# of a short integer, or the leading bits of a long one.  A genus's bound
# formulas share ln g, ln(2g - 1) and ln 2g = ln 2 + ln g, so the few most
# recent suffice.
@lru_cache(maxsize=128)
def _ln_small(ctx: IntervalContext, m: int) -> Interval:
    return ctx.point(0) if m == 1 else ctx.ln(ctx.point(m))


def ln_int(ctx: IntervalContext, n: int) -> Interval:
    """Enclosure of ln(n) for a positive integer n of any size.

    An n of at most ctx.bits bits is 2**e * m with m odd, so ln n is
    ln m + e * ln 2.  A longer n is cut to its leading ctx.bits bits first,
    lead = n >> shift, and only those are read: n / 2**shift lies in
    [lead, lead + 1), so ln n lies in [ln lead, ln lead + 1/lead] +
    shift * ln 2, since ln(lead + 1) <= ln lead + 1/lead, and
    1/lead <= 2**(1 - ctx.bits) = ctx.shift_error.  Every long n gets that
    widening, about 10**-72 at 50 digits, even one such as 2**k whose odd
    part is short.
    """
    if n <= 0:
        raise ValueError(f"ln needs a positive argument, got {int_text(n)}")
    shift = n.bit_length() - ctx.bits
    if shift > 0:
        ln_lead = _ln_small(ctx, n >> shift)
        widened = Interval(ln_lead.lo, ctx.ceiling.add(ln_lead.hi, ctx.shift_error), ctx)
        return widened + ctx.ln2 * shift
    twos = (n & -n).bit_length() - 1
    return _ln_small(ctx, n >> twos) + ctx.ln2 * twos


def log10_int(ctx: IntervalContext, n: int) -> Interval:
    """Enclosure of log10(n) for a positive integer n of any size."""
    return ln_int(ctx, n) / ctx.ln10


@lru_cache(maxsize=128)
def power_ln(ctx: IntervalContext, g: int, exponent: Fraction) -> Interval:
    """Enclosure of g**exponent: the exact integer when `is_exact_power` finds
    one, else exp((r/s) * ln(g)); exponent may be negative.  The few most
    recent are kept, since a genus's bounds share g**alpha."""
    if g < 1:
        raise ValueError(f"base must be >= 1, got {int_text(g)}")
    exact = is_exact_power(g, exponent)
    if exact is not None:
        return ctx.point(exact)
    return ctx.exp(ln_int(ctx, g) * exponent.numerator / exponent.denominator)


def midpoint(x: Interval, digits: int) -> Decimal:
    """Midpoint of the enclosure x, as reported for a value evaluated at `digits`."""
    context = _context(digits + _GUARD_DIGITS, ROUND_HALF_EVEN)
    return context.divide(context.add(x.lo, x.hi), 2)


def nstr(x: Decimal, digits: int) -> str:
    """x at `digits` significant digits, printed as `mpmath.nstr` prints it.

    x is rounded half up to `digits` significant digits, where a carry may
    add a leading digit; the point is fixed while the rounded value's leading
    digit has an exponent strictly between min(-(digits // 3), -5) and
    `digits`, else an exponent follows; trailing zeros are stripped, leaving
    at least one after the point.
    """
    if x.is_infinite():
        return "-inf" if x.is_signed() else "+inf"
    if not x:
        return "0.0"
    x = _context(digits, ROUND_HALF_UP).plus(x)
    fixed = min(-(digits // 3), -5) < x.adjusted() < digits
    mantissa, e, exponent = format(x, "f" if fixed else "e").partition("e")
    mantissa = mantissa.rstrip("0") if "." in mantissa else mantissa + "."
    if mantissa.endswith("."):
        mantissa += "0"
    return f"{mantissa}{e}{exponent}"


# Characters of a text that `int_text` shows before it cuts the text.
SHOWN_CHARACTERS = 100


def int_text(value: object) -> str:
    """value as an error line shows it; never raises.  An int past
    DECIMAL_DIGIT_LIMIT digits is one token, `[bits=B,log10=L]` with the exact
    bit length and log10 of |value|, signed.  Any other value is its repr (an
    exception, its message), or its type's name where repr fails; a text
    other than an int's is cut after SHOWN_CHARACTERS, with its length given."""
    if isinstance(value, int) and not fits_decimal(value):
        log10 = midpoint(log10_int(interval_context(DEFAULT_DIGITS), abs(value)), DEFAULT_DIGITS)
        return f"{'-' * (value < 0)}[bits={value.bit_length()},log10={nstr(log10, PRINT_DIGITS)}]"
    try:
        text = str(value) if isinstance(value, BaseException) else repr(value)
    except ValueError:  # such as a list holding an int past the limit
        return type(value).__name__
    return text if isinstance(value, int) else cut_text(text)


def cut_text(text: str) -> str:
    """text, or its first SHOWN_CHARACTERS characters and then its length."""
    if len(text) <= SHOWN_CHARACTERS:
        return text
    return f"{text[:SHOWN_CHARACTERS]}...[{len(text)} characters]"


def fraction_text(value: Fraction, slash: bool = False) -> str:
    """value as str() shows it, `p` or `p/q`, with each part shown by `int_text`;
    with `slash`, `p/q` even when q = 1, as a document writes a fraction."""
    p, q = value.numerator, value.denominator
    return int_text(p) if q == 1 and not slash else f"{int_text(p)}/{int_text(q)}"


Evaluator = Callable[[int], Interval]
T = TypeVar("T")


def check_digits(digits: int) -> None:
    """Raise DomainError unless digits is a usable precision (at least 1)."""
    if digits < 1:
        raise DomainError(f"precision must be at least 1 digit, got {int_text(digits)}")


def refine(
    step: Callable[[int], Optional[T]],
    *,
    digits: int = DEFAULT_DIGITS,
    max_digits: int = MAX_DIGITS,
) -> tuple[T, int]:
    """(value, settled_digits) at the first d where step(d) is not None: d
    starts at `digits` and doubles, capped at max_digits, where PrecisionError
    is raised if step(d) is still None."""
    check_digits(digits)
    d = digits
    while True:
        value = step(d)
        if value is not None:
            return value, d
        if d >= max_digits:
            raise PrecisionError(f"still undecided at {d} digits")
        d = min(2 * d, max_digits)


def certify(
    eval_a: Evaluator,
    eval_b: Evaluator,
    *,
    digits: int = DEFAULT_DIGITS,
    max_digits: int = MAX_DIGITS,
) -> tuple[bool, int]:
    """Certify a <= b between two interval-valued evaluators, by `refine`.

    Returns (verdict, settled_digits): the verdict is proven either way, and
    settled_digits is the precision of the evaluations that decided it.
    PrecisionError is raised if the enclosures still overlap at max_digits.
    """

    def compare(d: int) -> Optional[bool]:
        a, b = eval_a(d), eval_b(d)
        if a.hi <= b.lo:
            return True
        if b.hi < a.lo:
            return False
        return None

    return refine(compare, digits=digits, max_digits=max_digits)
