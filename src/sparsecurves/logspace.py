"""Rigorous base-10 logarithms of huge positive quantities.

The bound formulas mix exact integers with terms like e**(sqrt(128*g) + 6)
whose values overflow any fixed-precision float, so all magnitude comparisons
happen in log10 space.  Every quantity is enclosed in a directed-rounding
interval (mpmath's interval context) by an evaluator, a function from decimal
digits to an enclosure.  Evaluators at one precision share one context, which
nothing writes after it is built (see `interval_context`).  Every certified
comparison goes through one kernel,
`certify`: while the two enclosures overlap it doubles the digits, up to a
hard cap, and raises PrecisionError if they still overlap there.  Precision
starts at `digits >= 1` (doubling 0 never moves).  All formula inequalities
we certify are strict with room, so the cap is only ever reached for
genuinely equal quantities.  mpmath is imported by the functions that build
or read an interval, so a run that evaluates none never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, PrecisionError

if TYPE_CHECKING:
    import mpmath
    from mpmath.ctx_iv import MPIntervalContext

DEFAULT_DIGITS = 50
MAX_DIGITS = 1000

# Extra working digits so enclosure widths stay well below the nominal precision.
_GUARD_DIGITS = 10


# Interval contexts by requested digits, each built on first use.
_CONTEXTS: dict[int, MPIntervalContext] = {}


def interval_context(digits: int) -> MPIntervalContext:
    """The interval context at the requested decimal precision, shared by every
    evaluation at that precision in the process.

    A shared context is read-only: its precision is set once, here.  The
    context functions evaluators call (`mpf`, `log`/`ln`, `exp`, `sqrt`,
    `ln10` and interval arithmetic) read `ctx.prec` and never write it, so an
    enclosure does not depend on what was evaluated before it, and threads
    may share a context.  mpmath's special functions differ: they raise
    `prec` in place while they run, so they, like any `dps` assignment,
    belong on a private `MPIntervalContext`.
    """
    ctx = _CONTEXTS.get(digits)
    if ctx is None:
        from mpmath.ctx_iv import MPIntervalContext

        ctx = MPIntervalContext()
        ctx.dps = digits + _GUARD_DIGITS
        _CONTEXTS[digits] = ctx
    return ctx


def endpoints(x) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Exact (lo, hi) endpoints of an interval as plain mpf values.

    The raw libmp tuples are converted without rounding, so the returned
    endpoints are the enclosure itself, not an approximation of it.
    """
    from mpmath import mp

    lo_raw, hi_raw = x._mpi_
    return mp.make_mpf(lo_raw), mp.make_mpf(hi_raw)


def iv_fraction(ctx: MPIntervalContext, value: Fraction):
    """Enclosure of an exact rational in the given context."""
    return ctx.mpf(value.numerator) / ctx.mpf(value.denominator)


def log10_int(ctx: MPIntervalContext, n: int):
    """Enclosure of log10(n) for a positive integer n of any size."""
    if n <= 0:
        raise ValueError(f"log10 needs a positive argument, got {n}")
    return ctx.log(ctx.mpf(n)) / ctx.ln10


def power_ln(ctx: MPIntervalContext, g: int, exponent: Fraction):
    """Enclosure of g**exponent via exp((r/s) * ln(g)); exponent may be negative."""
    if g < 1:
        raise ValueError(f"base must be >= 1, got {g}")
    r, s = exponent.numerator, exponent.denominator
    return ctx.exp(ctx.log(ctx.mpf(g)) * r / s)


def midpoint(x, digits: int) -> mpmath.mpf:
    """Midpoint of the enclosure x, as reported for a value evaluated at `digits`."""
    from mpmath import mp

    lo, hi = endpoints(x)
    with mp.workdps(digits + _GUARD_DIGITS):
        return (lo + hi) / 2


Evaluator = Callable[[int], object]


def check_digits(digits: int) -> None:
    """Raise DomainError unless digits is a usable precision (at least 1)."""
    if digits < 1:
        raise DomainError(f"precision must be at least 1 digit, got {digits}")


def certify(
    eval_a: Evaluator,
    eval_b: Evaluator,
    *,
    strict: bool = False,
    digits: int = DEFAULT_DIGITS,
    max_digits: int = MAX_DIGITS,
) -> tuple[bool, int]:
    """Certify a <= b (a < b when strict) between two interval-valued evaluators.

    Returns (verdict, settled_digits): the verdict is proven either way, and
    settled_digits is the precision of the evaluations that decided it.  The
    precision starts at `digits` and doubles while the enclosures overlap;
    PrecisionError is raised if they still overlap at max_digits.
    """
    check_digits(digits)
    d = digits
    while True:
        a_lo, a_hi = endpoints(eval_a(d))
        b_lo, b_hi = endpoints(eval_b(d))
        if a_hi < b_lo or (a_hi == b_lo and not strict):
            return True, d
        if b_hi < a_lo or (b_hi == a_lo and strict):
            return False, d
        if d >= max_digits:
            from mpmath import nstr

            raise PrecisionError(
                f"comparison undecidable at {d} digits "
                f"(a in [{nstr(a_lo, 25)}, {nstr(a_hi, 25)}], "
                f"b in [{nstr(b_lo, 25)}, {nstr(b_hi, 25)}])"
            )
        d = min(2 * d, max_digits)
