"""Exact and log-space evaluation of curve-system size bounds.

Values like 2**sqrt(g) outgrow any machine float long before g gets
interesting, so every bound carries a rigorous base-10 log enclosure, plus an
exact big integer whenever the formula happens to evaluate to one (the
2-power exponent g**((1+alpha)/2) is an integer, say).  Comparisons are
certified: exact when both sides are exact, otherwise by `logspace.certify`.

The three formulas:

  * lower bound   (1/16) * floor(2*g**((1-a)/2)) * 2**(g**((1+a)/2))
  * construction  floor(2*g**((1-a)/2)) * 4**(floor((1/2)*g**((1+a)/2)) - 1)
  * upper bound   (2g-1)*e**(sqrt(64*(2g-2)*f)+6), rounded up to
                  2g*e**(sqrt(128*g*f)+6)

together with the crossing-number inequality gate (applicable only when the
system size reaches e**6 * (2g-1)) and the linear ceiling 2g*e**(sqrt(128)+6)
that caps f = g**alpha systems for alpha <= -1.
"""

from __future__ import annotations

import csv
import io
import json
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .curves import SparsityThreshold, generate_system
from .errors import DomainError, PrecisionError
from .exactint import (
    floor_scaled_power,
    is_exact_power,
    lowest_terms_within,
    parse_fraction,
)
from .intersections import total_crossings
from .logspace import (
    DEFAULT_DIGITS,
    MAX_DIGITS,
    PRINT_DIGITS,
    Interval,
    IntervalContext,
    certify,
    check_digits,
    fraction_text,
    int_text,
    interval_context,
    iv_fraction,
    ln_int,
    log10_int,
    midpoint,
    nstr,
    power_ln,
    refine,
)
from .surfaces import CompositeSurface, check_plan_domain, plan_composite

# Exact values are materialized only below this bit size; larger ones are
# carried purely in log space.
MAX_EXACT_BITS = 8_000_000


class BoundValue(NamedTuple):
    """A bound's value: always a log10 enclosure, exact integer when it exists."""

    formula: str
    log10: Decimal  # midpoint of the enclosure at `digits`
    exact: Optional[int]
    digits: int
    evaluate: Callable[[int], Interval]  # digits -> enclosure of log10(value), memoised


def _make_bound(
    formula: str,
    evaluator: Callable[[int], Interval],
    digits: int,
    exact: Optional[int] = None,
) -> BoundValue:
    check_digits(digits)
    # the midpoint and every comparison of this bound share one enclosure per precision
    evaluate = cache(evaluator)
    return BoundValue(
        formula=formula,
        log10=midpoint(evaluate(digits), digits),
        exact=exact,
        digits=digits,
        evaluate=evaluate,
    )


def certified_le(a: BoundValue, b: BoundValue) -> bool:
    """Certify a <= b: exactly when both sides are exact, else by enclosures."""
    if a.exact is not None and b.exact is not None:
        return a.exact <= b.exact
    digits = max(a.digits, b.digits)
    try:
        return certify(a.evaluate, b.evaluate, digits=digits)[0]
    except PrecisionError as exc:
        raise PrecisionError(f"{a.formula} vs {b.formula}: {exc}") from exc


def lower_bound(
    g: int, alpha: Fraction | int | str, *, digits: int = DEFAULT_DIGITS
) -> BoundValue:
    """(1/16) * floor(2*g**((1-alpha)/2)) * 2**(g**((1+alpha)/2)).

    The floor is exact integer arithmetic; the 2-power exponent is usually
    irrational and lives in the log enclosure, but when g**((1+alpha)/2) is an
    exact integer so is the whole value, and it is attached exactly.
    """
    alpha = check_plan_domain(g, alpha)
    prefactor = floor_scaled_power(Fraction(2), g, (1 - alpha) / 2)
    return _lower_bound(g, alpha, prefactor, digits)


def _lower_bound(g: int, alpha: Fraction, prefactor: int, digits: int) -> BoundValue:
    """lower_bound of a checked (g, alpha), given the floor, which is the
    planned surface's h'.

    On the plan domain g**(1+alpha) >= 16, so an integer exponent
    E = g**((1+alpha)/2) is at least 4 and the exact value is the integer
    h' * 2**(E-4)."""
    exponent = (1 + alpha) / 2
    exp_int = is_exact_power(g, exponent)
    exact = None
    if exp_int is not None and exp_int <= MAX_EXACT_BITS:
        exact = prefactor << exp_int - 4

    def evaluate(d: int):
        ctx = interval_context(d)
        power = power_ln(ctx, g, exponent)
        return (
            log10_int(ctx, prefactor)
            - log10_int(ctx, 16)
            + power * ctx.ln2 / ctx.ln10
        )

    return _make_bound("count_lower_bound", evaluate, digits, exact)


def construction_count(
    g: int, alpha: Fraction | int | str, *, digits: int = DEFAULT_DIGITS
) -> BoundValue:
    """Size h' * 4**(h-1) of the generated system, as an exact big integer."""
    return _construction_count(plan_composite(g, alpha), digits)


def _construction_count(surface: CompositeSurface, digits: int) -> BoundValue:
    h, h_prime = surface.h, surface.h_prime
    exact = None
    if 2 * (h - 1) <= MAX_EXACT_BITS:
        exact = h_prime << 2 * (h - 1)

    def evaluate(d: int):
        ctx = interval_context(d)
        return log10_int(ctx, h_prime) + (h - 1) * log10_int(ctx, 4)

    return _make_bound("construction_count", evaluate, digits, exact)


def _ceiling(
    lead: int, radicand: Callable[[IntervalContext], Interval]
) -> Callable[[int], Interval]:
    """digits -> enclosure of log10(lead * e**(sqrt(X) + 6)), X = radicand(ctx):
    the shape of every size ceiling, its linear coefficient and the
    inequality gate's threshold."""

    def evaluate(d: int):
        ctx = interval_context(d)
        return log10_int(ctx, lead) + (ctx.sqrt(radicand(ctx)) + 6) / ctx.ln10

    return evaluate


class SizeUpperBound(NamedTuple):
    """Both shapes of the size ceiling; tight <= rounded always."""

    tight: BoundValue
    rounded: BoundValue


def _check_genus(g: int) -> None:
    if not isinstance(g, int) or g < 2:
        raise DomainError(f"genus must be an integer >= 2, got {int_text(g)}")


def upper_bound(
    g: int,
    f: SparsityThreshold | Fraction | int | str,
    *,
    digits: int = DEFAULT_DIGITS,
) -> SizeUpperBound:
    """Size ceiling for an f-sparse system on genus g >= 2.

    Returns the tight form (2g-1)*e**(sqrt(64*(2g-2)*f(g))+6) and the rounded
    form 2g*e**(sqrt(128*g*f(g))+6), both as log enclosures; f may be an
    exact rational or the power g**alpha.
    """
    _check_genus(g)
    threshold = f if isinstance(f, SparsityThreshold) else SparsityThreshold.rational(f)

    def scaled_f(scale: int):
        # scale already carries its g factors; f(g) = g**alpha multiplies in whole
        if threshold.kind == "rational":
            return lambda ctx: iv_fraction(ctx, scale * threshold.value)
        return lambda ctx: power_ln(ctx, g, threshold.value) * scale

    tight = _ceiling(2 * g - 1, scaled_f(64 * (2 * g - 2)))
    rounded = _ceiling(2 * g, scaled_f(128 * g))
    return SizeUpperBound(
        tight=_make_bound("size_upper_bound_tight", tight, digits),
        rounded=_make_bound("size_upper_bound", rounded, digits),
    )


class InequalityStatus(Enum):
    NOT_APPLICABLE = "not-applicable"
    HOLDS = "holds"
    INCONSISTENT = "inconsistent"
    UNDECIDED = "undecided"


class CrossingInequalityVerdict(NamedTuple):
    status: InequalityStatus
    threshold_log10: Decimal
    size_log10: Decimal
    left_log10: Optional[Decimal]
    crossings_log10: Optional[Decimal]
    digits: int


def crossing_inequality_check(
    g: int,
    m: int,
    cr: int,
    *,
    digits: int = DEFAULT_DIGITS,
) -> CrossingInequalityVerdict:
    """Gatekeeper for the crossing-number inequality at system size m.

    Below the applicability threshold e**6 * (2g-1) the inequality says
    nothing (status NOT_APPLICABLE).  Above it, the left side
    (m * log(m / ((2g-1)e**6)))**2 / (128*(2g-2)) must be strictly below the
    exact crossing total of any genuine curve system, so HOLDS is the only
    healthy verdict; INCONSISTENT flags an internal error in the caller's cr.
    Each precision is one `logspace.refine` step: it decides applicability,
    then, once the gap ln(m / ((2g-1)e**6)) is certified positive, the left
    side against the crossings; a step still undecided at MAX_DIGITS reports
    UNDECIDED, with no left side or crossings.
    """
    _check_genus(g)
    if not isinstance(m, int) or m < 2:
        raise DomainError(f"system size must be an integer >= 2, got {int_text(m)}")
    if cr < 0:
        raise DomainError(f"crossing total must be >= 0, got {int_text(cr)}")
    threshold_at = _ceiling(2 * g - 1, lambda ctx: ctx.point(0))  # e**6 * (2g-1)

    def step(d: int) -> Optional[CrossingInequalityVerdict]:
        ctx = interval_context(d)
        size, threshold = log10_int(ctx, m), threshold_at(d)
        status = left = crossings = None
        if size.hi < threshold.lo:
            status = InequalityStatus.NOT_APPLICABLE
        elif threshold.hi <= size.lo:
            # ln(m / ((2g-1) * e**6)): its log is taken once it is certified positive
            gap = ln_int(ctx, m) - ln_int(ctx, 2 * g - 1) - 6
            if gap.lo > 0:
                left = 2 * (size + ctx.ln(gap) / ctx.ln10) - log10_int(ctx, 128 * (2 * g - 2))
                if cr == 0:  # the left side is a square, never below zero crossings
                    status = InequalityStatus.INCONSISTENT
                else:
                    crossings = log10_int(ctx, cr)
                    if left.hi < crossings.lo:
                        status = InequalityStatus.HOLDS
                    elif crossings.hi <= left.lo:
                        status = InequalityStatus.INCONSISTENT
        if status is None:
            if d < MAX_DIGITS:
                return None
            status, left, crossings = InequalityStatus.UNDECIDED, None, None
        return CrossingInequalityVerdict(
            status,
            midpoint(threshold, d),
            midpoint(size, d),
            None if left is None else midpoint(left, d),
            None if crossings is None else midpoint(crossings, d),
            d,
        )

    return refine(step, digits=digits, max_digits=MAX_DIGITS)[0]


class LinearRegimeBound(NamedTuple):
    """The ceiling 2g * e**(sqrt(128 * g**(1+alpha)) + 6) and its linear coefficient."""

    value: BoundValue
    coefficient: BoundValue  # e**(sqrt(128) + 6)


def linear_regime_bound(
    g: int, alpha: Fraction | int | str, *, digits: int = DEFAULT_DIGITS
) -> LinearRegimeBound:
    """Size ceiling in the regime alpha <= -1, where growth is linear in g.

    For alpha <= -1 the exponent sqrt(128 * g**(1+alpha)) never exceeds
    sqrt(128), so the ceiling is at most g times twice the constant
    e**(sqrt(128)+6); at alpha = -1 it equals 2g * e**(sqrt(128)+6) exactly.
    """
    alpha = parse_fraction(alpha)
    if alpha > -1:
        raise DomainError(f"linear regime needs alpha <= -1, got {fraction_text(alpha)}")
    _check_genus(g)

    value = _ceiling(2 * g, lambda ctx: power_ln(ctx, g, 1 + alpha) * 128)
    coefficient = _ceiling(1, lambda ctx: ctx.point(128))
    return LinearRegimeBound(
        value=_make_bound("linear_regime_bound", value, digits),
        coefficient=_make_bound("linear_regime_coefficient", coefficient, digits),
    )


# ----------------------------------------------------------------------
# Comparison tables
# ----------------------------------------------------------------------

class TableRow(NamedTuple):
    g: int
    alpha: Fraction
    h: int
    h_prime: int
    base_genus: int
    count: Optional[int]
    count_log10: str
    lower_log10: str
    upper_tight_log10: str
    upper_rounded_log10: str
    crossings: Optional[int]
    ratio: str
    mode: str
    lower_le_count: bool
    lower_le_upper: bool


# A ratio cell is exact p/q while its lowest terms fit in this many bits.
RATIO_EXACT_BITS = 133

# Significant bits kept of each side of a ratio shown as a 12-digit decimal,
# and the digits its quotient is taken to.
_RATIO_DECIMAL_BITS = 256
_RATIO_CONTEXT = Context(prec=30, Emax=MAX_EMAX, Emin=MIN_EMIN)


def render_ratio(crossings: int, pairs: int) -> str:
    """crossings/pairs as exact p/q in lowest terms while that fits
    RATIO_EXACT_BITS, else as a 12-digit decimal.

    The branch is decided on the lowest-terms form, which
    `lowest_terms_within` finds from the leading bits of each side and
    their residues modulo a prime, with no gcd.  The decimal divides the
    leading bits of each side.  So no multi-million-bit integer is
    converted, reduced or divided, and only the two products that confirm a
    candidate p/q multiply one.
    """
    reduced = lowest_terms_within(crossings, pairs, RATIO_EXACT_BITS)
    if reduced is not None:
        return f"{reduced[0]}/{reduced[1]}"
    num_shift = max(0, crossings.bit_length() - _RATIO_DECIMAL_BITS)
    den_shift = max(0, pairs.bit_length() - _RATIO_DECIMAL_BITS)
    value = _RATIO_CONTEXT.divide(crossings >> num_shift, pairs >> den_shift)
    scale = _RATIO_CONTEXT.power(2, num_shift - den_shift)
    return nstr(_RATIO_CONTEXT.multiply(value, scale), 12)


def _table_row(g: int, alpha: Fraction, digits: int) -> TableRow:
    """The row of one (g, alpha); its exact integers live as long as the row.

    The ratio is rendered first, so the pair count, as long as the crossing
    total, is let go before the bounds build their exact values.  The pair
    count is built before the total: in that order the README grid's
    `bounds` process peaks about 0.2 MB lower in RSS (CPython 3.11, glibc
    malloc), with the same tracemalloc peak."""
    surface = plan_composite(g, alpha)
    system = generate_system(surface)
    pairs = system.pair_count
    crossings = total_crossings(system)
    ratio = render_ratio(crossings, pairs)
    del pairs
    lower = _lower_bound(g, alpha, surface.h_prime, digits)
    count = _construction_count(surface, digits)
    upper = upper_bound(g, SparsityThreshold.power(alpha), digits=digits)
    return TableRow(
        g=g,
        alpha=alpha,
        h=surface.h,
        h_prime=surface.h_prime,
        base_genus=surface.base_genus,
        count=count.exact,
        count_log10=nstr(count.log10, PRINT_DIGITS),
        lower_log10=nstr(lower.log10, PRINT_DIGITS),
        upper_tight_log10=nstr(upper.tight.log10, PRINT_DIGITS),
        upper_rounded_log10=nstr(upper.rounded.log10, PRINT_DIGITS),
        crossings=crossings,
        ratio=ratio,
        mode=system.mode,
        lower_le_count=certified_le(lower, count),
        lower_le_upper=certified_le(lower, upper.rounded),
    )


def table_rows(
    g_values: Iterable[int],
    alphas: Iterable[Fraction | int | str],
    *,
    digits: int = DEFAULT_DIGITS,
) -> Iterator[TableRow]:
    """One row per (g, alpha), ordered by (g, alpha), each built when it is
    asked for.

    Each row reports the construction parameters, exact counts, the three
    bound values in log10, the exact sparsity ratio of the generated system,
    and the two consistency flags, each certified.  Crossing totals come from
    `intersections.total_crossings`; the mode column is the system's mode.
    The exponents are parsed at once; a row's own errors are raised when that
    row is reached.  A consumer that lets each row go before it asks for the
    next holds one row's exact integers at a time.
    """
    alpha_values = sorted(set(map(parse_fraction, alphas)))
    genera = sorted(set(g_values))
    return (_table_row(g, alpha, digits) for g in genera for alpha in alpha_values)


def bounds_table(
    g_values: Iterable[int],
    alphas: Iterable[Fraction | int | str],
    *,
    digits: int = DEFAULT_DIGITS,
) -> list[TableRow]:
    """The rows of `table_rows`, as a list.

    Every row is held at once: at g = 10**6 and alpha = 1 a row's exact
    count and crossing total run to 1 and 2 million bits.
    """
    return list(table_rows(g_values, alphas, digits=digits))


# TableRow's fields, with the surface parameters spelled as in documents
_TABLE_COLUMNS = tuple(
    {"h_prime": "hPrime", "base_genus": "baseGenus"}.get(name, name)
    for name in TableRow._fields
)


def _cell(field: str, value: object) -> object:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return fraction_text(value, slash=True)
    if field in ("count", "crossings"):  # blank when unknown or past ~60 digits
        return "" if value is None or value.bit_length() > 200 else str(value)
    return value


def _row_cells(row: TableRow) -> dict[str, object]:
    return {
        column: _cell(field, value)
        for column, field, value in zip(_TABLE_COLUMNS, TableRow._fields, row)
    }


def render_table_csv(rows: Iterable[TableRow]) -> str:
    """The rows as CSV text under a header line.

    rows may be any iterable, `table_rows` too.  Each row is turned into its
    cells and let go before the next is asked for: `map` binds no name to it.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_TABLE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(map(_row_cells, rows))
    return buffer.getvalue()


def render_table_json(rows: Iterable[TableRow]) -> str:
    """The rows as a JSON object of `columns` and `rows`, any iterable of
    rows taken as `render_table_csv` takes it."""
    payload = {"columns": list(_TABLE_COLUMNS), "rows": list(map(_row_cells, rows))}
    return json.dumps(payload, indent=2) + "\n"
