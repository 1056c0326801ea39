"""Exact and log-space evaluation of curve-system size bounds.

Values like 2**sqrt(g) outgrow any machine float long before g gets
interesting, so every bound carries a rigorous base-10 log enclosure, plus an
exact big rational whenever the formula happens to evaluate to one (the
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
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

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
    certify,
    endpoints,
    interval_context,
    iv_fraction,
    log10_int,
    midpoint,
    power_ln,
)
from .surfaces import check_plan_domain, plan_composite

if TYPE_CHECKING:  # mpmath is imported where an interval is first evaluated
    import mpmath

# Exact values are materialized only below this bit size; larger ones are
# carried purely in log space.
MAX_EXACT_BITS = 8_000_000


class BoundValue(NamedTuple):
    """A bound's value: always a log10 enclosure, exact rational when it exists."""

    formula: str
    log10: mpmath.mpf  # midpoint of the enclosure at `digits`
    exact: Optional[Fraction]
    digits: int
    evaluate: Callable[[int], object]  # digits -> enclosure of log10(value), memoised

    def enclosure(self, digits: int) -> tuple[mpmath.mpf, mpmath.mpf]:
        return endpoints(self.evaluate(digits))


def _make_bound(
    formula: str,
    evaluator: Callable[[int], object],
    digits: int,
    exact: Optional[Fraction] = None,
) -> BoundValue:
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
    exact integer the whole value is attached as an exact rational.
    """
    alpha = check_plan_domain(g, alpha)
    prefactor = floor_scaled_power(Fraction(2), g, (1 - alpha) / 2)
    exponent = (1 + alpha) / 2
    exp_int = is_exact_power(g, exponent)
    exact = None
    if exp_int is not None and exp_int <= MAX_EXACT_BITS:
        exact = Fraction(prefactor * 2 ** exp_int, 16)

    def evaluate(d: int):
        ctx = interval_context(d)
        power = power_ln(ctx, g, exponent)
        return (
            log10_int(ctx, prefactor)
            - log10_int(ctx, 16)
            + power * ctx.log(ctx.mpf(2)) / ctx.ln10
        )

    return _make_bound("count_lower_bound", evaluate, digits, exact)


def construction_count(
    g: int, alpha: Fraction | int | str, *, digits: int = DEFAULT_DIGITS
) -> BoundValue:
    """Size h' * 4**(h-1) of the generated system, as an exact big integer."""
    surface = plan_composite(g, alpha)
    h, h_prime = surface.h, surface.h_prime
    exact = None
    if 2 * (h - 1) <= MAX_EXACT_BITS:
        exact = Fraction(h_prime << 2 * (h - 1))

    def evaluate(d: int):
        ctx = interval_context(d)
        return log10_int(ctx, h_prime) + (h - 1) * log10_int(ctx, 4)

    return _make_bound("construction_count", evaluate, digits, exact)


class SizeUpperBound(NamedTuple):
    """Both shapes of the size ceiling; tight <= rounded always."""

    tight: BoundValue
    rounded: BoundValue


def _check_genus(g: int) -> None:
    if not isinstance(g, int) or g < 2:
        raise DomainError(f"genus must be an integer >= 2, got {g!r}")


def _as_threshold(f: SparsityThreshold | Fraction | int | str) -> SparsityThreshold:
    if isinstance(f, SparsityThreshold):
        return f
    return SparsityThreshold.rational(f)


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
    threshold = _as_threshold(f)

    def scaled_f(ctx, scale: int):
        # scale already carries its g factors; f(g) = g**alpha multiplies in whole
        if threshold.kind == "rational":
            return iv_fraction(ctx, scale * threshold.value)
        return ctx.mpf(scale) * power_ln(ctx, g, threshold.value)

    def eval_tight(d: int):
        ctx = interval_context(d)
        return (
            log10_int(ctx, 2 * g - 1)
            + (ctx.sqrt(scaled_f(ctx, 64 * (2 * g - 2))) + 6) / ctx.ln10
        )

    def eval_rounded(d: int):
        ctx = interval_context(d)
        return (
            log10_int(ctx, 2 * g)
            + (ctx.sqrt(scaled_f(ctx, 128 * g)) + 6) / ctx.ln10
        )

    return SizeUpperBound(
        tight=_make_bound("size_upper_bound_tight", eval_tight, digits),
        rounded=_make_bound("size_upper_bound", eval_rounded, digits),
    )


class InequalityStatus(Enum):
    NOT_APPLICABLE = "not-applicable"
    HOLDS = "holds"
    INCONSISTENT = "inconsistent"
    UNDECIDED = "undecided"


class CrossingInequalityVerdict(NamedTuple):
    status: InequalityStatus
    threshold_log10: mpmath.mpf
    size_log10: mpmath.mpf
    left_log10: Optional[mpmath.mpf]
    crossings_log10: Optional[mpmath.mpf]
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
    Both comparisons go through `logspace.certify`; one still undecided at
    MAX_DIGITS is reported UNDECIDED.
    """
    _check_genus(g)
    if not isinstance(m, int) or m < 2:
        raise DomainError(f"system size must be an integer >= 2, got {m!r}")
    if cr < 0:
        raise DomainError(f"crossing total must be >= 0, got {cr}")

    # memoised, so that verdict reuses the enclosures certify settled on
    @cache
    def threshold(d: int):  # log10(e**6 * (2g-1))
        ctx = interval_context(d)
        return log10_int(ctx, 2 * g - 1) + 6 / ctx.ln10

    @cache
    def size(d: int):
        return log10_int(interval_context(d), m)

    def gap(ctx):  # ln(m / ((2g-1) * e**6)), positive exactly in the applicable regime
        return ctx.log(ctx.mpf(m)) - ctx.log(ctx.mpf(2 * g - 1)) - 6

    @cache
    def left(d: int):
        ctx = interval_context(d)
        gap_iv = gap(ctx)
        if endpoints(gap_iv)[0] <= 0:
            # log(gap) is undefined until the gap is certified positive; the
            # whole real line overlaps every enclosure, so certify retries
            return ctx.mpf(["-inf", "inf"])
        return (
            2 * (log10_int(ctx, m) + ctx.log(gap_iv) / ctx.ln10)
            - log10_int(ctx, 128 * (2 * g - 2))
        )

    @cache
    def crossings(d: int):
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
        # m versus e**6 * (2g-1); never equal (threshold irrational)
        below, d = certify(size, threshold, strict=True, digits=digits)
        if below:
            return verdict(InequalityStatus.NOT_APPLICABLE, d)
        if cr == 0:
            # the left side is a square, never below zero crossings; the gap
            # is certified positive only so that the left side can be reported
            _, d = certify(
                lambda d: interval_context(d).mpf(0),
                lambda d: gap(interval_context(d)),
                strict=True,
                digits=d,
            )
            return verdict(InequalityStatus.INCONSISTENT, d, left)
        holds, d = certify(left, crossings, strict=True, digits=d)
    except PrecisionError:  # raised at MAX_DIGITS, or at once from above it
        return verdict(InequalityStatus.UNDECIDED, max(digits, MAX_DIGITS))
    status = InequalityStatus.HOLDS if holds else InequalityStatus.INCONSISTENT
    return verdict(status, d, left, crossings)


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
        raise DomainError(f"linear regime needs alpha <= -1, got {alpha}")
    _check_genus(g)

    def eval_value(d: int):
        ctx = interval_context(d)
        inner = ctx.mpf(128) * power_ln(ctx, g, 1 + alpha)
        return log10_int(ctx, 2 * g) + (ctx.sqrt(inner) + 6) / ctx.ln10

    def eval_coeff(d: int):
        ctx = interval_context(d)
        return (ctx.sqrt(ctx.mpf(128)) + 6) / ctx.ln10

    return LinearRegimeBound(
        value=_make_bound("linear_regime_bound", eval_value, digits),
        coefficient=_make_bound("linear_regime_coefficient", eval_coeff, digits),
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


def nstr(x: mpmath.mpf) -> str:
    """x at the 15 significant digits every printed log10 uses."""
    import mpmath

    return mpmath.nstr(x, 15)


# A ratio cell is exact p/q while its lowest terms fit in this many bits.
RATIO_EXACT_BITS = 133

# Significant bits kept of each side of a ratio shown as a 12-digit decimal.
_RATIO_DECIMAL_BITS = 256


def render_ratio(crossings: int, pairs: int) -> str:
    """crossings/pairs as exact p/q in lowest terms while that fits
    RATIO_EXACT_BITS, else as a 12-digit decimal.

    The branch is decided on the lowest-terms form, which
    `lowest_terms_within` finds without a gcd.  The decimal divides the
    leading bits of each side, so no multi-million-bit integer is converted
    or reduced.
    """
    reduced = lowest_terms_within(crossings, pairs, RATIO_EXACT_BITS)
    if reduced is not None:
        return f"{reduced[0]}/{reduced[1]}"
    num_shift = max(0, crossings.bit_length() - _RATIO_DECIMAL_BITS)
    den_shift = max(0, pairs.bit_length() - _RATIO_DECIMAL_BITS)
    import mpmath
    from mpmath import mp

    with mp.workdps(30):
        value = mp.mpf(crossings >> num_shift) / mp.mpf(pairs >> den_shift)
        return mpmath.nstr(mpmath.ldexp(value, num_shift - den_shift), 12)


def bounds_table(
    g_values: Sequence[int],
    alphas: Sequence[Fraction | int | str],
    *,
    digits: int = DEFAULT_DIGITS,
) -> list[TableRow]:
    """One row per (g, alpha), ordered by (g, alpha).

    Each row reports the construction parameters, exact counts, the three
    bound values in log10, the exact sparsity ratio of the generated system,
    and the two consistency flags, each certified.  Crossing totals come from
    `intersections.total_crossings`; the mode column is the system's mode.
    """
    rows: list[TableRow] = []
    alpha_values = sorted(set(map(parse_fraction, alphas)))
    for g in sorted(set(g_values)):
        for alpha in alpha_values:
            surface = plan_composite(g, alpha)
            lower = lower_bound(g, alpha, digits=digits)
            count = construction_count(g, alpha, digits=digits)
            upper = upper_bound(
                g, SparsityThreshold.power(alpha), digits=digits
            )
            system = generate_system(surface)
            crossings = total_crossings(system)
            count_int = (
                int(count.exact) if count.exact is not None else None
            )
            rows.append(
                TableRow(
                    g=g,
                    alpha=alpha,
                    h=surface.h,
                    h_prime=surface.h_prime,
                    base_genus=surface.base_genus,
                    count=count_int,
                    count_log10=nstr(count.log10),
                    lower_log10=nstr(lower.log10),
                    upper_tight_log10=nstr(upper.tight.log10),
                    upper_rounded_log10=nstr(upper.rounded.log10),
                    crossings=crossings,
                    ratio=render_ratio(crossings, system.pair_count),
                    mode=system.mode,
                    lower_le_count=certified_le(lower, count),
                    lower_le_upper=certified_le(lower, upper.rounded),
                )
            )
    return rows


_TABLE_COLUMNS = (
    "g",
    "alpha",
    "h",
    "hPrime",
    "baseGenus",
    "count",
    "count_log10",
    "lower_log10",
    "upper_tight_log10",
    "upper_rounded_log10",
    "crossings",
    "ratio",
    "mode",
    "lower_le_count",
    "lower_le_upper",
)


def _int_cell(value: Optional[int]) -> str:
    if value is None or value.bit_length() > 200:  # ~60 decimal digits
        return ""
    return str(value)


def _row_cells(row: TableRow) -> dict[str, object]:
    count_text = _int_cell(row.count)
    crossings_text = _int_cell(row.crossings)
    return {
        "g": row.g,
        "alpha": f"{row.alpha.numerator}/{row.alpha.denominator}",
        "h": row.h,
        "hPrime": row.h_prime,
        "baseGenus": row.base_genus,
        "count": count_text,
        "count_log10": row.count_log10,
        "lower_log10": row.lower_log10,
        "upper_tight_log10": row.upper_tight_log10,
        "upper_rounded_log10": row.upper_rounded_log10,
        "crossings": crossings_text,
        "ratio": row.ratio,
        "mode": row.mode,
        "lower_le_count": "true" if row.lower_le_count else "false",
        "lower_le_upper": "true" if row.lower_le_upper else "false",
    }


def render_table_csv(rows: Sequence[TableRow]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_TABLE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(_row_cells(row))
    return buffer.getvalue()


def render_table_json(rows: Sequence[TableRow]) -> str:
    payload = {"columns": list(_TABLE_COLUMNS), "rows": [_row_cells(r) for r in rows]}
    return json.dumps(payload, indent=2) + "\n"
