"""Bound formulas, certified comparisons, inequality gate, tables."""

import hashlib
import json
import math
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from typing import Callable
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from sparsecurves import bounds as bounds_module
from sparsecurves.bounds import (
    MAX_EXACT_BITS,
    RATIO_EXACT_BITS,
    BoundValue,
    InequalityStatus,
    bounds_table,
    certified_le,
    construction_count,
    crossing_inequality_check,
    linear_regime_bound,
    lower_bound,
    render_ratio,
    render_table_csv,
    render_table_json,
    table_rows,
    upper_bound,
)
from sparsecurves.cli import main
from sparsecurves.curves import SparsityThreshold, generate_system
from sparsecurves.errors import DomainError
from sparsecurves.exactint import floor_scaled_power, lowest_terms_within
from sparsecurves.intersections import total_crossings
from sparsecurves.logspace import MAX_DIGITS, IntervalContext, certify, interval_context, log10_int
from sparsecurves.surfaces import check_plan_domain, plan_composite


def test_lower_bound_exact_values():
    assert lower_bound(16, 0).exact == 8
    assert lower_bound(36, 0).exact == 48
    assert lower_bound(64, 0).exact == 256
    assert lower_bound(100, 0).exact == 1280


def test_lower_bound_non_square_has_no_exact_value():
    value = lower_bound(17, 0)
    assert value.exact is None
    # 2**sqrt(17) * floor(2*sqrt(17)) / 16 = 2**4.123 * 8 / 16
    with mp.workdps(30):
        expected = mpmath.sqrt(17) * mpmath.log(2, 10) + mpmath.log(8, 10) - mpmath.log(16, 10)
        assert abs(mpmath.mpf(str(value.log10)) - expected) < mpmath.mpf("1e-20")


def test_bound_value_log_matches_exact():
    for g, alpha in ((16, 0), (36, 0), (10000, 0)):
        value = lower_bound(g, alpha)
        if value.exact is None:
            continue
        with mp.workdps(80):
            true_log = mpmath.log(mpmath.mpf(value.exact.numerator), 10) - mpmath.log(
                mpmath.mpf(value.exact.denominator), 10
            )
            assert abs(true_log - mpmath.mpf(str(value.log10))) < mpmath.mpf("1e-20")


def test_lower_bound_needs_no_buildable_plan():
    # h = 5*10^8 exceeds MAX_NECKLACE_GENUS, so no construction is planned,
    # but 2**sqrt(g) * floor(2*sqrt(g)) / 16 is still bounded in log space
    value = lower_bound(10 ** 18, 0)
    assert value.exact is None
    enclosure = value.evaluate(50)
    assert (enclosure.lo, enclosure.hi) == (
        Decimal("301030003.760891208221795309083276342594710801157538896924099"),
        Decimal("301030003.760891208221795309083276342594710801157538896924104"),
    )
    with pytest.raises(DomainError, match="necklace genus"):
        construction_count(10 ** 18, 0)


def test_construction_count_exact_values():
    assert construction_count(16, 0).exact == 32
    assert construction_count(36, 0).exact == 192
    assert construction_count(64, 0).exact == 1024


def test_lower_bound_below_count():
    for g in (16, 36, 64, 100, 1000, 10 ** 6):
        lower = lower_bound(g, 0)
        count = construction_count(g, 0)
        assert certified_le(lower, count)


# (1 + alpha)/2 = r/s for each alpha: at g = k**s the exponent is E = k**r
_EXACT_EXPONENTS = {
    Fraction(1): (1, 1),
    Fraction(1, 2): (3, 4),
    Fraction(1, 3): (2, 3),
    Fraction(0): (1, 2),
    Fraction(-1, 3): (1, 3),
    Fraction(-1, 2): (1, 4),
}


@given(alpha=st.sampled_from(sorted(_EXACT_EXPONENTS)), k=st.integers(4, 3000))
@settings(max_examples=60, deadline=None)
def test_lower_bound_exact_is_the_prefactor_times_a_power_of_two(alpha, k):
    r, s = _EXACT_EXPONENTS[alpha]
    g, exponent = k ** s, k ** r
    h_prime = floor_scaled_power(Fraction(2), g, (1 - alpha) / 2)
    expected = Fraction(h_prime << exponent, 16) if exponent <= MAX_EXACT_BITS else None
    exact = lower_bound(g, alpha).exact
    assert exact == expected
    assert exact is None or type(exact) is int


def _exact_bound(value: int) -> BoundValue:
    def evaluate(digits: int):
        raise AssertionError("two exact values are compared without enclosures")

    return BoundValue("exact", Decimal(0), value, 50, evaluate)


# integers of many bits, as the construction count and the lower bound are,
# some a power-of-two shift of a small factor and some differing by one
_exact_sides = st.one_of(
    st.tuples(st.integers(0, 1 << 3000), st.integers(0, 1 << 3000)),
    st.tuples(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(0, 3000)).map(
        lambda t: (t[0] << t[2], t[1] << t[2])
    ),
    st.integers(0, 1 << 3000).map(lambda n: (n, n + 1)),
)


@given(sides=_exact_sides)
@settings(max_examples=200, deadline=None)
def test_certified_le_of_exact_values_is_integer_le(sides):
    a, b = sides
    assert certified_le(_exact_bound(a), _exact_bound(b)) == (a <= b)
    assert certified_le(_exact_bound(b), _exact_bound(a)) == (b <= a)
    assert certified_le(_exact_bound(a), _exact_bound(a))


def test_domain_errors():
    with pytest.raises(DomainError):
        lower_bound(15, 0)
    with pytest.raises(DomainError):
        lower_bound(100, Fraction(-1))
    with pytest.raises(DomainError):
        upper_bound(1, 1)
    with pytest.raises(DomainError):
        upper_bound(16, 0)


def test_upper_bound_tight_below_rounded():
    for g in (2, 16, 100, 12345):
        for f in (Fraction(1), Fraction(1, 3), SparsityThreshold.power(Fraction(1, 2))):
            pair = upper_bound(g, f)
            assert certified_le(pair.tight, pair.rounded)


def test_upper_bound_16_value():
    pair = upper_bound(16, 1)
    with mp.workdps(40):
        expected = mpmath.log(32, 10) + (mpmath.sqrt(2048) + 6) / mpmath.log(10)
        assert abs(mpmath.mpf(str(pair.rounded.log10)) - expected) < mpmath.mpf("1e-25")
    assert certified_le(construction_count(16, 0), pair.rounded)


def test_upper_bound_power_matches_rational_at_alpha_zero():
    a = upper_bound(400, SparsityThreshold.power(0))
    b = upper_bound(400, 1)
    with mp.workdps(60):
        for x, y in ((a.rounded.log10, b.rounded.log10), (a.tight.log10, b.tight.log10)):
            assert abs(mpmath.mpf(str(x)) - mpmath.mpf(str(y))) < mpmath.mpf("1e-30")


def test_theorem_sides_never_cross_samples():
    for g in (16, 100, 10 ** 4):
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
            lower = lower_bound(g, alpha)
            upper = upper_bound(g, SparsityThreshold.power(alpha))
            assert certified_le(lower, upper.rounded)


def test_inequality_not_applicable_below_threshold():
    verdict = crossing_inequality_check(16, 32, 0)
    assert verdict.status is InequalityStatus.NOT_APPLICABLE
    # e**6 * 31 = 12506.7...; size 32 sits far below
    assert verdict.size_log10 < verdict.threshold_log10


def test_inequality_inconsistent_for_zero_crossings_above_threshold():
    # m chosen just above e**7 * (2g-1): no genuine system of that size has cr = 0
    g = 16
    m = 34000
    verdict = crossing_inequality_check(g, m, 0)
    assert verdict.status is InequalityStatus.INCONSISTENT
    assert verdict.left_log10 is not None


def test_inequality_holds_for_large_crossings():
    g = 16
    m = 20000
    verdict = crossing_inequality_check(g, m, 10 ** 12)
    assert verdict.status is InequalityStatus.HOLDS
    assert verdict.crossings_log10 is not None


def test_inequality_rejects_bad_args():
    with pytest.raises(DomainError):
        crossing_inequality_check(1, 10, 0)
    with pytest.raises(DomainError):
        crossing_inequality_check(16, 1, 0)


def test_linear_regime_alpha_minus_one_exact_shape():
    bound = linear_regime_bound(50, -1)
    with mp.workdps(40):
        expected = mpmath.log(100, 10) + (mpmath.sqrt(128) + 6) / mpmath.log(10)
        assert abs(mpmath.mpf(str(bound.value.log10)) - expected) < mpmath.mpf("1e-25")
        coeff_expected = (mpmath.sqrt(128) + 6) / mpmath.log(10)
        assert abs(mpmath.mpf(str(bound.coefficient.log10)) - coeff_expected) < mpmath.mpf("1e-25")


def test_linear_regime_monotone_in_alpha():
    # alpha = -2 exponent sqrt(128/g) is below the alpha = -1 exponent sqrt(128)
    at_minus_two = linear_regime_bound(100, -2)
    at_minus_one = linear_regime_bound(100, -1)
    assert certified_le(at_minus_two.value, at_minus_one.value)


def test_linear_regime_rejects_wrong_regime():
    with pytest.raises(DomainError):
        linear_regime_bound(100, Fraction(-1, 2))


def test_linear_regime_dominates_disjoint_maximum_samples():
    for g in (2, 17, 1000, 10 ** 6):
        bound = linear_regime_bound(g, -1)
        target = 3 * g - 3
        if target == 0:
            continue
        assert certify(
            lambda d, t=target: log10_int(interval_context(d), t),
            bound.value.evaluate,
        )[0]


def test_construction_count_monotone_where_parameters_are():
    from sparsecurves.surfaces import plan_composite

    previous = None
    prev_params = None
    for g in range(16, 400):
        surface = plan_composite(g, Fraction(0))
        value = construction_count(g, 0).exact
        if previous is not None and surface.h >= prev_params[0] and surface.h_prime >= prev_params[1]:
            assert value >= previous
        previous, prev_params = value, (surface.h, surface.h_prime)


def test_table_five_rows_all_flags_true():
    rows = bounds_table([16, 25, 36, 49, 64], [Fraction(0)])
    assert len(rows) == 5
    assert all(r.lower_le_count and r.lower_le_upper for r in rows)
    assert all(r.mode == "explicit" for r in rows)
    assert [r.g for r in rows] == [16, 25, 36, 49, 64]


def test_table_mode_switches_to_analytic():
    rows = bounds_table([16, 1024], [Fraction(1)])
    modes = {r.g: r.mode for r in rows}
    # h = 8 gives 16384 words: beyond EXPLICIT_WORD_LIMIT, so no explicit cross-check
    assert modes[16] == "analytic"
    assert modes[1024] == "analytic"
    small = bounds_table([16], [Fraction(0)])
    assert small[0].mode == "explicit"


def test_table_empty_inputs_render_header_only():
    assert render_table_csv([]).splitlines()[0].startswith("g,alpha,h")
    assert len(render_table_csv([]).splitlines()) == 1


def test_table_csv_deterministic_and_parsable():
    rows = bounds_table([16, 36], [Fraction(0)])
    text1 = render_table_csv(rows)
    text2 = render_table_csv(bounds_table([36, 16], [Fraction(0)]))
    assert text1 == text2
    lines = text1.splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "g" and "lower_le_count" in header


def test_table_json_round_trip():
    rows = bounds_table([16], [Fraction(0)])
    payload = json.loads(render_table_json(rows))
    assert payload["rows"][0]["g"] == 16
    assert payload["rows"][0]["count"] == "32"
    assert payload["rows"][0]["lower_le_count"] == "true"


@given(
    genera=st.lists(st.integers(min_value=64, max_value=5000), min_size=1, max_size=3),
    alphas=st.lists(
        st.sampled_from([Fraction(-1, 3), Fraction(0), Fraction(1, 2), Fraction(1)]),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=25, deadline=None)
def test_streamed_rows_render_as_the_listed_table(genera, alphas):
    rows = bounds_table(genera, alphas)
    assert render_table_csv(table_rows(genera, alphas)) == render_table_csv(rows)
    assert render_table_json(table_rows(genera, alphas)) == render_table_json(rows)


# README's grid `--g-range 16:1000000:50` from g = 131,560 up: at alpha = 1
# each row's exact count and crossing total run to 0.26-2 million bits
_MEGABIT_GENERA = "131560,164816,206478,258672,324059,405975,508598,637162,798224,1000000"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bounds_holds_one_row_of_exact_integers_at_a_time(tmp_path, fmt):
    def traced_peak(genera: str) -> int:
        argv = ["bounds", "--g", genera, "--alpha", "1/1", "--format", fmt]
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "table")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak("16")
    one_row = traced_peak("1000000")
    # the ninth row's count and crossing total, 0.38 (CSV) and 0.46 (JSON)
    # of one_row: a renderer that keeps that row alive while the tenth is
    # built (a loop variable) peaks at 1.40 and 1.48 times one_row, and one
    # fed a finished list at 2.99 times
    (ninth,) = bounds_table([798224], [Fraction(1)])
    finished_row = sys.getsizeof(ninth.count) + sys.getsizeof(ninth.crossings)
    assert traced_peak(_MEGABIT_GENERA) < one_row + finished_row / 2


def _traced_peak(call: Callable[[], object]) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _megabit_totals() -> tuple[int, int]:
    """The crossing total and pair count at g = 10**6, alpha = 1: about two
    million bits, 250 KB, each."""
    system = generate_system(plan_composite(10 ** 6, Fraction(1)))
    return total_crossings(system), system.pair_count


def test_a_megabit_row_peaks_near_its_own_integers():
    def row():
        return bounds_module._table_row(10 ** 6, Fraction(1), 50)

    row()  # the interval contexts and logarithm caches are filled once
    peak = _traced_peak(row)
    own = sys.getsizeof(row().count) + sum(map(sys.getsizeof, _megabit_totals()))
    # the row reads 1.00 times own; one that keeps the pair count alive while
    # the bounds are built, or cross-multiplies the exact bounds, reads 1.21,
    # and one that reduces the ratio by a full-size division 2.0
    assert peak < 1.2 * own


def test_render_ratio_reads_only_the_leading_bits_of_megabit_totals():
    crossings, pairs = _megabit_totals()
    # a full-size quotient or product would be a 250 KB copy of one side
    assert _traced_peak(lambda: render_ratio(crossings, pairs)) < 64 * 1024


def _ratio_cell_by_gcd(crossings: int, pairs: int) -> str | None:
    """The exact cell as the gcd route writes it, or None past 133 bits."""
    ratio = Fraction(crossings, pairs)
    if ratio.numerator.bit_length() + ratio.denominator.bit_length() <= 133:
        return f"{ratio.numerator}/{ratio.denominator}"
    return None


def _unit_in_12th_digit(value: Fraction) -> Fraction:
    exponent = len(str(value.numerator)) - len(str(value.denominator))
    while Fraction(10) ** exponent > value:
        exponent -= 1
    while Fraction(10) ** (exponent + 1) <= value:
        exponent += 1
    return Fraction(10) ** (exponent - 11)


def _of_bits(bits: int, salt: int) -> int:
    """A `bits`-bit integer whose lower bits hash the draw: shrinking toward
    2**(bits-1) would make every drawn ratio a power of two."""
    digest = hashlib.sha256(f"{bits}:{salt}".encode()).digest()
    return (1 << (bits - 1)) | int.from_bytes(digest, "big") % (1 << (bits - 1))


# bit lengths skewed small or large, so the lowest-terms sizes fall on both
# sides of 133 bits
_bit_length = st.integers(min_value=1, max_value=120)
_sized = st.builds(
    _of_bits,
    st.one_of(_bit_length, _bit_length.map(lambda b: 121 - b)),
    st.integers(min_value=0, max_value=2 ** 32),
)


@given(
    p=_sized,
    q=_sized,
    shift=st.integers(min_value=0, max_value=3000),
    odd=st.integers(min_value=0, max_value=2 ** 2000).map(lambda k: 2 * k + 1),
)
@settings(max_examples=300, deadline=None)
def test_render_ratio_matches_the_gcd_route(p, q, shift, odd):
    crossings, pairs = (p * odd) << shift, (q * odd) << shift
    text = render_ratio(crossings, pairs)
    expected = _ratio_cell_by_gcd(crossings, pairs)
    if expected is not None:
        assert text == expected
        return
    assert "/" not in text
    exact = Fraction(crossings, pairs)
    assert abs(Fraction(text) - exact) <= _unit_in_12th_digit(exact)


def _ratio_cell_by_mpmath(crossings: int, pairs: int) -> str:
    """The 12-digit cell as the former mpmath route wrote it: the leading
    256 bits of each side divided at 30 digits, then mpmath.nstr."""
    num_shift = max(0, crossings.bit_length() - 256)
    den_shift = max(0, pairs.bit_length() - 256)
    with mp.workdps(30):
        value = mp.mpf(crossings >> num_shift) / mp.mpf(pairs >> den_shift)
        return mpmath.nstr(mpmath.ldexp(value, num_shift - den_shift), 12)


# up to 4,000 bits, so that the leading 256 bits drop nonzero ones
_long = st.builds(_of_bits, st.integers(1, 4000), st.integers(min_value=0, max_value=2 ** 32))


@given(
    p=st.one_of(_sized, _long),
    q=st.one_of(_sized, _long),
    shift=st.integers(min_value=0, max_value=3000),
    extra=st.integers(min_value=0, max_value=3000),
)
@settings(max_examples=300, deadline=None)
def test_render_ratio_matches_the_mpmath_route(p, q, shift, extra):
    crossings, pairs = p << extra, q << shift
    assume(lowest_terms_within(crossings, pairs, RATIO_EXACT_BITS) is None)
    assert render_ratio(crossings, pairs) == _ratio_cell_by_mpmath(crossings, pairs)


@pytest.mark.parametrize(
    "g, alpha, text",
    [
        # crossings and pairs of 247 and 149 bits together, in lowest terms
        # within 133 bits
        (3574, 0, "1841972247594532863/17149707381026848766"),
        (39, 1, "1112396529663/274877906942"),
        # 2,000,014-bit crossings: decimal from the leading bits, no reduction
        (10 ** 6, 1, "117187.09375"),
    ],
)
def test_render_ratio_pins(g, alpha, text):
    system = generate_system(plan_composite(g, Fraction(alpha)))
    assert render_ratio(total_crossings(system), system.pair_count) == text


# ----------------------------------------------------------------------
# Shared interval contexts against a fresh context per evaluation
# ----------------------------------------------------------------------

# Every precision certify reaches from the starts 1, 3 and 50 by doubling up
# to the cap.
_DOUBLING_STEPS = sorted(
    {min(start << k, MAX_DIGITS) for start in (1, 3, 50) for k in range(11)}
)


def _fresh_context(digits):
    """The replaced path: a private context built for every evaluation."""
    return IntervalContext(digits)


def _bound_enclosures(g, alpha, f, linear_alpha, digits):
    upper = upper_bound(g, f, digits=digits)
    linear = linear_regime_bound(g, linear_alpha, digits=digits)
    values = [
        lower_bound(g, alpha, digits=digits),
        construction_count(g, alpha, digits=digits),
        upper.tight,
        upper.rounded,
        linear.value,
        linear.coefficient,
    ]
    return [(v.log10, v.evaluate(digits).lo, v.evaluate(digits).hi) for v in values]


@given(
    g=st.integers(16, 10 ** 6),
    alpha=st.sampled_from([Fraction(-1, 3), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
    rational_f=st.booleans(),
    linear_alpha=st.sampled_from([Fraction(-1), Fraction(-3, 2), Fraction(-5)]),
    cr=st.integers(0, 10 ** 40),
    near_threshold=st.integers(-2, 2),
    digits=st.sampled_from(_DOUBLING_STEPS),
)
@settings(max_examples=60, deadline=None)
def test_shared_contexts_give_the_fresh_context_endpoints(
    g, alpha, rational_f, linear_alpha, cr, near_threshold, digits
):
    try:
        check_plan_domain(g, alpha)
    except DomainError:
        return
    f = Fraction(g, 7) if rational_f else SparsityThreshold.power(alpha)
    # sizes on both sides of the inequality's threshold e**6 * (2g-1)
    m = max(2, int(math.exp(6) * (2 * g - 1)) + near_threshold)

    def outcomes():
        return (
            _bound_enclosures(g, alpha, f, linear_alpha, digits),
            crossing_inequality_check(g, m, cr, digits=digits),
        )

    shared = outcomes()
    with patch.object(bounds_module, "interval_context", _fresh_context):
        fresh = outcomes()
    assert shared == fresh


# The bytes of `bounds --g 64,100,12345 --alpha -1/3,0/1,1/1`: both modes,
# exact and 12-digit decimal ratios, blank count/crossings cells past 200
# bits, and a negative alpha.
_PINNED_ARGV = ["bounds", "--g", "64,100,12345", "--alpha", "-1/3,0/1,1/1"]

_PINNED_CSV = """\
g,alpha,h,hPrime,baseGenus,count,count_log10,lower_log10,upper_tight_log10,upper_rounded_log10,crossings,ratio,mode,lower_le_count,lower_le_upper
64,-1/3,2,32,0,128,2.10720996964787,1.50514997831991,24.209344487357,24.3669015449514,0,0/1,explicit,true,true
64,0/1,4,16,0,1024,3.01029995663981,2.40823996531185,43.7091183623386,44.0208262288354,34560,45/682,explicit,true,true
64,1/1,32,2,0,9223372036854775808,18.9648897268308,18.3628297355029,316.705952612081,319.175771803212,301734755043175903146858359674424524800,130856590772877131775/18446744073709551614,analytic,true,true
100,-1/3,2,43,14,172,2.23552844690755,1.8266059393801,27.5966609946274,27.7131562244291,0,0/1,explicit,true,true
100,0/1,5,20,0,5120,3.70926996097583,3.10720996964787,53.7931403435899,54.0416085967935,1002240,783/10238,explicit,true,true
100,1/1,50,2,0,633825300114114700748351602688,29.8019695707341,29.1999095794062,493.789823725436,496.254913984184,,11.3125,analytic,true,true
12345,-1/3,11,1068,597,1119879168,9.04917116597216,8.78174176207868,120.552174483434,120.55679153919,2550385660133376,9109503/2239758334,analytic,true,true
12345,0/1,55,222,135,72043118912170733345860636567928832,34.8575925061606,34.5890904612692,552.90349737895,552.925626690334,,0.112471846847,analytic,true,true
12345,1/1,6172,2,1,,3715.61323648052,3715.31220648486,60661.4665356889,60663.9233436184,,1446.15625,analytic,true,true
"""

_PINNED_JSON = """\
{
  "columns": [
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
    "lower_le_upper"
  ],
  "rows": [
    {
      "g": 64,
      "alpha": "-1/3",
      "h": 2,
      "hPrime": 32,
      "baseGenus": 0,
      "count": "128",
      "count_log10": "2.10720996964787",
      "lower_log10": "1.50514997831991",
      "upper_tight_log10": "24.209344487357",
      "upper_rounded_log10": "24.3669015449514",
      "crossings": "0",
      "ratio": "0/1",
      "mode": "explicit",
      "lower_le_count": "true",
      "lower_le_upper": "true"
    },
    {
      "g": 64,
      "alpha": "0/1",
      "h": 4,
      "hPrime": 16,
      "baseGenus": 0,
      "count": "1024",
      "count_log10": "3.01029995663981",
      "lower_log10": "2.40823996531185",
      "upper_tight_log10": "43.7091183623386",
      "upper_rounded_log10": "44.0208262288354",
      "crossings": "34560",
      "ratio": "45/682",
      "mode": "explicit",
      "lower_le_count": "true",
      "lower_le_upper": "true"
    },
    {
      "g": 64,
      "alpha": "1/1",
      "h": 32,
      "hPrime": 2,
      "baseGenus": 0,
      "count": "9223372036854775808",
      "count_log10": "18.9648897268308",
      "lower_log10": "18.3628297355029",
      "upper_tight_log10": "316.705952612081",
      "upper_rounded_log10": "319.175771803212",
      "crossings": "301734755043175903146858359674424524800",
      "ratio": "130856590772877131775/18446744073709551614",
      "mode": "analytic",
      "lower_le_count": "true",
      "lower_le_upper": "true"
    },
    {
      "g": 100,
      "alpha": "-1/3",
      "h": 2,
      "hPrime": 43,
      "baseGenus": 14,
      "count": "172",
      "count_log10": "2.23552844690755",
      "lower_log10": "1.8266059393801",
      "upper_tight_log10": "27.5966609946274",
      "upper_rounded_log10": "27.7131562244291",
      "crossings": "0",
      "ratio": "0/1",
      "mode": "explicit",
      "lower_le_count": "true",
      "lower_le_upper": "true"
    },
    {
      "g": 100,
      "alpha": "0/1",
      "h": 5,
      "hPrime": 20,
      "baseGenus": 0,
      "count": "5120",
      "count_log10": "3.70926996097583",
      "lower_log10": "3.10720996964787",
      "upper_tight_log10": "53.7931403435899",
      "upper_rounded_log10": "54.0416085967935",
      "crossings": "1002240",
      "ratio": "783/10238",
      "mode": "explicit",
      "lower_le_count": "true",
      "lower_le_upper": "true"
    },
    {
      "g": 100,
      "alpha": "1/1",
      "h": 50,
      "hPrime": 2,
      "baseGenus": 0,
      "count": "633825300114114700748351602688",
      "count_log10": "29.8019695707341",
      "lower_log10": "29.1999095794062",
      "upper_tight_log10": "493.789823725436",
      "upper_rounded_log10": "496.254913984184",
      "crossings": "",
      "ratio": "11.3125",
      "mode": "analytic",
      "lower_le_count": "true",
      "lower_le_upper": "true"
    },
    {
      "g": 12345,
      "alpha": "-1/3",
      "h": 11,
      "hPrime": 1068,
      "baseGenus": 597,
      "count": "1119879168",
      "count_log10": "9.04917116597216",
      "lower_log10": "8.78174176207868",
      "upper_tight_log10": "120.552174483434",
      "upper_rounded_log10": "120.55679153919",
      "crossings": "2550385660133376",
      "ratio": "9109503/2239758334",
      "mode": "analytic",
      "lower_le_count": "true",
      "lower_le_upper": "true"
    },
    {
      "g": 12345,
      "alpha": "0/1",
      "h": 55,
      "hPrime": 222,
      "baseGenus": 135,
      "count": "72043118912170733345860636567928832",
      "count_log10": "34.8575925061606",
      "lower_log10": "34.5890904612692",
      "upper_tight_log10": "552.90349737895",
      "upper_rounded_log10": "552.925626690334",
      "crossings": "",
      "ratio": "0.112471846847",
      "mode": "analytic",
      "lower_le_count": "true",
      "lower_le_upper": "true"
    },
    {
      "g": 12345,
      "alpha": "1/1",
      "h": 6172,
      "hPrime": 2,
      "baseGenus": 1,
      "count": "",
      "count_log10": "3715.61323648052",
      "lower_log10": "3715.31220648486",
      "upper_tight_log10": "60661.4665356889",
      "upper_rounded_log10": "60663.9233436184",
      "crossings": "",
      "ratio": "1446.15625",
      "mode": "analytic",
      "lower_le_count": "true",
      "lower_le_upper": "true"
    }
  ]
}
"""


@pytest.mark.parametrize("fmt, expected", [("csv", _PINNED_CSV), ("json", _PINNED_JSON)])
def test_table_output_is_pinned_byte_for_byte(capsys, fmt, expected):
    assert main([*_PINNED_ARGV, "--format", fmt]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("digits", [0, -5, -10])
@pytest.mark.parametrize(
    "call",
    [
        lambda digits: lower_bound(16, 0, digits=digits),
        lambda digits: construction_count(16, 0, digits=digits),
        lambda digits: upper_bound(16, 1, digits=digits),
        lambda digits: linear_regime_bound(16, -1, digits=digits),
        lambda digits: bounds_table([16], [0], digits=digits),
    ],
    ids=["lower_bound", "construction_count", "upper_bound", "linear_regime_bound", "bounds_table"],
)
def test_bounds_refuse_a_precision_below_one_digit(call, digits):
    with pytest.raises(DomainError, match=rf"^precision must be at least 1 digit, got {digits}$"):
        call(digits)
