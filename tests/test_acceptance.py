"""Acceptance checklist: one check per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.  Checks either compare exact integers/rationals or separate
rigorous log10 enclosures.

The simplified display's upper constant 81938 is the ceiling of
e**sqrt(128) = 81937.2098...: the upper bound 2g*e**(sqrt(128g)+6) equals
2g*e**6*(e**sqrt(128))**sqrt(g), and 81937 < e**sqrt(128) < 81938 is what
makes c <= 81938 valid.  The display-constant pin checks that relation on a
rigorous enclosure.  Every criterion is expected to pass.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from mpmath import mp

from sparsecurves.bounds import (
    InequalityStatus,
    certified_le,
    construction_count,
    crossing_inequality_check,
    linear_regime_bound,
    lower_bound,
    upper_bound,
)
from sparsecurves.curves import (
    Curve,
    CurveSystem,
    SparsityThreshold,
    generate_system,
    sparsity_chain_check,
    verify_sparsity,
)
from sparsecurves.homology import certify_distinct, curve_class
from sparsecurves.intersections import (
    necklace_family_crossings,
    oracle_crossings_pl,
    pair_intersection,
    total_crossings_explicit,
)
from sparsecurves.logspace import certify, interval_context, log10_int, nstr
from sparsecurves.surfaces import plan_composite

CASES = ((16, 2, 8), (36, 3, 12), (64, 4, 16), (100, 5, 20))
DISPLAY_CONSTANT = 81938  # ceil(e**sqrt(128)), the upper display constant


def _line(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"ACCEPTANCE {tag}: {status}{suffix}")


_systems: dict[int, CurveSystem] = {}


def _system(g: int) -> CurveSystem:
    if g not in _systems:
        _systems[g] = generate_system(plan_composite(g, Fraction(0)))
    return _systems[g]


def test_criterion_01_construction_counts():
    """h' * 4**(h-1) curves with the planned (h, h'), base genus 0, under 10 s."""
    start = time.perf_counter()
    results = []
    for g, h, h_prime in CASES:
        surface = plan_composite(g, Fraction(0))
        system = _system(g)
        results.append(
            surface.h == h
            and surface.h_prime == h_prime
            and surface.base_genus == 0
            and system.curve_count == h_prime * 4 ** (h - 1)
        )
    elapsed = time.perf_counter() - start
    ok = all(results) and elapsed < 10.0
    _line("1 construction counts", ok, f"elapsed={elapsed:.2f}s")
    assert all(results)
    assert elapsed < 10.0


def test_criterion_02_sparsity_chain():
    """cr/C(n,2) <= (h-1)/h' <= 1/2 for every instance, exactly; g=100 under 60 s."""
    ok = True
    elapsed_100 = 0.0
    for g, h, h_prime in CASES:
        surface = plan_composite(g, Fraction(0))
        system = _system(g)
        start = time.perf_counter()
        crossings = total_crossings_explicit(system)
        elapsed = time.perf_counter() - start
        if g == 100:
            elapsed_100 = elapsed
        pairs = system.pair_count
        first, second = sparsity_chain_check(crossings, pairs, surface)
        half = 2 * crossings <= pairs  # ratio <= (1/2) * g**0
        ok = ok and first and second and half
        assert first and second and half, f"chain failed at g={g}"
    ok = ok and elapsed_100 < 60.0
    _line("2 sparsity chain", ok, f"g=100 crossings in {elapsed_100:.2f}s")
    assert elapsed_100 < 60.0


def test_criterion_03_oracle_equivalence():
    """10**4 random drawn pairs match the interleaving rule; analytic == explicit, h <= 6."""
    rng = random.Random(20260808)
    agreements = 0
    trials = 0
    for h in range(2, 7):
        surface = plan_composite(4 * h * h, Fraction(0))
        words = list(product((1, 2, 3, 4), repeat=h - 1))
        for _ in range(2000):
            u, w = rng.sample(words, 2)
            c1, c2 = Curve(0, u), Curve(0, w)
            trials += 1
            if oracle_crossings_pl(c1, c2, surface) == pair_intersection(c1, c2, surface):
                agreements += 1
    analytic_ok = True
    for h in range(2, 7):
        surface = plan_composite(4 * h * h, Fraction(0))
        family = CurveSystem(
            surface=surface,
            curves=tuple(Curve(0, w) for w in product((1, 2, 3, 4), repeat=h - 1)),
        )
        analytic_ok = analytic_ok and (
            total_crossings_explicit(family) == necklace_family_crossings(h)
        )
    ok = trials == 10_000 and agreements == trials and analytic_ok
    _line("3 oracle equivalence", ok, f"{agreements}/{trials} drawn pairs agree")
    assert trials == 10_000
    assert agreements == trials
    assert analytic_ok


def test_criterion_04_per_necklace_bound():
    """cr of one full family <= (h-1) * C(4**(h-1), 2) exactly, h in 2..6."""
    ok = True
    for h in range(2, 7):
        size = 4 ** (h - 1)
        bound = (h - 1) * size * (size - 1) // 2
        ok = ok and necklace_family_crossings(h) <= bound
    _line("4 per-necklace crossing bound", ok)
    assert ok


def test_criterion_05_homology_certificate():
    """Generated systems certify distinct; word-class map injective for h <= 6."""
    certified = all(certify_distinct(_system(g)).distinct for g, _, _ in CASES)
    injective = True
    for h in range(2, 7):
        surface = plan_composite(4 * h * h, Fraction(0))
        words = list(product((1, 2, 3, 4), repeat=h - 1))
        classes = {curve_class(Curve(0, w), surface).coefficients for w in words}
        injective = injective and len(classes) == 4 ** (h - 1)
    ok = certified and injective
    _line("5 homology certificate", ok)
    assert certified
    assert injective


def _log_grid(lo: int, hi: int, points: int) -> list[int]:
    span = math.log(hi) - math.log(lo)
    return sorted(
        {round(math.exp(math.log(lo) + span * i / (points - 1))) for i in range(points)}
    )


def test_criterion_06_bound_consistency():
    """lower <= count and lower <= upper over 50 log-spaced g in [16, 10**6], alpha in {0, 1/2, 1}."""
    assert lower_bound(16, 0).exact == 8
    assert construction_count(16, 0).exact == 32
    grid = _log_grid(16, 10 ** 6, 50)
    assert len(grid) == 50
    violations = []
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
        for g in grid:
            lower = lower_bound(g, alpha)
            count = construction_count(g, alpha)
            upper = upper_bound(g, SparsityThreshold.power(alpha))
            if not certified_le(lower, count):
                violations.append((g, alpha, "count"))
            if not certified_le(lower, upper.rounded):
                violations.append((g, alpha, "upper"))
    ok = not violations
    _line("6 bound consistency", ok, f"150 (g, alpha) points, {len(violations)} violations")
    assert not violations


def test_criterion_07_simplified_display():
    """Lower display >= sqrt(g)*log10(2) - log10(16); upper <= sqrt(g)*log10(DISPLAY_CONSTANT) + prefactor slack."""
    ok = True
    for g in (10 ** 4, 10 ** 6):
        lower = lower_bound(g, 0)
        upper = upper_bound(g, 1)

        def rhs_lower(d, g=g):
            ctx = interval_context(d)
            ln10 = ctx.ln(ctx.point(10))
            return ctx.sqrt(ctx.point(g)) * ctx.ln(ctx.point(2)) / ln10 - log10_int(ctx, 16)

        def rhs_upper(d, g=g):
            ctx = interval_context(d)
            ln10 = ctx.ln(ctx.point(10))
            return (
                ctx.sqrt(ctx.point(g)) * log10_int(ctx, DISPLAY_CONSTANT)
                + log10_int(ctx, 2 * g)
                + ctx.point(6) / ln10
            )

        lower_ok = certify(rhs_lower, lower.evaluate)[0]
        upper_ok = certify(upper.rounded.evaluate, rhs_upper)[0]
        ok = ok and lower_ok and upper_ok
        assert lower_ok, f"lower display fails at g={g}"
        assert upper_ok, f"upper display fails at g={g}"
    _line("7 simplified display inequalities", ok, "g in {10^4, 10^6}")
    assert ok


def test_criterion_07_display_constant_pin():
    """DISPLAY_CONSTANT = ceil(e**sqrt(128)): the enclosure lies in (81938 - 1, 81938).

    The enclosure must also sit in the 0.1-wide window (81937.2, 81937.3), so
    a wrong value from interval_context or its exp and sqrt still fails here.
    """
    ctx = interval_context(60)
    value = ctx.exp(ctx.sqrt(ctx.point(128)))
    lo, hi = value.lo, value.hi
    ceiling = lo > DISPLAY_CONSTANT - 1 and hi < DISPLAY_CONSTANT
    with mp.workdps(80):
        window = mp.mpf(str(lo)) > mp.mpf("81937.2") and mp.mpf(str(hi)) < mp.mpf("81937.3")
    ok = ceiling and window
    interval = f"[{nstr(lo, 20)}, {nstr(hi, 20)}]"
    _line(
        "7 display constant pin",
        ok,
        f"e**sqrt(128) in {interval}, inside ({DISPLAY_CONSTANT - 1}, {DISPLAY_CONSTANT})"
        " and (81937.2, 81937.3)",
    )
    assert ceiling, (
        f"e**sqrt(128) in {interval} is not inside ({DISPLAY_CONSTANT - 1}, {DISPLAY_CONSTANT}); "
        f"{DISPLAY_CONSTANT} is not ceil(e**sqrt(128))"
    )
    assert window, f"e**sqrt(128) in {interval} is not inside (81937.2, 81937.3)"


def test_criterion_08_inequality_trivial_regime():
    """Size 32 at g=16 sits below e**6*(2g-1); fallback chain holds in intervals."""
    system = _system(16)
    report = verify_sparsity(system, SparsityThreshold.power(Fraction(0)))
    verdict = crossing_inequality_check(16, system.curve_count, report.total_crossings)
    not_applicable = verdict.status is InequalityStatus.NOT_APPLICABLE

    g = 16

    def thr(d):
        ctx = interval_context(d)
        return log10_int(ctx, 2 * g - 1) + ctx.point(6) / ctx.ln(ctx.point(10))

    def mid(d):
        ctx = interval_context(d)
        return log10_int(ctx, 2 * g) + ctx.point(6) / ctx.ln(ctx.point(10))

    upper = upper_bound(g, 1)
    chain = certify(thr, mid)[0] and certify(mid, upper.rounded.evaluate)[0]
    ok = not_applicable and chain
    _line("8 inequality trivial regime", ok, f"status={verdict.status.value}")
    assert not_applicable
    assert chain


def test_criterion_09_linear_regime():
    """At alpha=-1 the ceiling is exactly 2g*e**(sqrt(128)+6) and dominates 3g-3 for g <= 10**4."""
    digits = 50
    coeff = linear_regime_bound(2, -1).coefficient
    coeff_lo = coeff.evaluate(digits).lo

    # Domination for every g: log10 of the coefficient exceeds 7, so the
    # ceiling is at least 2g * 10**7, and 3g-3 <= 2g * 10**7 for all g >= 1.
    assert coeff_lo > 7
    dominate = all(3 * g - 3 <= 2 * g * 10 ** 7 for g in range(2, 10 ** 4 + 1))

    # Exact shape: the value equals log10(2g) + coefficient, enclosure-tight,
    # spot-checked across the range (the alpha = -1 exponent is exactly sqrt(128)).
    shape_ok = True
    for g in _log_grid(2, 10 ** 4, 40):
        bound = linear_regime_bound(g, -1)
        with mp.workdps(digits + 10):
            identity_gap = abs(
                mp.mpf(str(bound.value.log10))
                - (mp.log(2 * g, 10) + mp.mpf(str(bound.coefficient.log10)))
            )
        shape_ok = shape_ok and identity_gap < mp.mpf("1e-30")
        # and the rigorous per-g domination in log space
        shape_ok = shape_ok and certify(
            lambda d, t=3 * g - 3: log10_int(interval_context(d), t),
            bound.value.evaluate,
        )[0]
    ok = dominate and shape_ok
    _line("9 linear regime", ok, "alpha=-1, g in {2..10^4}")
    assert dominate
    assert shape_ok
