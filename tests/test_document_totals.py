"""A full family's report totals: written as `verify` prints them, with no
average, and rebuilt from the surface on load.

The writer that stored decimal totals and the reduced average, refusing
totals past the int-to-str digit limit, is kept here as the reference."""

import contextlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsecurves.cli import main
from sparsecurves.curves import CrossingReport, SparsityThreshold, generate_system
from sparsecurves.document import (
    FULL_FAMILY,
    SCHEMA_VERSION,
    SystemDocument,
    _certificate_dict,
    _packed_curves,
    from_dict,
    load_document,
    save_document,
    to_dict,
)
from sparsecurves.errors import DocumentError
from sparsecurves.exactint import DECIMAL_DIGIT_LIMIT, fits_decimal, min_admissible_genus
from sparsecurves.homology import certify_distinct
from sparsecurves.intersections import total_crossings_analytic
from sparsecurves.surfaces import plan_composite


def _reference_fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _reference_report_dict(report: CrossingReport) -> dict:
    threshold = report.threshold
    for key, value in (
        ("totalCrossings", report.total_crossings),
        ("pairCount", report.pair_count),
        ("sparsityThreshold.value", threshold.value.numerator),
        ("sparsityThreshold.value", threshold.value.denominator),
    ):
        if not fits_decimal(value):
            raise DocumentError(
                f"report.{key} has {value.bit_length()} bits, more than "
                f"{DECIMAL_DIGIT_LIMIT} decimal digits"
            )
    average = report.average
    return {
        "totalCrossings": report.total_crossings,
        "pairCount": report.pair_count,
        "averageNumerator": average.numerator,
        "averageDenominator": average.denominator,
        "sparsityThreshold": {
            "kind": threshold.kind,
            "value": _reference_fraction_text(threshold.value),
        },
        "isSparse": report.is_sparse,
        "mode": report.mode,
    }


def _reference_to_dict(doc: SystemDocument) -> dict:
    """The document as written while every total was a decimal integer."""
    system = doc.system
    surface = system.surface
    return {
        "schemaVersion": SCHEMA_VERSION,
        "surface": {
            "g": surface.g,
            "alpha": _reference_fraction_text(surface.alpha),
            "h": surface.h,
            "hPrime": surface.h_prime,
            "baseGenus": surface.base_genus,
        },
        "curves": FULL_FAMILY if system.full else _packed_curves(system),
        "report": _reference_report_dict(doc.report) if doc.report else None,
        "certificate": _certificate_dict(doc.certificate) if doc.certificate else None,
    }


def _alpha_with_small_genus(alpha: Fraction) -> bool:
    # planning a g of a thousand digits takes seconds
    return min_admissible_genus(alpha) <= 10**6


# (g, alpha) over the plan domain, g up to 2 * 10**6 above its least value
_PLANS = (
    st.sampled_from([1, 2, 3, 7, 24, 1000])
    .flatmap(lambda q: st.builds(Fraction, st.integers(-q + 1, q), st.just(q)))
    .filter(_alpha_with_small_genus)
    .flatmap(
        lambda alpha: st.tuples(
            st.integers(min_admissible_genus(alpha), min_admissible_genus(alpha) + 2 * 10**6),
            st.just(alpha),
        )
    )
)
_THRESHOLDS = st.one_of(
    st.builds(
        SparsityThreshold.rational,
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
    ),
    st.none(),  # g**alpha
)
_BIG = [(10**4, Fraction(1)), (10**5, Fraction(1))]


def _full_document(case, threshold=None, is_sparse=True) -> SystemDocument:
    g, alpha = case
    system = generate_system(plan_composite(g, alpha))
    report = CrossingReport(
        total_crossings=total_crossings_analytic(system.surface),
        pair_count=system.pair_count,
        threshold=threshold or SparsityThreshold.power(alpha),
        is_sparse=is_sparse,
        mode=system.mode,
    )
    return SystemDocument(system, report=report, certificate=certify_distinct(system))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("totals")


@given(case=_PLANS, threshold=_THRESHOLDS, is_sparse=st.booleans())
@example(case=_BIG[0], threshold=None, is_sparse=True)
@example(case=_BIG[1], threshold=None, is_sparse=True)
@example(case=(64, Fraction(1)), threshold=None, is_sparse=False)
@settings(max_examples=60, deadline=None)
def test_full_family_totals_round_trip(work, case, threshold, is_sparse):
    doc = _full_document(case, threshold, is_sparse)
    report = doc.report
    new = to_dict(doc)
    try:
        old = _reference_to_dict(doc)
    except DocumentError:
        old = None
    if old is not None:
        # the average fields go, and nothing else changes
        averages = ("averageNumerator", "averageDenominator")
        trimmed = {k: v for k, v in old["report"].items() if k not in averages}
        assert new == dict(old, report=trimmed)
        assert from_dict(old) == doc == from_dict(new)
        return
    assert not (fits_decimal(report.total_crossings) and fits_decimal(report.pair_count))
    path = work / "big.json"
    save_document(doc, path)
    assert path.stat().st_size < 1024
    loaded = load_document(path)
    assert loaded == doc
    assert loaded.report.total_crossings == total_crossings_analytic(doc.system.surface)
    assert loaded.report.pair_count == doc.system.pair_count


def _run(argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _changed_digit(text: str, index: int, shift: int) -> str:
    """text with its index-th digit (counted among digits only) moved by shift, mod 10."""
    positions = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = positions[index % len(positions)]
    return text[:i] + str((int(text[i]) + shift) % 10) + text[i + 1 :]


@given(
    case=st.one_of(_PLANS, st.sampled_from(_BIG)),
    key=st.sampled_from(["totalCrossings", "pairCount"]),
    part=st.sampled_from(["bits", "log10"]),
    index=st.integers(min_value=0),
    shift=st.integers(1, 9),
)
@settings(max_examples=60, deadline=None)
def test_a_changed_digit_of_a_total_exits_5(work, case, key, part, index, shift):
    data = to_dict(_full_document(case))
    value = data["report"][key]
    if isinstance(value, int):
        changed = int(_changed_digit(str(value), index, shift))
    else:
        # a digit of the token's bits= or log10= number
        match = re.fullmatch(r"\[bits=(\d+),log10=([\d.]+)\]", value)
        assert match, value
        span = match.span(1 if part == "bits" else 2)
        digits = _changed_digit(value[slice(*span)], index, shift)
        changed = value[: span[0]] + digits + value[span[1] :]
    assert changed != value
    data["report"][key] = changed
    path = work / "changed.json"
    path.write_text(json.dumps(data))
    code, stdout, stderr = _run(["verify", str(path)])
    assert (code, stdout) == (5, "")
    assert stderr.startswith(f"error: report.{key} = ") and stderr.count("\n") == 1


# the g = 64, alpha = 1 document that `verify --out` wrote while every total
# was a decimal integer, with the reduced average
_DECIMAL_FORMAT = """{
  "schemaVersion": 3,
  "surface": {"g": 64, "alpha": "1/1", "h": 32, "hPrime": 2, "baseGenus": 0},
  "curves": "full",
  "report": {
    "totalCrossings": 301734755043175903146858359674424524800,
    "pairCount": 42535295865117307928310139910543638528,
    "averageNumerator": 130856590772877131775,
    "averageDenominator": 18446744073709551614,
    "sparsityThreshold": {"kind": "power", "value": "1/1"},
    "isSparse": true,
    "mode": "analytic"
  },
  "certificate": {"distinct": true, "method": "construction", "collision": null}
}
"""


def test_the_decimal_format_still_loads_and_checks_its_average(tmp_path):
    path = tmp_path / "g64.json"
    path.write_text(_DECIMAL_FORMAT)
    doc = load_document(path)
    assert doc == _full_document((64, Fraction(1)))
    assert _run(["verify", str(path)])[0] == 0
    path.write_text(_DECIMAL_FORMAT.replace("18446744073709551614", "18446744073709551615"))
    with pytest.raises(DocumentError, match="report average averageNumerator/averageDenominator"):
        load_document(path)
    assert _run(["verify", str(path)])[::2] == (
        5,
        "error: report average averageNumerator/averageDenominator differs "
        "from totalCrossings/pairCount\n",
    )
    # one average field alone is a missing key, not an absent average
    data = json.loads(_DECIMAL_FORMAT)
    del data["report"]["averageDenominator"]
    with pytest.raises(DocumentError, match="report missing key 'averageDenominator'"):
        from_dict(data)


@pytest.mark.parametrize("case", [(36, Fraction(0)), (64, Fraction(1)), *_BIG])
def test_saving_a_full_family_never_reduces_its_average(tmp_path, monkeypatch, listed_system, case):
    def refuse(report):
        raise AssertionError("the average was reduced")

    doc = _full_document(case)
    monkeypatch.setattr(CrossingReport, "average", property(refuse))
    save_document(doc, tmp_path / "full.json")
    assert load_document(tmp_path / "full.json") == doc
    # a listed report still stores its average
    listed = listed_system()
    report = CrossingReport(0, listed.pair_count, SparsityThreshold.power(Fraction(0)), True, "explicit")
    with pytest.raises(AssertionError, match="the average was reduced"):
        save_document(SystemDocument(listed, report=report), tmp_path / "listed.json")


def test_a_token_where_a_decimal_total_fits_is_refused():
    data = to_dict(_full_document((64, Fraction(1))))
    total = data["report"]["totalCrossings"]
    token = f"[bits={total.bit_length()},log10=38.4796253368709]"
    for stored in (str(total), token, float(total), True):
        data["report"]["totalCrossings"] = stored
        with pytest.raises(DocumentError, match=f"but the full family of the surface has {total}$"):
            from_dict(data)
