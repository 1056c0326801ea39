"""System document serialization, parsing, atomic writes."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecurves.curves import (
    Curve,
    CurveSystem,
    SparsityThreshold,
    generate_system,
    verify_sparsity,
)
from sparsecurves.document import (
    SystemDocument,
    _parse_curve,
    dumps,
    from_dict,
    load_document,
    save_document,
    to_dict,
)
from sparsecurves.errors import DocumentError
from sparsecurves.homology import certify_distinct
from sparsecurves.surfaces import plan_composite


def _sample_document():
    system = generate_system(plan_composite(16, Fraction(0)))
    report = verify_sparsity(system, SparsityThreshold.power(Fraction(0)))
    certificate = certify_distinct(system)
    return SystemDocument(system, report=report, certificate=certificate)


def test_round_trip_field_for_field(listed_system):
    doc = _sample_document()
    rebuilt = from_dict(to_dict(doc))
    assert rebuilt == doc
    listed = SystemDocument(listed_system())
    assert from_dict(to_dict(listed)) == listed


def test_listed_system_is_written_one_word_string_per_necklace(listed_system):
    data = to_dict(SystemDocument(listed_system()))
    assert data["schemaVersion"] == 3
    assert data["curves"] == [{"necklace": k, "words": "1 2 3 4"} for k in range(8)]


_LETTER = st.sampled_from((1, 2, 3, 4))


@given(
    data=st.data(),
    curves=st.lists(
        st.builds(Curve, st.integers(min_value=0, max_value=11), st.tuples(_LETTER, _LETTER)),
        max_size=30,
    ),
)
@settings(max_examples=100, deadline=None)
def test_listed_round_trip_sorts_stably_by_necklace(data, curves):
    # g=36, alpha=0: h=3, h'=12; duplicates are kept for the certificate to find
    system = CurveSystem(plan_composite(36, Fraction(0)), tuple(curves))
    rebuilt = from_dict(to_dict(SystemDocument(system))).system
    assert rebuilt == system
    # the listed order is not part of the system
    shuffled = CurveSystem(system.surface, tuple(data.draw(st.permutations(curves))))
    assert shuffled == system
    assert dumps(SystemDocument(shuffled)) == dumps(SystemDocument(system))
    assert certify_distinct(shuffled) == certify_distinct(system)


def test_round_trip_analytic_document():
    system = generate_system(plan_composite(64, Fraction(1)))
    doc = SystemDocument(system)
    data = to_dict(doc)
    assert data["curves"] == "full" and "analytic" not in data
    rebuilt = from_dict(data)
    assert rebuilt == doc
    assert rebuilt.system.full
    assert rebuilt.system.curves == ()


def test_save_and_load(tmp_path):
    doc = _sample_document()
    path = tmp_path / "system.json"
    save_document(doc, path)
    assert load_document(path) == doc
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["system.json"]


def test_serialization_is_deterministic():
    assert dumps(_sample_document()) == dumps(_sample_document())


def test_load_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schemaVersion": 1,\n  "surface": }\n')
    with pytest.raises(DocumentError, match="line 3"):
        load_document(path)


def test_missing_file(tmp_path):
    with pytest.raises(DocumentError):
        load_document(tmp_path / "absent.json")


def test_rejects_wrong_schema_version():
    data = to_dict(_sample_document())
    data["schemaVersion"] = 99
    with pytest.raises(DocumentError, match="schemaVersion"):
        from_dict(data)


def test_rejects_bad_words(listed_system):
    data = to_dict(SystemDocument(listed_system()))
    data["curves"][0]["words"] = "105"
    with pytest.raises(DocumentError, match="letters 1-4"):
        from_dict(data)


def _parse_word_by_generators(word_text, index):
    """The schema-1 word check and conversion as first written."""
    if not isinstance(word_text, str) or not word_text:
        raise DocumentError(f"curves[{index}].word must be a nonempty string")
    if any(ch not in "1234" for ch in word_text):
        raise DocumentError(f"curves[{index}].word must use letters 1-4 only")
    return Curve(0, tuple(int(ch) for ch in word_text))


def _parse_outcome(parse, *args):
    try:
        return parse(*args)
    except DocumentError as exc:
        return f"DocumentError: {exc}"


@given(
    word_text=st.one_of(
        st.text(),
        st.text(alphabet="12345 0\n\u0661\u0663\uff11\uff14\U0001d7d9"),
        st.sampled_from(["", "\uff11", "1\uff123", "1234", "4" * 50, "12 34", "1\n"]),
    )
)
@settings(max_examples=300, deadline=None)
def test_schema1_word_parser_matches_the_generator_form(word_text):
    # non-ASCII digits such as "\uff11" are digits to int() but not letters
    assert _parse_outcome(
        _parse_curve, {"necklace": 0, "word": word_text}, 7
    ) == _parse_outcome(_parse_word_by_generators, word_text, 7)


def test_rejects_inconsistent_surface():
    data = to_dict(_sample_document())
    data["surface"]["hPrime"] = 999
    with pytest.raises(DocumentError):
        from_dict(data)


def test_duplicate_curves_parse_but_fail_certification(listed_system):
    data = to_dict(SystemDocument(listed_system()))
    data["curves"][0]["words"] += " 1"  # necklace 0 already lists word 1
    doc = from_dict(data)
    certificate = certify_distinct(doc.system)
    assert not certificate.distinct


def test_save_refuses_totals_past_the_digit_limit(tmp_path):
    doc = _sample_document()
    big = 10 ** 4300
    doc.report = replace(doc.report, total_crossings=big, pair_count=big + 1)
    path = tmp_path / "big.json"
    with pytest.raises(DocumentError, match="report.totalCrossings has 14285 bits"):
        save_document(doc, path)
    assert list(tmp_path.iterdir()) == []
