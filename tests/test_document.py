"""System document serialization, parsing, atomic writes."""

import json
import os
import stat
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
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
    _parse_listed,
    _parse_packed,
    dumps,
    from_dict,
    load_document,
    save_document,
    to_dict,
    write_text_atomic,
)
from sparsecurves.errors import DocumentError, DomainError
from sparsecurves.homology import certify_distinct
from sparsecurves.intersections import pair_intersection, total_crossings_explicit
from sparsecurves.surfaces import CompositeSurface, plan_composite


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


def _joined_curves(system):
    """The schema-3 curve list as a `str` per word, blank-joined per necklace."""
    n = system.surface.piece_count
    entries = []
    for k, blob in system.packed:
        text = blob.translate(bytes.maketrans(b"\x01\x02\x03\x04", b"1234")).decode("ascii")
        words = [text[i : i + n] for i in range(0, len(text), n)]
        entries.append({"necklace": k, "words": " ".join(words)})
    return entries


@given(data=st.data(), n=st.integers(min_value=1, max_value=7))
@settings(max_examples=200, deadline=None)
def test_written_words_match_the_joined_words(data, n):
    surface = plan_composite(4 * (n + 1) ** 2, Fraction(0))  # h = n + 1
    word = st.tuples(*[st.integers(min_value=1, max_value=4)] * n)
    curve = st.builds(Curve, st.integers(0, surface.h_prime - 1), word)
    curves = data.draw(st.lists(curve, min_size=1, max_size=60))
    curves += data.draw(st.lists(st.sampled_from(curves), max_size=3))  # repeats are kept
    system = CurveSystem(surface, tuple(curves))
    assert to_dict(SystemDocument(system))["curves"] == _joined_curves(system)


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


_ODD_NECKLACE = st.one_of(
    st.integers(min_value=-1, max_value=12), st.booleans(), st.sampled_from([0.0, 1.0])
)
_ODD_LETTER = st.one_of(_LETTER, st.booleans(), st.sampled_from([0, 5, 1.0, 4.0]))


@given(
    curves=st.lists(
        st.builds(Curve, st.integers(min_value=0, max_value=11), st.tuples(_LETTER, _LETTER)),
        max_size=6,
    ),
    odd=st.builds(Curve, _ODD_NECKLACE, st.tuples(_ODD_LETTER, _ODD_LETTER)),
)
@example(curves=[], odd=Curve(True, (1, 1)))
@example(curves=[], odd=Curve(0, (1.0, 2)))
@settings(max_examples=200, deadline=None)
def test_every_accepted_system_reloads_as_an_equal_system(curves, odd):
    # g=36, alpha=0: h'=12 necklaces of 2-letter words; a bool or float
    # necklace or letter is refused, as the document refuses it
    surface = plan_composite(36, Fraction(0))
    try:
        system = CurveSystem(surface, (*curves, odd))
    except DomainError:
        return
    assert from_dict(to_dict(SystemDocument(system))).system == system


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


def _planned_document(g, alpha, version, full):
    """A schema-`version` document on the plan of (g, alpha), holding the
    full family or one listed curve."""
    surface = plan_composite(g, alpha)
    word = "1" * surface.piece_count
    curve = Curve(0, (1,) * surface.piece_count)
    system = generate_system(surface) if full else CurveSystem(surface, (curve,))
    data = dict(to_dict(SystemDocument(system)), schemaVersion=version)
    if version == 1:
        data.update(analytic=full, curves=[] if full else [{"necklace": 0, "word": word}])
    elif version == 2 and not full:
        data["curves"] = [{"necklace": 0, "word": word}]
    return data


_SURFACE_FIELDS = ("h", "hPrime", "baseGenus")


@given(
    case=st.sampled_from(
        [
            (16, Fraction(0)),
            (36, Fraction(0)),
            (196, Fraction(1, 2)),
            (1000, Fraction(-1, 3)),
            (64, Fraction(1)),
        ]
    ),
    version=st.sampled_from([1, 2, 3]),
    full=st.booleans(),
    moves=st.dictionaries(st.sampled_from(_SURFACE_FIELDS), st.sampled_from([-1, 1]), min_size=1),
)
@example(case=(36, Fraction(0)), version=2, full=True, moves={"h": -1, "hPrime": 6})
@settings(max_examples=200, deadline=None)
def test_a_surface_other_than_its_plan_is_refused(case, version, full, moves):
    # the example is h = 2, h' = 18 at g = 36, whose plan is h = 3, h' = 12
    g, alpha = case
    data = _planned_document(g, alpha, version, full)
    planned = dict(data["surface"])
    assert from_dict(data).system.surface == plan_composite(g, alpha)
    for key, move in moves.items():
        data["surface"][key] += move
    key = next(k for k in _SURFACE_FIELDS if k in moves)
    message = (
        f"inconsistent surface: {key} = {data['surface'][key]}, but the plan of "
        f"g = {g}, alpha = {alpha.numerator}/{alpha.denominator} has {key} = {planned[key]}"
    )
    with pytest.raises(DocumentError) as excinfo:
        from_dict(data)
    assert str(excinfo.value) == message


def test_duplicate_curves_parse_but_fail_certification(listed_system):
    data = to_dict(SystemDocument(listed_system()))
    data["curves"][0]["words"] += " 1"  # necklace 0 already lists word 1
    doc = from_dict(data)
    certificate = certify_distinct(doc.system)
    assert not certificate.distinct


def test_save_refuses_totals_past_the_digit_limit(tmp_path, listed_system):
    # only a listed report stores decimal totals; a full family's are written as printed
    system = listed_system()
    report = verify_sparsity(system, SparsityThreshold.power(Fraction(0)))
    big = 10 ** 4300
    doc = SystemDocument(system, report._replace(total_crossings=big, pair_count=big + 1))
    path = tmp_path / "big.json"
    with pytest.raises(DocumentError, match="report.totalCrossings has 14285 bits"):
        save_document(doc, path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "value", [Fraction(10**5000), Fraction(1, 10**5000)], ids=["numerator", "denominator"]
)
def test_save_refuses_a_threshold_past_the_digit_limit(tmp_path, value):
    doc = _sample_document()
    doc = doc._replace(report=doc.report._replace(threshold=SparsityThreshold.rational(value)))
    path = tmp_path / "big.json"
    with pytest.raises(DocumentError, match="report.sparsityThreshold.value has 16610 bits"):
        save_document(doc, path)
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_modes(tmp_path):
    """A new file gets 0o666 less the umask, as `open` gives it; a replaced
    file keeps its own mode."""
    new, kept = tmp_path / "new.txt", tmp_path / "kept.txt"
    umask = os.umask(0o027)
    try:
        write_text_atomic(new, "new")
    finally:
        os.umask(umask)
    kept.write_text("old")
    kept.chmod(0o604)
    write_text_atomic(kept, "kept")
    assert stat.S_IMODE(new.stat().st_mode) == 0o640 and new.read_text() == "new"
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604 and kept.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt", "new.txt"]


# ----------------------------------------------------------------------
# Listed curves loaded as packed words, against the per-curve loader
# ----------------------------------------------------------------------


def _reference_parse_curve(entry, index):
    """The schema-1/2 entry parser as it was before curves were packed."""
    if not isinstance(entry, dict):
        raise DocumentError(f"curves[{index}] must be an object, got {entry!r}")
    try:
        necklace = entry["necklace"]
        word_text = entry["word"]
    except KeyError as exc:
        raise DocumentError(f"curves[{index}] missing key {exc}") from exc
    if isinstance(necklace, bool) or not isinstance(necklace, int):
        raise DocumentError(f"curves[{index}].necklace must be an integer, got {necklace!r}")
    if necklace < 0:
        raise DocumentError(f"curves[{index}].necklace must be a nonnegative integer")
    if not isinstance(word_text, str) or not word_text:
        raise DocumentError(f"curves[{index}].word must be a nonempty string")
    if not set(word_text) <= frozenset("1234"):
        raise DocumentError(f"curves[{index}].word must use letters 1-4 only")
    return Curve(necklace, tuple(map(int, word_text)))


def _reference_listed(entries, surface):
    """The listed branch of from_dict for schemas 1 and 2 before curves were
    packed: parse every entry, then check lengths and necklace ranges."""
    curves = tuple(_reference_parse_curve(entry, i) for i, entry in enumerate(entries))
    for i, curve in enumerate(curves):
        if len(curve.word) != surface.h - 1:
            raise DocumentError(
                f"curves[{i}].word has length {len(curve.word)}, surface needs {surface.h - 1}"
            )
        if curve.necklace >= surface.h_prime:
            raise DocumentError(
                f"curves[{i}].necklace = {curve.necklace} outside [0, {surface.h_prime})"
            )
    return curves


def _reference_packed(entries, surface):
    """The schema-3 parser before curves were packed: one Curve per word."""
    curves = []
    previous = -1
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DocumentError(f"curves[{i}] must be an object, got {entry!r}")
        try:
            necklace = entry["necklace"]
            if isinstance(necklace, bool) or not isinstance(necklace, int):
                raise DocumentError(
                    f"curves[{i}].necklace must be an integer, got {necklace!r}"
                )
            text = entry["words"]
        except KeyError as exc:
            raise DocumentError(f"curves[{i}] missing key {exc}") from exc
        if not 0 <= necklace < surface.h_prime:
            raise DocumentError(
                f"curves[{i}].necklace = {necklace} outside [0, {surface.h_prime})"
            )
        if necklace <= previous:
            raise DocumentError(
                f"curves[{i}].necklace = {necklace} must exceed the previous necklace {previous}"
            )
        previous = necklace
        if not isinstance(text, str) or not text:
            raise DocumentError(f"curves[{i}].words must be a nonempty string")
        if not set(text) <= frozenset("1234 "):
            raise DocumentError(
                f"curves[{i}].words must use letters 1-4 and single blanks only"
            )
        for word in text.split(" "):
            if len(word) != surface.piece_count:
                raise DocumentError(
                    f"curves[{i}].words holds a word of length {len(word)}, "
                    f"surface needs {surface.piece_count}"
                )
            curves.append(Curve(necklace, tuple(map(int, word))))
    return tuple(curves)


def _reference_outcome(parse, entries, surface):
    """Sorted curves, certificate witness and counter result as the per-curve
    path gave them, or the loader's error message."""
    try:
        curves = tuple(sorted(parse(entries, surface)))
    except DocumentError as exc:
        return f"DocumentError: {exc}"
    repeat = next((a for a, b in zip(curves, curves[1:]) if a == b), None)
    if repeat is not None:
        word = "".join(map(str, repeat.word))
        return curves, (repeat, repeat), f"DomainError: duplicate curve {repeat.necklace}:{word}"
    total = sum(
        pair_intersection(a, b, surface)
        for i, a in enumerate(curves)
        for b in curves[i + 1 :]
    )
    return curves, None, total


def _loaded_outcome(data):
    try:
        system = from_dict(data).system
    except DocumentError as exc:
        return f"DocumentError: {exc}"
    assert system == CurveSystem(system.surface, system.curves)
    assert system.curve_count == len(system.curves)
    try:
        total = total_crossings_explicit(system)
    except DomainError as exc:
        total = f"DomainError: {exc}"
    return system.curves, certify_distinct(system).collision, total


# g=36, alpha=0: h=3, h'=12, words of two letters
_SURFACE = plan_composite(36, Fraction(0))
_WORD_TEXT = st.sampled_from(["".join(w) for w in product("1234", repeat=2)])
_BAD_TEXT = st.one_of(
    st.sampled_from(["", "1", "123", "15", "１２", "١٢", "1٣", " 12"]),
    st.text(alphabet="12345 ١１", max_size=4),
    st.integers(),
    st.none(),
)
_BAD_NECKLACE = st.one_of(
    st.sampled_from([-1, 12, 13, 10 ** 30, True, False, 1.0, 0.5, "1", None]),
    st.integers(),
)


def _schema_document(version, curves):
    data = to_dict(SystemDocument(CurveSystem(_SURFACE)))
    return dict(data, schemaVersion=version, curves=curves)


@st.composite
def _listed_entries(draw):
    """Schema-1/2 entries on four necklaces, with repeats, in any order, and
    now and then a malformed entry."""
    entries = draw(
        st.lists(
            st.fixed_dictionaries(
                {"necklace": st.integers(min_value=0, max_value=3), "word": _WORD_TEXT}
            ),
            max_size=24,
        )
    )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        bad = draw(
            st.one_of(
                st.fixed_dictionaries({"necklace": _BAD_NECKLACE, "word": _WORD_TEXT}),
                st.fixed_dictionaries(
                    {"necklace": st.integers(min_value=0, max_value=3), "word": _BAD_TEXT}
                ),
                st.fixed_dictionaries({"necklace": st.integers(min_value=0, max_value=3)}),
                st.fixed_dictionaries({"word": _WORD_TEXT}),
                st.sampled_from([None, 3, "12", [0, "12"]]),
            )
        )
        entries.insert(draw(st.integers(min_value=0, max_value=len(entries))), bad)
    return entries


@given(entries=_listed_entries(), version=st.sampled_from([1, 2]))
@settings(max_examples=400, deadline=None)
def test_listed_loader_matches_the_per_curve_loader(entries, version):
    data = _schema_document(version, entries)
    assert _loaded_outcome(data) == _reference_outcome(_reference_listed, entries, _SURFACE)


@st.composite
def _packed_entries(draw):
    """Schema-3 entries: ascending necklaces with shuffled, repeated words,
    and now and then one field replaced by a malformed value."""
    necklaces = sorted(draw(st.sets(st.integers(min_value=0, max_value=11), max_size=4)))
    entries = [
        {
            "necklace": k,
            "words": " ".join(draw(st.lists(_WORD_TEXT, min_size=1, max_size=8))),
        }
        for k in necklaces
    ]
    if entries and draw(st.booleans()):
        entry = draw(st.sampled_from(entries))
        key = draw(st.sampled_from(["necklace", "words"]))
        entry[key] = draw(_BAD_NECKLACE if key == "necklace" else _BAD_TEXT)
    return entries


@pytest.mark.parametrize("version", [1, 2])
def test_a_pair_is_no_entry(version):
    # an entry is a JSON object; JSON has no tuple, and no decoder makes one
    entries = [{"necklace": 0, "word": "11"}, (0, "12")]
    with pytest.raises(DocumentError, match=r"^curves\[1\] must be an object, got \(0, '12'\)$"):
        from_dict(_schema_document(version, entries))


@given(entries=_packed_entries())
@settings(max_examples=300, deadline=None)
def test_packed_loader_matches_the_per_curve_loader(entries):
    data = _schema_document(3, entries)
    assert _loaded_outcome(data) == _reference_outcome(_reference_packed, entries, _SURFACE)


# ----------------------------------------------------------------------
# Certificate and report fields
# ----------------------------------------------------------------------


def _certified_document(listed_system):
    system = listed_system(36)
    certificate = certify_distinct(system)
    return to_dict(SystemDocument(system, certificate=certificate))


@pytest.mark.parametrize(
    "witness, message",
    [
        (
            [{"necklace": 0, "word": "11"}, {"necklace": 0, "word": "15"}],
            "certificate.collision[1].word must use letters 1-4 only",
        ),
        (
            [{"necklace": 9, "word": "11"}, {"necklace": 12, "word": "11"}],
            "certificate.collision[1].necklace = 12 outside [0, 12)",
        ),
        (
            [{"necklace": 0, "word": "1"}, {"necklace": 0, "word": "1"}],
            "certificate.collision[0].word has length 1, surface needs 2",
        ),
        (
            [{"necklace": True, "word": "11"}, {"necklace": 0, "word": "11"}],
            "certificate.collision[0].necklace must be an integer",
        ),
        ([{"necklace": 0}, {"necklace": 0, "word": "11"}], "certificate.collision[0] missing key"),
    ],
)
def test_collision_witness_is_named_and_checked_against_the_surface(
    listed_system, witness, message
):
    data = _certified_document(listed_system)
    data["certificate"] = {"distinct": False, "method": "exhaustive", "collision": witness}
    with pytest.raises(DocumentError) as excinfo:
        from_dict(data)
    assert str(excinfo.value).startswith(message)


def test_collision_witness_on_the_surface_loads(listed_system):
    data = _certified_document(listed_system)
    witness = [{"necklace": 11, "word": "44"}, {"necklace": 11, "word": "44"}]
    data["certificate"] = {"distinct": False, "method": "exhaustive", "collision": witness}
    assert from_dict(data).certificate.collision == (Curve(11, (4, 4)), Curve(11, (4, 4)))


@pytest.mark.parametrize("method", ["banana", "", 0, None])
def test_unknown_certificate_method_is_refused(listed_system, method):
    data = _certified_document(listed_system)
    data["certificate"]["method"] = method
    with pytest.raises(DocumentError, match="certificate.method must be"):
        from_dict(data)


def test_missing_certificate_method_means_exhaustive(listed_system):
    data = _certified_document(listed_system)
    del data["certificate"]["method"]
    assert from_dict(data).certificate.method == "exhaustive"


@pytest.mark.parametrize("mode", ["banana", "Explicit", 1, None])
def test_unknown_report_mode_is_refused(mode):
    data = to_dict(_sample_document())
    data["report"]["mode"] = mode
    with pytest.raises(DocumentError, match="report.mode must be"):
        from_dict(data)


# ----------------------------------------------------------------------
# Report and certificate against the system they annotate
# ----------------------------------------------------------------------


def _annotated_pair():
    """A g=36 document of 2 listed curves with its own report and certificate."""
    system = CurveSystem(plan_composite(36, Fraction(0)), (Curve(0, (1, 1)), Curve(1, (1, 2))))
    report = verify_sparsity(system, SparsityThreshold.power(Fraction(0)))
    return to_dict(SystemDocument(system, report=report, certificate=certify_distinct(system)))


_TWO_CURVES = [{"necklace": 0, "word": "11"}, {"necklace": 1, "word": "12"}]
_ONE_CURVE_TWICE = [{"necklace": 0, "word": "11"}, {"necklace": 0, "word": "11"}]


@pytest.mark.parametrize(
    "section, fields, message",
    [
        (
            "report",
            # the average still agrees with totalCrossings/pairCount
            {"totalCrossings": 10, "pairCount": 20, "averageNumerator": 1, "averageDenominator": 2},
            "report.pairCount differs from C(curves, 2) of the system",
        ),
        ("report", {"mode": "analytic"}, 'report.mode "analytic" needs the full family'),
        (
            "certificate",
            {"method": "construction"},
            'certificate.method "construction" needs the full family',
        ),
        (
            "certificate",
            {"distinct": True, "collision": _TWO_CURVES},
            "a distinct certificate must have no collision",
        ),
        (
            "certificate",
            {"distinct": False, "collision": _TWO_CURVES},
            "a certificate that is not distinct must name one curve twice",
        ),
        (
            "certificate",
            {"distinct": False, "collision": None},
            "a certificate that is not distinct must name one curve twice",
        ),
        (
            "certificate",
            {"distinct": False, "collision": [{"necklace": 5, "word": "44"}] * 2},
            "certificate.collision[0] = 5:44 is not a curve of the system",
        ),
    ],
)
def test_annotations_must_agree_with_their_system(section, fields, message):
    data = _annotated_pair()
    from_dict(data)
    data[section].update(fields)
    with pytest.raises(DocumentError) as excinfo:
        from_dict(data)
    assert str(excinfo.value).startswith(message)


def test_annotations_that_agree_with_their_system_load():
    data = _annotated_pair()
    data["certificate"].update({"distinct": False, "collision": _ONE_CURVE_TWICE})
    assert from_dict(data).certificate.collision == (Curve(0, (1, 1)), Curve(0, (1, 1)))
    # a full family's mode is not checked: both routes count it
    full = to_dict(_sample_document())
    assert full["report"]["mode"] == "explicit"
    full["report"]["mode"] = "analytic"
    assert from_dict(full).report.mode == "analytic"


_HUGE = 10**5000  # past the int-to-str digit limit: repr() raises ValueError


def _with(data, path, value):
    """data with the value at path (a tuple of keys) replaced."""
    *parents, key = path
    for k in parents:
        data = data[k]
    data[key] = value


@pytest.mark.parametrize(
    "version, path, value",
    [
        (3, ("schemaVersion",), _HUGE),
        (3, ("surface", "alpha"), _HUGE),
        (2, ("curves",), [_HUGE]),
        (3, ("curves",), [_HUGE]),
        (2, ("curves",), [{"necklace": _HUGE, "word": "11"}]),
        (3, ("curves",), [{"necklace": _HUGE, "words": "11"}]),
        (3, ("certificate",), {"distinct": False, "collision": [{"necklace": _HUGE, "word": "11"}] * 2}),
        (3, ("report", "sparsityThreshold"), _HUGE),
        (3, ("report", "sparsityThreshold", "kind"), _HUGE),
        (3, ("report", "sparsityThreshold", "value"), _HUGE),
        (3, ("report", "mode"), _HUGE),
        (3, ("certificate", "method"), _HUGE),
        # a value that holds such an integer is named by its type
        (2, ("curves",), [[_HUGE]]),
    ],
    ids=[
        "schemaVersion",
        "alpha",
        "schema-2-entry",
        "schema-3-entry",
        "schema-2-necklace",
        "schema-3-necklace",
        "collision-necklace",
        "sparsityThreshold",
        "threshold-kind",
        "threshold-value",
        "report-mode",
        "certificate-method",
        "list-entry",
    ],
)
def test_an_integer_past_the_digit_limit_is_refused_as_a_document_fault(version, path, value):
    data = dict(_annotated_pair(), schemaVersion=version)
    if version == 2:
        data["curves"] = _TWO_CURVES
    _with(data, path, value)
    with pytest.raises(DocumentError) as excinfo:
        from_dict(data)
    message = str(excinfo.value)
    assert "[bits=16610," in message or message.endswith(" list")


@pytest.mark.parametrize(
    "version, entries",
    [
        (2, [{"necklace": 10**5001, "word": "1"}]),
        (3, [{"necklace": 10**5001, "words": "1"}]),
        (3, [{"necklace": 10**4999, "words": "1"}] * 2),
    ],
    ids=["schema-2-object", "schema-3-range", "schema-3-order"],
)
def test_a_surface_past_the_digit_limit_is_shown_in_necklace_errors(version, entries):
    # no plan has h = 2 with h' = g/2 at g = 10**5000, so the curve readers
    # are handed such a surface directly: h' and the necklaces it bounds pass
    # the digit limit
    surface = CompositeSurface(g=_HUGE, alpha=Fraction(0), h=2, h_prime=_HUGE // 2, base_genus=0)
    parse = _parse_packed if version == 3 else _parse_listed
    with pytest.raises(DocumentError, match=r"^curves\[\d\]\.necklace = \[bits="):
        parse(entries, surface)


def test_a_surface_that_is_not_its_plan_past_the_digit_limit_is_refused():
    # the plan of g = 10**5000 at alpha = 0 has h of about 10**2500, past the
    # necklace genus limit, which is named before h' is computed
    surface = {"g": _HUGE, "alpha": "0/1", "h": 2, "hPrime": _HUGE // 2, "baseGenus": 0}
    data = {"schemaVersion": 2, "surface": surface, "curves": [{"necklace": 0, "word": "1"}]}
    with pytest.raises(DocumentError, match=r"^inconsistent surface: necklace genus h="):
        from_dict(data)


@pytest.mark.parametrize(
    "witness, refused",
    [("21", False), ("12", False), ("22", True), ("11", True)],
)
def test_collision_witness_must_be_a_whole_listed_word(witness, refused):
    # necklace 0 packs 12 21 21: "22" occurs in the string, but across two words
    curves = (Curve(0, (1, 2)), Curve(0, (2, 1)), Curve(0, (2, 1)))
    system = CurveSystem(plan_composite(36, Fraction(0)), curves)
    data = to_dict(SystemDocument(system, certificate=certify_distinct(system)))
    data["certificate"]["collision"] = [{"necklace": 0, "word": witness}] * 2
    if refused:
        with pytest.raises(DocumentError, match=rf"^certificate.collision\[0\] = 0:{witness} is not"):
            from_dict(data)
    else:
        assert from_dict(data).certificate.collision[0] == Curve(0, tuple(map(int, witness)))


# ----------------------------------------------------------------------
# load_document's decoder against from_dict of plain json.loads
# ----------------------------------------------------------------------


class _Pairs(list):
    """A JSON object as its (key, value) pairs in order, keys possibly repeated."""


def _pairs(value):
    """value with every dict turned into _Pairs, recursively."""
    if isinstance(value, dict):
        return _Pairs((k, _pairs(v)) for k, v in value.items())
    if isinstance(value, list):
        return [_pairs(v) for v in value]
    return value


def _render(value) -> str:
    if isinstance(value, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_render, value)) + "]"
    return json.dumps(value)


def _entry(necklace, word, word_first=False):
    pairs = [("necklace", necklace), ("word", word)]
    return _Pairs(pairs[::-1] if word_first else pairs)


_ANY_NECKLACE = st.one_of(st.integers(min_value=0, max_value=11), _BAD_NECKLACE)
_ANY_WORD = st.one_of(_WORD_TEXT, _BAD_TEXT)


@st.composite
def _schema12_entry(draw, curve):
    """curve as a {"necklace", "word"} object, its keys in either order, now
    and then with an extra key, a repeated key or a malformed value."""
    necklace, word = curve.necklace, "".join(map(str, curve.word))
    kind = draw(st.sampled_from(["plain", "plain", "plain", "extra", "repeat", "bad"]))
    if kind == "bad":
        if draw(st.booleans()):
            necklace = draw(_BAD_NECKLACE)
        else:
            word = draw(_BAD_TEXT)
    entry = _entry(necklace, word, draw(st.booleans()))
    if kind == "extra":
        entry.insert(draw(st.integers(0, 2)), ("extra", draw(st.sampled_from([0, "x", None]))))
    elif kind == "repeat":
        # json keeps the last value of a repeated key, and the first key's place
        key = draw(st.sampled_from(["necklace", "word"]))
        entry.insert(draw(st.integers(0, 2)), (key, draw(_ANY_NECKLACE if key == "necklace" else _ANY_WORD)))
    return entry


# every place where a document holds an object or a scalar, as a path of keys
_PLANT_SITES = [
    (),
    ("schemaVersion",),
    ("surface",),
    ("surface", "g"),
    ("surface", "alpha"),
    ("curves",),
    ("analytic",),
    ("report",),
    ("report", "totalCrossings"),
    ("report", "sparsityThreshold"),
    ("report", "sparsityThreshold", "kind"),
    ("report", "sparsityThreshold", "value"),
    ("report", "isSparse"),
    ("report", "mode"),
    ("certificate",),
    ("certificate", "distinct"),
    ("certificate", "method"),
    ("certificate", "collision"),
    ("curves", 0),
    ("curves", 0, "necklace"),
    ("curves", 0, "word"),
]


def _plant(data, site, value):
    """data with the value at site (a path of keys and indices) replaced, or
    data unchanged when the site is missing."""
    if not site:
        return value
    key, rest = site[0], site[1:]
    if isinstance(data, _Pairs):
        if not any(k == key for k, _ in data):
            return data
        return _Pairs((k, _plant(v, rest, value) if k == key else v) for k, v in data)
    if isinstance(data, list) and isinstance(key, int) and key < len(data):
        return [_plant(v, rest, value) if i == key else v for i, v in enumerate(data)]
    return data


@st.composite
def _document_texts(draw):
    """JSON texts of g=36 documents of every schema, listed or full, with a
    report and a certificate, their entries varied as by _schema12_entry and
    now and then a {"necklace", "word"} object planted at one site.  Now and
    then a listed system repeats a curve, so its certificate names that curve
    twice in its collision and it has no report."""
    version = draw(st.sampled_from([1, 2, 3]))
    full = draw(st.integers(0, 4)) == 0
    if full:
        system = generate_system(_SURFACE)
    else:
        curves = draw(
            st.lists(
                st.builds(Curve, st.integers(min_value=0, max_value=11), st.tuples(_LETTER, _LETTER)),
                min_size=2,
                max_size=12,
                unique=True,
            )
        )
        if draw(st.integers(0, 3)) == 0:
            curves.append(draw(st.sampled_from(curves)))
        system = CurveSystem(_SURFACE, tuple(curves))
    report = None
    if system.first_repeat is None:  # the counter refuses a repeated curve
        report = verify_sparsity(system, SparsityThreshold.power(Fraction(0)))
    doc = SystemDocument(system, report=report, certificate=certify_distinct(system))
    data = _pairs(dict(to_dict(doc), schemaVersion=version))
    if version == 1:
        data.append(("analytic", full))
    if version != 3:
        listed = [] if full and version == 1 else [draw(_schema12_entry(c)) for c in system.curves]
        data = _plant(data, ("curves",), "full" if full and version == 2 else listed)
    if draw(st.booleans()):
        necklace = draw(st.one_of(_ANY_NECKLACE, st.just([_entry(0, "11")])))
        planted = _entry(necklace, draw(_ANY_WORD), draw(st.booleans()))
        # the object itself, in a list, or as the value of another object
        planted = draw(st.sampled_from([planted, [planted], _Pairs([("x", planted)])]))
        data = _plant(data, draw(st.sampled_from(_PLANT_SITES)), planted)
    return _render(data)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("decoded") / "doc.json"


def _outcome(load):
    try:
        return load()
    except DocumentError as exc:
        return f"DocumentError: {exc}"


_G36 = '"surface": {"g": 36, "alpha": "0/1", "h": 3, "hPrime": 12, "baseGenus": 0}'


@given(text=_document_texts())
# a curve list of {"necklace", "word"} objects only, one out of range, and the
# same objects where schema 3 needs {"necklace", "words"}
@example(text='{"schemaVersion": 2, %s, "curves": [{"necklace": 0, "word": "11"}, {"necklace": 12, "word": "12"}]}' % _G36)
@example(text='{"schemaVersion": 3, %s, "curves": [{"necklace": 0, "word": "11"}]}' % _G36)
# curve lists of JSON values that a sentinel for a decoded entry must not
# equal, each with one {"necklace", "word"} object outside the curve list
@example(text='{"schemaVersion": 2, %s, "curves": [null], "report": {"necklace": 0, "word": "11"}}' % _G36)
@example(text='{"schemaVersion": 1, %s, "curves": [0], "certificate": {"necklace": 0, "word": "11"}}' % _G36)
@example(text='{"schemaVersion": 2, %s, "curves": [[]], "certificate": {"word": "11", "necklace": 0}}' % _G36)
@example(text='{"schemaVersion": 2, %s, "curves": [{}], "report": {"necklace": 0, "word": "11"}}' % _G36)
@settings(max_examples=300, deadline=None)
def test_load_document_matches_from_dict_of_plain_json(document_path, text):
    document_path.write_text(text, encoding="utf-8")
    loaded = _outcome(lambda: load_document(document_path))
    assert loaded == _outcome(lambda: from_dict(json.loads(text)))


def _json_nests(depth: int) -> bool:
    try:
        json.loads("[" * depth + "]" * depth)
    except RecursionError:
        return False
    return True


@pytest.mark.parametrize("site", ["surface", "report", "certificate", "curves"])
def test_a_curve_object_nested_deeply_is_named_as_an_object(tmp_path, site):
    # from CPython 3.12 on, json nests deeper than Python's recursion limit,
    # so a recursive walk back to objects would fail where json did not
    depth = max(d for d in (800, 1400, 5000) if _json_nests(d + 10))
    doc = dict(to_dict(SystemDocument(CurveSystem(_SURFACE, (Curve(0, (1, 1)),)))), schemaVersion=2)
    doc["curves"] = [{"necklace": 0, "word": "11"}]
    doc[site] = "@"
    text = json.dumps(doc).replace('"@"', "[" * depth + '{"necklace": 0, "word": "11"}' + "]" * depth)
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    loaded = _outcome(lambda: load_document(path))
    assert loaded == _outcome(lambda: from_dict(json.loads(text)))
    assert loaded.startswith("DocumentError: ")


def test_listed_entries_load_without_a_dict_per_curve(tmp_path):
    # g=1000, alpha=-1/3: h=5, h'=200; 100 of the 256 four-letter words per necklace
    surface = plan_composite(1000, Fraction(-1, 3))
    words = ["".join(w) for w in product("1234", repeat=surface.piece_count)]
    entries = [
        {"necklace": k, "word": words[(37 * k + 5 * i) % len(words)]}
        for k in range(surface.h_prime)
        for i in range(100)
    ]
    data = dict(to_dict(SystemDocument(CurveSystem(surface))), schemaVersion=1, curves=entries)
    text = json.dumps(data)
    path = tmp_path / "listed.json"
    path.write_text(text, encoding="utf-8")
    tracemalloc.start()
    try:
        system = load_document(path).system
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.curve_count == 20_000
    # the load peaks at the read of its text, its bytes and its str together:
    # the decoded entries, two columns of a pointer each, stay below that.
    # (load_peak - 2 * text) / entries measured 0.27 bytes under pytest on
    # CPython 3.11 and 0.3 in plain scripts on 3.10 to 3.13; decoding each
    # entry to a (necklace, word) tuple measured 30.3-30.6 and 25.7-25.9
    assert load_peak < 2 * sys.getsizeof(text) + 8 * len(entries)

