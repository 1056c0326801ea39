"""JSON system documents: serialization, parsing, atomic writes.

A document records one surface plus its curves, optionally extended by a
crossing report and a distinctness certificate.  The full generated family
is written as `"curves": "full"`; any other system is written (schema 3) as
one {"necklace", "words"} object per necklace, necklaces ascending, with the
necklace's words blank-separated in ascending order.  Older documents still
load: schema 2 lists each curve as a {"necklace", "word"} object, and schema
1 does too, with the full family as `"analytic": true` and an empty curve
list.  Every listed form loads straight into the system's packed words, one
sorted string of letter codes per necklace (see `curves.CurveSystem`), and
schema 3 is written from the same strings.  `load_document` decodes each
{"necklace", "word"} entry, keys in either order, into a (necklace, word)
tuple whose word string is shared by every entry that spells it, so no
per-curve dict is built; a text with such an entry anywhere but in a
schema-1/2 curve list is decoded again by plain json.loads instead.
Schema-1/2 entries are checked field by field over the whole list at once;
only when a check fails are they scanned again one by one, to name the first
bad entry.  JSON keeps desk-scale systems inspectable by eye; round-tripping
is stable field for field, and writes go through a temp file plus rename so
readers never see a partial document.  Integers are written in decimal, so a
report whose totals or threshold exceed CPython's int-to-str digit limit is
refused before anything is written.  Every fault of a document being loaded,
from unreadable bytes, bytes that are not UTF-8 and JSON nested too deeply
to parse to a report or certificate that contradicts its system, raises
DocumentError."""

from __future__ import annotations

import json
import os
import stat
from collections import defaultdict
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional

from .curves import Curve, CrossingReport, CurveSystem, SparsityThreshold
from .errors import DocumentError, DomainError
from .exactint import DECIMAL_DIGIT_LIMIT, fits_decimal, parse_fraction
from .homology import DistinctnessCertificate
from .surfaces import ARC_LABELS, CompositeSurface

SCHEMA_VERSION = 3
FULL_FAMILY = "full"
_LETTERS = frozenset("1234")
_PACKED_CHARACTERS = frozenset("1234 ")
_CODES = bytes.maketrans(b"1234", bytes(ARC_LABELS))
_TEXT = bytes.maketrans(bytes(ARC_LABELS), b"1234")


class SystemDocument(NamedTuple):
    """A curve system, with the crossing report and certificate found for it."""

    system: CurveSystem
    report: Optional[CrossingReport] = None
    certificate: Optional[DistinctnessCertificate] = None


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _report_dict(report: CrossingReport) -> dict:
    # checked before the average is reduced: JSON integers and the threshold's
    # p/q text are decimal, and Python refuses any past the int-to-str limit
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
        "sparsityThreshold": {"kind": threshold.kind, "value": _fraction_text(threshold.value)},
        "isSparse": report.is_sparse,
        "mode": report.mode,
    }


def _certificate_dict(certificate: DistinctnessCertificate) -> dict:
    collision = certificate.collision
    if collision is not None:
        collision = [{"necklace": c.necklace, "word": "".join(map(str, c.word))} for c in collision]
    return {
        "distinct": certificate.distinct,
        "method": certificate.method,
        "collision": collision,
    }


def _packed_curves(system: CurveSystem) -> list[dict]:
    """Listed curves as one entry per necklace, necklaces ascending, with the
    necklace's words blank-separated in ascending order."""
    n = system.surface.piece_count
    entries = []
    for k, blob in system.packed:
        text = blob.translate(_TEXT).decode("ascii")
        words = [text[i : i + n] for i in range(0, len(text), n)]
        entries.append({"necklace": k, "words": " ".join(words)})
    return entries


def to_dict(doc: SystemDocument) -> dict:
    system = doc.system
    surface = system.surface
    return {
        "schemaVersion": SCHEMA_VERSION,
        "surface": {
            "g": surface.g,
            "alpha": _fraction_text(surface.alpha),
            "h": surface.h,
            "hPrime": surface.h_prime,
            "baseGenus": surface.base_genus,
        },
        "curves": FULL_FAMILY if system.full else _packed_curves(system),
        "report": _report_dict(doc.report) if doc.report else None,
        "certificate": _certificate_dict(doc.certificate) if doc.certificate else None,
    }


def _parse_fraction(text: object, field: str) -> Fraction:
    if not isinstance(text, str):
        raise DocumentError(f"{field} must be a 'p/q' string, got {text!r}")
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{field}: {exc}") from exc


def _json_int(value: object, name: str) -> int:
    """`value` itself if it is a JSON integer; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{name} must be an integer, got {value!r}")
    return value


def _json_bool(value: object, name: str) -> bool:
    """`value` itself if it is a JSON boolean; strings and numbers are refused."""
    if not isinstance(value, bool):
        raise DocumentError(f"{name} must be true or false, got {value!r}")
    return value


def _int_field(data: dict, key: str) -> int:
    return _json_int(data[key], key)


def _parse_curve(entry: object, index: int, field: str = "curves") -> Curve:
    name = f"{field}[{index}]"
    if not isinstance(entry, dict):
        raise DocumentError(f"{name} must be an object, got {entry!r}")
    try:
        necklace = entry["necklace"]
        word_text = entry["word"]
    except KeyError as exc:
        raise DocumentError(f"{name} missing key {exc}") from exc
    if _json_int(necklace, f"{name}.necklace") < 0:
        raise DocumentError(f"{name}.necklace must be a nonnegative integer")
    if not isinstance(word_text, str) or not word_text:
        raise DocumentError(f"{name}.word must be a nonempty string")
    if not set(word_text) <= _LETTERS:
        raise DocumentError(f"{name}.word must use letters 1-4 only")
    return Curve(necklace, tuple(map(int, word_text)))


def _parse_curves(entries: list, field: str, surface: CompositeSurface) -> tuple[Curve, ...]:
    """{"necklace", "word"} entries as curves on the surface.  Every entry's
    own fields are checked first, then every entry against the surface's
    limits, so an error names the first bad entry of the first failing scan."""
    curves = tuple(_parse_curve(entry, i, field) for i, entry in enumerate(entries))
    for i, curve in enumerate(curves):
        if len(curve.word) != surface.piece_count:
            raise DocumentError(
                f"{field}[{i}].word has length {len(curve.word)}, "
                f"surface needs {surface.piece_count}"
            )
        if curve.necklace >= surface.h_prime:
            raise DocumentError(
                f"{field}[{i}].necklace = {curve.necklace} outside [0, {surface.h_prime})"
            )
    return curves


def _as_object(entry: tuple) -> dict:
    """The {"necklace", "word"} object that load_document decoded to entry."""
    necklace, word = entry
    return {"necklace": necklace, "word": word}


def _pack(words: list[str]) -> bytes:
    """Word strings of letters 1-4 as one sorted string of letter codes."""
    return "".join(sorted(words)).encode("ascii").translate(_CODES)


def _parse_listed(
    entries: list, surface: CompositeSurface, decoded: bool
) -> tuple[tuple[int, bytes], ...]:
    """Schema-1/2 listed curves, {"necklace", "word"} objects in any order or,
    when decoded, the (necklace, word) tuples load_document decoded them to,
    packed per necklace.  Each check runs once over all entries; only when one
    fails are the entries scanned again by `_parse_curves`, which raises
    naming the first bad entry: every bulk check has a per-entry one."""
    if decoded:  # the decoder made each entry an (int, str) tuple
        necklaces = list(map(itemgetter(0), entries))
        words = list(map(itemgetter(1), entries))
        necklace_types, word_types = {int}, {str}
    else:
        try:
            necklaces = [entry["necklace"] for entry in entries]
            words = [entry["word"] for entry in entries]
        except (TypeError, KeyError):  # an entry that is no object, or lacks a key
            necklaces, words = [None], []  # fails the integer check below
        necklace_types, word_types = set(map(type, necklaces)), set(map(type, words))
    if (
        bool in necklace_types
        or not all(issubclass(t, int) for t in necklace_types)
        or not all(issubclass(t, str) for t in word_types)
        or not 0 <= min(necklaces, default=0) <= max(necklaces, default=0) < surface.h_prime
        # each distinct word once: decoded entries share their word strings
        or not set(map(len, distinct := set(words))) <= {surface.piece_count}
        or not set("".join(distinct)) <= _LETTERS
    ):
        _parse_curves(list(map(_as_object, entries)) if decoded else entries, "curves", surface)
        raise AssertionError("a bulk check failed that no entry check repeats")
    groups: defaultdict[int, list[str]] = defaultdict(list)
    for necklace, word in zip(necklaces, words):
        groups[necklace].append(word)
    return tuple((k, _pack(groups[k])) for k in sorted(groups))


def _parse_packed(entries: list, surface: CompositeSurface) -> tuple[tuple[int, bytes], ...]:
    """Schema-3 listed curves: necklaces strictly ascending and in range, each
    with a nonempty string of blank-separated words of h-1 letters 1-4."""
    packed = []
    previous = -1
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DocumentError(f"curves[{i}] must be an object, got {entry!r}")
        try:
            necklace = _json_int(entry["necklace"], f"curves[{i}].necklace")
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
        if not set(text) <= _PACKED_CHARACTERS:
            raise DocumentError(
                f"curves[{i}].words must use letters 1-4 and single blanks only"
            )
        words = text.split(" ")
        if set(map(len, words)) != {surface.piece_count}:
            length = next(len(w) for w in words if len(w) != surface.piece_count)
            raise DocumentError(
                f"curves[{i}].words holds a word of length {length}, "
                f"surface needs {surface.piece_count}"
            )
        packed.append((necklace, _pack(words)))
    return tuple(packed)


def _parse_threshold(entry: object) -> SparsityThreshold:
    if not isinstance(entry, dict) or "kind" not in entry or "value" not in entry:
        raise DocumentError(f"sparsityThreshold must have kind and value, got {entry!r}")
    kind = entry["kind"]
    value = _parse_fraction(entry["value"], "sparsityThreshold.value")
    if kind == "rational":
        try:
            return SparsityThreshold.rational(value)
        except DomainError as exc:
            raise DocumentError(f"sparsityThreshold.value: {exc}") from exc
    if kind == "power":
        return SparsityThreshold.power(value)
    raise DocumentError(f"unknown threshold kind {kind!r}")


def from_dict(data: object) -> SystemDocument:
    """The document a parsed JSON value describes; DocumentError names the
    first fault.  Every field is checked for its shape first.  Then the report
    and the certificate are checked against the system: pairCount is
    C(curves, 2); a listed system has neither an "analytic" report nor a
    "construction" certificate; and a certificate names a collision exactly
    when it is not distinct, one curve of the system twice.  A listed system's
    totalCrossings is not checked, since only the counter can check it and
    `verify` recounts."""
    return _from_dict(data, decoded=False)


def _from_dict(data: object, decoded: bool) -> SystemDocument:
    """from_dict; decoded says that a schema-1/2 curve list holds the
    (necklace, word) tuples of load_document's decoder."""
    if not isinstance(data, dict):
        raise DocumentError(f"document root must be an object, got {type(data).__name__}")
    version = data.get("schemaVersion")
    if type(version) is not int or version not in (1, 2, SCHEMA_VERSION):
        raise DocumentError(
            f"unsupported schemaVersion {version!r}, expected 1, 2 or {SCHEMA_VERSION}"
        )
    surface_data = data.get("surface")
    if not isinstance(surface_data, dict):
        raise DocumentError("missing surface object")
    try:
        surface = CompositeSurface(
            g=_int_field(surface_data, "g"),
            alpha=_parse_fraction(surface_data["alpha"], "surface.alpha"),
            h=_int_field(surface_data, "h"),
            h_prime=_int_field(surface_data, "hPrime"),
            base_genus=_int_field(surface_data, "baseGenus"),
        )
    except KeyError as exc:
        raise DocumentError(f"surface missing key {exc}") from exc
    try:
        surface.check_invariants()
    except ValueError as exc:
        raise DocumentError(f"inconsistent surface: {exc}") from exc
    curves_data = data.get("curves")
    if version == 1:
        full = _json_bool(data.get("analytic", False), "analytic")
        if full and curves_data != []:
            raise DocumentError('a schema-1 analytic document must have "curves": []')
    else:
        full = curves_data == FULL_FAMILY
    if not full and not isinstance(curves_data, list):
        raise DocumentError(f'curves must be a list or "{FULL_FAMILY}"')
    if full:
        system = CurveSystem(surface, full=True)
    elif version == SCHEMA_VERSION:
        system = CurveSystem.from_packed(surface, _parse_packed(curves_data, surface))
    else:
        system = CurveSystem.from_packed(surface, _parse_listed(curves_data, surface, decoded))

    report = None
    report_data = data.get("report")
    if report_data is not None:
        if not isinstance(report_data, dict):
            raise DocumentError("report must be an object")
        try:
            report = CrossingReport(
                total_crossings=_int_field(report_data, "totalCrossings"),
                pair_count=_int_field(report_data, "pairCount"),
                threshold=_parse_threshold(report_data["sparsityThreshold"]),
                is_sparse=_json_bool(report_data["isSparse"], "isSparse"),
                mode=report_data["mode"],
            )
            numerator = _int_field(report_data, "averageNumerator")
            denominator = _int_field(report_data, "averageDenominator")
        except KeyError as exc:
            raise DocumentError(f"report missing key {exc}") from exc
        if report.mode not in ("explicit", "analytic"):
            raise DocumentError(
                f'report.mode must be "explicit" or "analytic", got {report.mode!r}'
            )
        if denominator == 0:
            raise DocumentError("averageDenominator must be nonzero")
        if numerator * report.pair_count != denominator * report.total_crossings:
            raise DocumentError(
                "report average averageNumerator/averageDenominator differs "
                "from totalCrossings/pairCount"
            )

    certificate = None
    certificate_data = data.get("certificate")
    if certificate_data is not None:
        if not isinstance(certificate_data, dict):
            raise DocumentError("certificate must be an object")
        collision_data = certificate_data.get("collision")
        collision = None
        if collision_data is not None:
            if not isinstance(collision_data, list) or len(collision_data) != 2:
                raise DocumentError("certificate.collision must list two curves")
            collision = _parse_curves(collision_data, "certificate.collision", surface)
        method = certificate_data.get("method", "exhaustive")
        if method not in ("exhaustive", "construction"):
            raise DocumentError(
                f'certificate.method must be "exhaustive" or "construction", got {method!r}'
            )
        certificate = DistinctnessCertificate(
            distinct=_json_bool(certificate_data.get("distinct", False), "distinct"),
            method=method,
            collision=collision,
        )

    # the annotations against the system, once every field has its shape
    if report is not None:
        n, pairs = system.curve_count, report.pair_count
        # n <= 2*pairs + 1 whenever pairs = C(n, 2); it spares the product
        # for a huge system against a pairCount of at most 4300 digits
        if not (n <= 2 * pairs + 1 and n * (n - 1) // 2 == pairs):
            raise DocumentError("report.pairCount differs from C(curves, 2) of the system")
        if report.mode == "analytic" and not system.full:
            raise DocumentError(
                'report.mode "analytic" needs the full family; '
                "a listed system is counted explicitly"
            )
    if certificate is not None:
        if certificate.method == "construction" and not system.full:
            raise DocumentError('certificate.method "construction" needs the full family')
        if certificate.distinct and certificate.collision is not None:
            raise DocumentError("a distinct certificate must have no collision")
        if not certificate.distinct and (
            certificate.collision is None
            or certificate.collision[0] != certificate.collision[1]
        ):
            raise DocumentError(
                "a certificate that is not distinct must name one curve twice in its collision"
            )
        for i, curve in enumerate(certificate.collision or ()):
            if not system.holds(curve):
                raise DocumentError(
                    f"certificate.collision[{i}] = {curve} is not a curve of the system"
                )

    return SystemDocument(system, report=report, certificate=certificate)


def dumps(doc: SystemDocument) -> str:
    return json.dumps(to_dict(doc), indent=2, ensure_ascii=False) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so partial files never appear.

    A symlink is followed and its target written.  An existing target that is
    not a regular file (a FIFO, a device, a directory) raises DocumentError
    and is left as it is.  A replaced file keeps its mode; a new one gets
    0o666 less the umask, as `open` would give it."""
    path = Path(os.path.realpath(path))
    try:
        target = os.stat(path)
    except FileNotFoundError:
        target = None
    if target is not None and not stat.S_ISREG(target.st_mode):
        raise DocumentError("not a regular file")
    tmp_name = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if target is not None:
                os.fchmod(fd, stat.S_IMODE(target.st_mode))
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_document(doc: SystemDocument, path: str | Path) -> None:
    write_text_atomic(path, dumps(doc))


def load_document(path: str | Path) -> SystemDocument:
    """The document at path.  A path that is not a regular file (a FIFO, a
    device node, a directory) raises DocumentError before anything is read;
    it is opened non-blocking, so a FIFO without a writer does not wait.
    Listed entries decode straight into (necklace, word) tuples with shared
    word strings, not one dict per curve; a text with such an entry anywhere
    else is decoded again by plain json.loads, as from_dict would be given it."""
    path = Path(path)
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                raise DocumentError(f"{path}: not a regular file")
            with open(fd, encoding="utf-8", closefd=False) as handle:
                text = handle.read()
        finally:
            os.close(fd)
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    made = 0
    shared: dict[str, str] = {}

    def compact(obj: dict) -> object:
        nonlocal made
        necklace, word = obj.get("necklace"), obj.get("word")
        if len(obj) == 2 and type(necklace) is int and type(word) is str:
            made += 1
            return necklace, shared.setdefault(word, word)
        return obj

    try:
        data = json.loads(text, object_hook=compact)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # an integer past the int-to-str digit limit
        raise DocumentError(f"{path}: {exc}") from exc
    shared.clear()
    curves = data.get("curves") if type(data) is dict else None
    listed = (  # every tuple made is an entry of a schema-1/2 curve list
        type(curves) is list
        and len(curves) == made
        and set(map(type, curves)) == {tuple}
        and data.get("schemaVersion") != SCHEMA_VERSION
    )
    if made and not listed:  # a tuple outside the curve list: decode as json.loads does
        del data, curves
        data = json.loads(text)
    del text  # not held while the document is checked
    return _from_dict(data, decoded=listed)
