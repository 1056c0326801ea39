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
schema 3 is written from their letter columns.  `from_dict` is the one
parser, and reads a curve entry only as an object; `load_document` hands it
a schema-1/2 list as necklace and word columns.  A full family's report
holds its totals as `verify` prints them (past CPython's int-to-str digit
limit, as `int_text` tokens) and no average: the loader checks them against
the surface's closed form and takes them from it.  A listed report holds
decimal totals and its average, and one whose totals or threshold pass the
limit is refused before anything is written.  Writes go through a temp file
plus rename so readers never see a partial document.  Every fault of a
document being loaded, from unreadable bytes, bytes that are not UTF-8 and
JSON nested too deeply to parse to a report or certificate that contradicts
its system, raises DocumentError, a long value cut in its message."""

from __future__ import annotations

import json
import os
import stat
from collections import defaultdict
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .curves import Curve, CrossingReport, CurveSystem, SparsityThreshold
from .errors import DocumentError, DomainError
from .exactint import DECIMAL_DIGIT_LIMIT, fits_decimal, parse_fraction
from .homology import DistinctnessCertificate
from .intersections import total_crossings_analytic
from .logspace import fraction_text, int_text
from .surfaces import ARC_LABELS, CompositeSurface, plan_composite

SCHEMA_VERSION = 3
FULL_FAMILY = "full"
_LETTERS = frozenset("1234")
_PACKED_CHARACTERS = frozenset("1234 ")
_CODES = bytes.maketrans(b"1234", bytes(ARC_LABELS))
_TEXT = bytes.maketrans(bytes(ARC_LABELS), b"1234")
_TOTALS = ("totalCrossings", "pairCount")
_AVERAGE = ("averageNumerator", "averageDenominator")


class SystemDocument(NamedTuple):
    """A curve system, with the crossing report and certificate found for it."""

    system: CurveSystem
    report: Optional[CrossingReport] = None
    certificate: Optional[DistinctnessCertificate] = None


def _printed(value: int) -> int | str:
    """value as `verify` prints it: itself within the digit limit, else its token."""
    return value if fits_decimal(value) else int_text(value)


def _report_dict(report: CrossingReport, full: bool) -> dict:
    # a full family's totals go as printed, with no average: the surface fixes
    # it, and megabit totals take seconds to reduce.  Other numbers are decimal,
    # checked before the average is reduced: Python refuses any past the limit
    threshold = report.threshold
    fields = dict(zip(_TOTALS, (report.total_crossings, report.pair_count)))
    for key, value in (
        *(() if full else fields.items()),
        ("sparsityThreshold.value", threshold.value.numerator),
        ("sparsityThreshold.value", threshold.value.denominator),
    ):
        if not fits_decimal(value):
            raise DocumentError(
                f"report.{key} has {value.bit_length()} bits, more than "
                f"{DECIMAL_DIGIT_LIMIT} decimal digits"
            )
    if full:
        fields = {key: _printed(value) for key, value in fields.items()}
    else:
        fields.update(zip(_AVERAGE, report.average.as_integer_ratio()))
    text = fraction_text(threshold.value, slash=True)
    fields["sparsityThreshold"] = {"kind": threshold.kind, "value": text}
    return dict(fields, isSparse=report.is_sparse, mode=report.mode)


def _certificate_dict(certificate: DistinctnessCertificate) -> dict:
    collision = certificate.collision
    if collision is not None:
        collision = [{"necklace": c.necklace, "word": "".join(map(str, c.word))} for c in collision]
    return {"distinct": certificate.distinct, "method": certificate.method, "collision": collision}


def _packed_curves(system: CurveSystem) -> list[dict]:
    """Listed curves as one entry per necklace, necklaces ascending, with the
    necklace's words blank-separated in ascending order."""
    n = system.surface.piece_count
    entries = []
    for k, blob in system.packed:
        text = bytearray(b" ") * (len(blob) // n * (n + 1) - 1)
        for i in range(n):
            text[i :: n + 1] = blob[i::n]
        entries.append({"necklace": k, "words": text.translate(_TEXT).decode("ascii")})
    return entries


def to_dict(doc: SystemDocument) -> dict:
    system = doc.system
    surface = system.surface
    return {
        "schemaVersion": SCHEMA_VERSION,
        "surface": {
            "g": surface.g,
            "alpha": fraction_text(surface.alpha, slash=True),
            "h": surface.h,
            "hPrime": surface.h_prime,
            "baseGenus": surface.base_genus,
        },
        "curves": FULL_FAMILY if system.full else _packed_curves(system),
        "report": _report_dict(doc.report, system.full) if doc.report else None,
        "certificate": _certificate_dict(doc.certificate) if doc.certificate else None,
    }


def _parse_fraction(text: object, field: str) -> Fraction:
    if not isinstance(text, str):
        raise DocumentError(f"{field} must be a 'p/q' string, got {int_text(text)}")
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{field}: {int_text(exc)}") from exc


def _json_int(value: object, name: str) -> int:
    """`value` itself if it is a JSON integer; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{name} must be an integer, got {int_text(value)}")
    return value


def _json_bool(value: object, name: str) -> bool:
    """`value` itself if it is a JSON boolean; strings and numbers are refused."""
    if not isinstance(value, bool):
        raise DocumentError(f"{name} must be true or false, got {int_text(value)}")
    return value


def _parse_curve(entry: object, index: int, field: str = "curves") -> Curve:
    """A {"necklace", "word"} object as a curve."""
    name = f"{field}[{index}]"
    if not isinstance(entry, dict):
        raise DocumentError(f"{name} must be an object, got {int_text(entry)}")
    try:
        necklace, word_text = entry["necklace"], entry["word"]
    except KeyError as exc:
        raise DocumentError(f"{name} missing key {exc}") from exc
    if _json_int(necklace, f"{name}.necklace") < 0:
        raise DocumentError(f"{name}.necklace must be a nonnegative integer")
    if not isinstance(word_text, str) or not word_text:
        raise DocumentError(f"{name}.word must be a nonempty string")
    if not set(word_text) <= _LETTERS:
        raise DocumentError(f"{name}.word must use letters 1-4 only")
    return Curve(necklace, tuple(map(int, word_text)))


def _parse_curves(entries: Iterable, field: str, surface: CompositeSurface) -> tuple[Curve, ...]:
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
                f"{field}[{i}].necklace = {int_text(curve.necklace)} "
                f"outside [0, {int_text(surface.h_prime)})"
            )
    return curves


def _pack(words: list[str]) -> bytes:
    """Word strings of letters 1-4 as one sorted string of letter codes."""
    return "".join(sorted(words)).encode("ascii").translate(_CODES)


_ENTRY = object()  # what load_document's hook returns for a listed entry; no JSON value equals it


class _Columns(list):
    """A schema-1/2 curve list as `load_document` decodes it: one `_ENTRY`
    per entry, with the entries' necklaces and words as two columns."""

    def __init__(self, entries: list, necklaces: list, words: list) -> None:
        super().__init__(entries)
        self.necklaces, self.words = necklaces, words


def _parse_listed(entries: list, surface: CompositeSurface) -> tuple[tuple[int, bytes], ...]:
    """Schema-1/2 listed curves, {"necklace", "word"} objects or `_Columns`,
    in any order, packed per necklace.  Each check runs once over all
    entries, read straight from the columns or by key.  When one fails,
    `_parse_curves` reads them one by one as objects, which columns yield
    only then: it names the first bad entry, or gives the curves."""
    try:
        if isinstance(entries, _Columns):
            necklaces, words = entries.necklaces, entries.words
            entries = ({"necklace": k, "word": w} for k, w in zip(necklaces, words))
        else:
            necklaces = list(map(itemgetter("necklace"), entries))
            words = list(map(itemgetter("word"), entries))
        distinct = set(words)  # each distinct word once: decoded entries share them
        letters = set("".join(distinct))
    except (TypeError, KeyError):  # no object, a missing key, a word that is no string
        necklaces, distinct, letters = [None], set(), set()  # fails the integer check below
    necklace_types = set(map(type, necklaces))
    if (
        bool not in necklace_types
        and all(issubclass(t, int) for t in necklace_types)
        and set(map(len, distinct)) <= {surface.piece_count}
        and letters <= _LETTERS
    ):
        groups: defaultdict[int, list[str]] = defaultdict(list)
        for necklace, word in zip(necklaces, words):
            groups[necklace].append(word)
        if 0 <= min(groups, default=0) and max(groups, default=0) < surface.h_prime:
            return tuple((k, _pack(groups[k])) for k in sorted(groups))
    return CurveSystem(surface, _parse_curves(entries, "curves", surface)).packed


def _parse_packed(entries: list, surface: CompositeSurface) -> tuple[tuple[int, bytes], ...]:
    """Schema-3 listed curves: necklaces strictly ascending and in range, each
    with a nonempty string of blank-separated words of h-1 letters 1-4."""
    packed = []
    previous = -1
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DocumentError(f"curves[{i}] must be an object, got {int_text(entry)}")
        try:
            necklace = _json_int(entry["necklace"], f"curves[{i}].necklace")
            text = entry["words"]
        except KeyError as exc:
            raise DocumentError(f"curves[{i}] missing key {exc}") from exc
        if not 0 <= necklace < surface.h_prime:
            raise DocumentError(
                f"curves[{i}].necklace = {int_text(necklace)} "
                f"outside [0, {int_text(surface.h_prime)})"
            )
        if necklace <= previous:
            raise DocumentError(
                f"curves[{i}].necklace = {int_text(necklace)} must exceed "
                f"the previous necklace {int_text(previous)}"
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
        raise DocumentError(f"sparsityThreshold must have kind and value, got {int_text(entry)}")
    kind = entry["kind"]
    value = _parse_fraction(entry["value"], "sparsityThreshold.value")
    if kind == "rational":
        try:
            return SparsityThreshold.rational(value)
        except DomainError as exc:
            raise DocumentError(f"sparsityThreshold.value: {exc}") from exc
    if kind == "power":
        return SparsityThreshold.power(value)
    raise DocumentError(f"unknown threshold kind {int_text(kind)}")


def from_dict(data: object) -> SystemDocument:
    """The document a parsed JSON value describes; DocumentError names the
    first fault.  The surface is read first and checked against the plan of
    its g and alpha (`plan_composite`), and a full family's report totals
    against the closed form of that surface.  Every other field is then
    checked for its shape.  Then the report and the certificate are checked
    against the system: a listed system's pairCount is C(curves, 2); it has
    neither an "analytic" report nor a "construction" certificate; and a
    certificate names a collision exactly when it is not distinct, one curve
    of the system twice.  A listed system's totalCrossings only the counter
    can check, and `verify` recounts.  A schema-1/2 curve list holds
    {"necklace", "word"} objects, or is the necklace and word columns that
    `load_document` decodes it to."""
    if not isinstance(data, dict):
        raise DocumentError(f"document root must be an object, got {type(data).__name__}")
    version = data.get("schemaVersion")
    if type(version) is not int or version not in (1, 2, SCHEMA_VERSION):
        raise DocumentError(
            f"unsupported schemaVersion {int_text(version)}, expected 1, 2 or {SCHEMA_VERSION}"
        )
    surface_data = data.get("surface")
    if not isinstance(surface_data, dict):
        raise DocumentError("missing surface object")
    try:
        g = _json_int(surface_data["g"], "g")
        alpha = _parse_fraction(surface_data["alpha"], "surface.alpha")
        stored = [(key, _json_int(surface_data[key], key)) for key in ("h", "hPrime", "baseGenus")]
    except KeyError as exc:
        raise DocumentError(f"surface missing key {exc}") from exc
    try:
        surface = plan_composite(g, alpha)
    except ValueError as exc:
        raise DocumentError(f"inconsistent surface: {exc}") from exc
    for (key, value), planned in zip(stored, surface[2:]):  # h, h', base genus
        if value != planned:
            raise DocumentError(
                f"inconsistent surface: {key} = {int_text(value)}, but the plan of "
                f"g = {int_text(g)}, alpha = {fraction_text(alpha, slash=True)} "
                f"has {key} = {int_text(planned)}"
            )
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
        system = CurveSystem.from_packed(surface, _parse_listed(curves_data, surface))

    report = None
    report_data = data.get("report")
    if report_data is not None:
        if not isinstance(report_data, dict):
            raise DocumentError("report must be an object")
        # a full family's totals are its surface's, which the stored ones must print as
        totals = (total_crossings_analytic(surface), system.pair_count) if system.full else ()
        try:
            stored = [report_data[key] for key in _TOTALS]
            for key, value, total in zip(_TOTALS, stored, totals):
                shown = _printed(total)
                if type(value) is not type(shown) or value != shown:
                    raise DocumentError(
                        f"report.{key} = {int_text(value)}, but the full family "
                        f"of the surface has {int_text(total)}"
                    )
            report = CrossingReport(
                *(totals or map(_json_int, stored, _TOTALS)),
                threshold=_parse_threshold(report_data["sparsityThreshold"]),
                is_sparse=_json_bool(report_data["isSparse"], "isSparse"),
                mode=report_data["mode"],
            )
            # a full family's report needs no average, but one it holds is checked
            averaged = not system.full or report_data.keys() & _AVERAGE
            average = [_json_int(report_data[key], key) for key in _AVERAGE if averaged]
        except KeyError as exc:
            raise DocumentError(f"report missing key {exc}") from exc
        if report.mode not in ("explicit", "analytic"):
            raise DocumentError(
                f'report.mode must be "explicit" or "analytic", got {int_text(report.mode)}'
            )
        if average:
            numerator, denominator = average
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
                f'certificate.method must be "exhaustive" or "construction", got {int_text(method)}'
            )
        certificate = DistinctnessCertificate(
            distinct=_json_bool(certificate_data.get("distinct", False), "distinct"),
            method=method,
            collision=collision,
        )

    # the annotations against the system, once every field has its shape
    if report is not None and not system.full:
        if system.pair_count != report.pair_count:
            raise DocumentError("report.pairCount differs from C(curves, 2) of the system")
        if report.mode == "analytic":
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
    Listed entries decode straight into two columns, their necklaces and
    their words (shared strings), with no value per curve, so the load peaks
    at the read of the text (1.69 MiB for an 882 KB list of 25,600 entries);
    a text with such an entry anywhere else is decoded again by plain
    json.loads, as from_dict would be given it."""
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
    necklaces: list[int] = []
    words: list[str] = []
    shared: dict[str, str] = {}

    def compact(obj: dict) -> object:
        necklace, word = obj.get("necklace"), obj.get("word")
        if len(obj) == 2 and type(necklace) is int and type(word) is str:
            necklaces.append(necklace)
            words.append(shared.setdefault(word, word))
            return _ENTRY
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
    listed = (  # every entry made is one of a schema-1/2 curve list, and nothing else is
        type(curves) is list
        and len(curves) == len(necklaces) == curves.count(_ENTRY)
        and data.get("schemaVersion") in (1, 2)
    )
    del curves
    if necklaces and not listed:  # an entry elsewhere: decode as json.loads does
        del data
        data = json.loads(text)
    del text  # not held while the document is checked
    if listed:
        data["curves"] = _Columns(data["curves"], necklaces, words)
    return from_dict(data)
