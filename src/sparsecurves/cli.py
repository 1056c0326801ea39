"""Command-line front end: construct / verify / bounds.

Exit codes: 0 verified sparse, 2 not sparse, 3 certificate failure,
4 domain error, 5 I/O or parse error.  The commands return 0, 2 or 3 and
raise every error; `main` alone turns a DocumentError (a document that cannot
be read, parsed or written) into 5 and any other SparseCurvesError into 4,
with one `error:` line.  Identical invocations produce byte-identical output:
field order is fixed and every logarithm is rendered at a fixed precision.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import bounds as bounds_mod
from . import document as document_mod
from .curves import CrossingReport, SparsityThreshold, generate_system, verify_sparsity
from .errors import DocumentError, DomainError, SparseCurvesError
from .homology import certify_distinct
from .exactint import fits_decimal, parse_fraction
from .logspace import (
    DEFAULT_DIGITS,
    MAX_DIGITS,
    PRINT_DIGITS,
    check_digits,
    cut_text,
    fraction_text,
    int_text,
    nstr,
)
from .surfaces import MAX_ALPHA_DENOMINATOR, plan_composite

EXIT_OK = 0
EXIT_NOT_SPARSE = 2
EXIT_CERTIFICATE = 3
EXIT_DOMAIN = 4
EXIT_IO = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_fraction_arg(text: str, name: str) -> Fraction:
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(
            f"{name} must be an exact fraction like 1/2, got {int_text(text)}: {int_text(exc)}"
        )


def _check_precision(digits: int) -> None:
    """DomainError unless --precision is from 1 to MAX_DIGITS.  No comparison
    doubles past MAX_DIGITS and a printed log10 shows at most 15 significant
    digits (at most N + 10 at --precision N), so a larger precision only costs time."""
    check_digits(digits)
    if digits > MAX_DIGITS:
        raise DomainError(
            f"precision must be at most {MAX_DIGITS} digits, got {digits}"
        )


@contextlib.contextmanager
def _writing(path: str):
    """Any failure to write `path` as a DocumentError naming it.  An OSError
    is shown by its reason alone: its text names the random temp file."""
    try:
        yield
    except (OSError, DocumentError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise DocumentError(f"cannot write {path}: {reason}") from exc


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> int:
    surface = plan_composite(args.g, _parse_fraction_arg(args.alpha, "--alpha"))
    system = generate_system(surface)
    with _writing(args.out):
        document_mod.save_document(document_mod.SystemDocument(system), args.out)
    print(
        f"curves={int_text(system.curve_count)} h={surface.h} hPrime={surface.h_prime} "
        f"baseGenus={surface.base_genus} "
        f"analytic={'true' if system.mode == 'analytic' else 'false'}"
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _threshold_from_arg(text: str, alpha: Fraction) -> SparsityThreshold:
    if text == "gpow":
        return SparsityThreshold.power(alpha)
    return SparsityThreshold.rational(_parse_fraction_arg(text, "--f"))


def _print_report(report: CrossingReport) -> None:
    crossings, pairs = report.total_crossings, report.pair_count
    print(f"crossings={int_text(crossings)} pairs={int_text(pairs)}")
    if fits_decimal(crossings) and fits_decimal(pairs):
        average = fraction_text(report.average, slash=True)
    else:
        average = bounds_mod.render_ratio(crossings, pairs)
    print(
        f"average={average} "
        f"threshold={report.threshold.describe()} "
        f"sparse={'true' if report.is_sparse else 'false'} mode={report.mode}"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_precision(args.precision)
    system = document_mod.load_document(args.document).system
    threshold = _threshold_from_arg(args.f, system.surface.alpha)

    report: Optional[CrossingReport] = None
    try:
        report = verify_sparsity(system, threshold)
    except DomainError as exc:
        report_error = exc
    certificate = certify_distinct(system)

    print(f"curves={int_text(system.curve_count)}")
    if report is not None:
        _print_report(report)
    else:
        print(f"crossing report unavailable: {report_error}")
    collision = ""
    if certificate.collision is not None:
        first, second = certificate.collision
        collision = f" collision={first}/{second}"
    print(
        f"certificate: distinct={'true' if certificate.distinct else 'false'} "
        f"method={certificate.method}{collision}"
    )

    if report is not None:
        verdict = bounds_mod.crossing_inequality_check(
            system.surface.g,
            system.curve_count,
            report.total_crossings,
            digits=args.precision,
        )
        parts = [
            f"inequality: status={verdict.status.value}",
            f"size_log10={nstr(verdict.size_log10, PRINT_DIGITS)}",
            f"threshold_log10={nstr(verdict.threshold_log10, PRINT_DIGITS)}",
        ]
        if verdict.left_log10 is not None:
            parts.append(f"left_log10={nstr(verdict.left_log10, PRINT_DIGITS)}")
        if verdict.crossings_log10 is not None:
            parts.append(f"crossings_log10={nstr(verdict.crossings_log10, PRINT_DIGITS)}")
        print(" ".join(parts))

    if args.out:
        annotated = document_mod.SystemDocument(
            system, report=report, certificate=certificate
        )
        with _writing(args.out):
            document_mod.save_document(annotated, args.out)

    if not certificate.distinct:
        return EXIT_CERTIFICATE
    if report is None:
        raise report_error
    if not report.is_sparse:
        return EXIT_NOT_SPARSE
    return EXIT_OK


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------


# --g-range COUNT above this exits 4 before any grid point is computed, so
# listing a grid stays under a second; its points are rounded to integers,
# and a denser grid mostly repeats genera.
MAX_GRID_COUNT = 10**6


def _parse_g_values(args: argparse.Namespace) -> set[int]:
    values: set[int] = set()
    if args.g:
        try:
            values.update(int(chunk) for chunk in args.g.split(",") if chunk.strip())
        except ValueError as exc:
            raise DomainError(f"--g must list integers, got {int_text(args.g)}") from exc
    if args.g_range:
        try:
            lo_text, hi_text, count_text = args.g_range.split(":")
            lo, hi, count = int(lo_text), int(hi_text), int(count_text)
        except ValueError as exc:
            raise DomainError(
                f"--g-range must be MIN:MAX:COUNT, got {int_text(args.g_range)}"
            ) from exc
        if lo < 1 or hi < lo or count < 1:
            raise DomainError("--g-range needs 1 <= MIN <= MAX and COUNT >= 1")
        if count > MAX_GRID_COUNT:
            raise DomainError(f"--g-range COUNT must be at most {MAX_GRID_COUNT}, got {count}")
        if count == 1:
            values.add(lo)
        else:
            span = math.log(hi) - math.log(lo)
            try:
                values.update(
                    round(math.exp(math.log(lo) + span * i / (count - 1)))
                    for i in range(count)
                )
            except OverflowError:
                raise DomainError("--g-range MAX is too large for a log-spaced grid") from None
    if not values:
        raise DomainError("bounds needs --g and/or --g-range")
    return values


def _cmd_bounds(args: argparse.Namespace) -> int:
    _check_precision(args.precision)
    g_values = _parse_g_values(args)
    alphas = [
        _parse_fraction_arg(chunk.strip(), "--alpha")
        for chunk in args.alpha.split(",")
        if chunk.strip()
    ]
    if not alphas:
        raise DomainError("--alpha needs at least one fraction")
    # rows stream into the renderer, one row's exact integers at a time; the
    # text is whole before anything is written, so a refused row writes nothing
    rows = bounds_mod.table_rows(g_values, alphas, digits=args.precision)
    if args.format == "csv":
        text = bounds_mod.render_table_csv(rows)
    else:
        text = bounds_mod.render_table_json(rows)
    if args.out:
        with _writing(args.out):
            document_mod.write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors raise DomainError, cut by `cut_text`, so they exit 4 with
    one short `error:` line, not argparse's usage text and exit 2 ("not sparse")."""

    def error(self, message: str):
        raise DomainError(cut_text(message))


_IGNORED = "accepted and ignored, so older scripts still parse"


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sparse-curves",
        description=(
            "Construct sparse curve systems on high-genus surfaces, verify their "
            "exact crossing statistics and homology certificates, and tabulate "
            "size bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser(
        "construct", help="generate a curve system document for (g, alpha)"
    )
    p_construct.add_argument("--g", type=int, required=True, help="surface genus")
    p_construct.add_argument(
        "--alpha",
        required=True,
        help=(
            "threshold exponent as an exact fraction p/q in (-1, 1], "
            f"q <= {MAX_ALPHA_DENOMINATOR}"
        ),
    )
    p_construct.add_argument("--out", required=True, help="output JSON path")
    p_construct.add_argument("--analytic", action="store_true", help=_IGNORED)
    p_construct.set_defaults(func=_cmd_construct)

    p_verify = sub.add_parser(
        "verify", help="verify sparsity and the homology certificate of a document"
    )
    p_verify.add_argument("document", help="system document JSON path")
    p_verify.add_argument(
        "--f",
        default="gpow",
        help="sparsity threshold: an exact fraction p/q, or 'gpow' for g**alpha",
    )
    p_verify.add_argument("--out", help="write the annotated document here")
    p_verify.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="tabulate bounds over (g, alpha) grids")
    p_bounds.add_argument("--g", help="comma-separated genus list, e.g. 16,25,36")
    p_bounds.add_argument(
        "--g-range", help="log-spaced genus grid MIN:MAX:COUNT, e.g. 16:1000000:50"
    )
    p_bounds.add_argument(
        "--alpha",
        required=True,
        help=(
            "comma-separated exponents p/q in (-1, 1], q <= "
            f"{MAX_ALPHA_DENOMINATOR}, e.g. 0/1,1/2,1/1"
        ),
    )
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bounds.add_argument("--out", help="output path (stdout when omitted)")
    p_bounds.set_defaults(func=_cmd_bounds)

    # options that more than one command takes
    for p_command in (p_verify, p_bounds):
        p_command.add_argument(
            "--precision",
            type=int,
            default=DEFAULT_DIGITS,
            help=f"log-space digits, from 1 to {MAX_DIGITS}",
        )
        p_command.add_argument("--threads", type=int, default=1, help=_IGNORED)
    for p_command in (p_construct, p_bounds):
        p_command.add_argument("--cap", type=int, help=_IGNORED)
    return parser


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """argparse reads a value such as -1/3 as an option name; no option here
    starts with a digit, so after --alpha or --f, whose fractions may be
    negative, such a value is joined to the option (`--alpha -1/3` becomes
    `--alpha=-1/3`)."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in ("--alpha", "--f") and re.match(r"-[0-9]", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(
            _join_negative_values(sys.argv[1:] if argv is None else argv)
        )
        return args.func(args)
    except DocumentError as exc:
        return _fail(EXIT_IO, str(exc))
    except SparseCurvesError as exc:
        return _fail(EXIT_DOMAIN, str(exc))


if __name__ == "__main__":
    sys.exit(main())
