"""Workloads of the sparse-curves benchmark: inputs, references and output checks.

A workload is a list of CLI operations (one pass) plus a `prepare` step that
writes the inputs into a work directory and computes the references the
outputs are checked against.  References are computed here, outside the timed
operations.  Full families are checked against the closed form; the seeded
sub-family is checked against this file's own count of sign changes over
sorted pairs, so it stays independent of the production pairwise counter.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Optional, Sequence

from sparsecurves.intersections import necklace_family_crossings
from sparsecurves.surfaces import plan_composite

# Small CLI invocation run once per set-up: it starts the interpreter, imports
# every module and fills the bytecode cache before anything is timed.
WARMUP_ARGS = ("bounds", "--g", "16", "--alpha", "0/1")

Check = Callable[[str, Path], list[str]]


@dataclass
class Op:
    """One CLI invocation: `python -m sparsecurves.cli <args>` run in the work directory."""

    command: str  # construct | verify | bounds
    args: list[str]
    check: Check  # (stdout, work dir) -> list of problems, empty when the output is right
    writes: tuple[str, ...] = ()  # documents the op writes, relative to the work dir


@dataclass
class Workload:
    name: str
    why: str
    size: str
    prepare: Callable[[Path, int], list[Op]]  # (work dir, seed) -> the ops of one pass
    uses_seed: bool = False


@dataclass(frozen=True)
class Reference:
    """Expected figures of a system: plan, curve count, pair count and crossing total."""

    h: int
    h_prime: int
    curves: int
    crossings: int

    @property
    def pairs(self) -> int:
        return self.curves * (self.curves - 1) // 2


def full_family_reference(g: int, alpha: str) -> Reference:
    """h' copies of the full 4**(h-1) family, totalled by the closed form."""
    surface = plan_composite(g, Fraction(alpha))
    h, h_prime = surface.h, surface.h_prime
    return Reference(
        h=h,
        h_prime=h_prime,
        curves=h_prime * 4 ** (h - 1),
        crossings=h_prime * necklace_family_crossings(h),
    )


# ----------------------------------------------------------------------
# Output parsing
# ----------------------------------------------------------------------


def parse_fields(stdout: str) -> dict[str, str]:
    """Every `key=value` token of the CLI's stdout; a later token wins."""
    fields: dict[str, str] = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep:
            fields[key] = value
    return fields


def int_matches(text: object, expected: int) -> bool:
    """True when text states `expected`.

    Decimal integers must be equal.  A rendering that is not decimal (for
    integers past the int-to-str digit limit: a hex string in JSON, or a
    bit-length summary on stdout) must carry the value in hex or its bit length.
    """
    if isinstance(text, int):
        return text == expected
    if not isinstance(text, str) or not text:
        return False
    if text.isdigit():
        return int(text) == expected
    lowered = text.lower()
    hex_text = lowered[2:] if lowered.startswith("0x") else lowered
    if hex_text and all(ch in "0123456789abcdef" for ch in hex_text):
        return int(hex_text, 16) == expected
    return str(expected.bit_length()) in text


def _expect(problems: list[str], fields: dict[str, str], key: str, expected: object) -> None:
    value = fields.get(key)
    ok = int_matches(value, expected) if isinstance(expected, int) else value == expected
    if not ok:
        shown = value if value is None or len(value) <= 40 else value[:40] + "..."
        problems.append(f"{key}={shown}, expected {str(expected)[:40]}")


def check_construct(ref: Reference, analytic: bool) -> Check:
    def check(stdout: str, work: Path) -> list[str]:
        fields = parse_fields(stdout)
        problems: list[str] = []
        _expect(problems, fields, "curves", ref.curves)
        _expect(problems, fields, "h", ref.h)
        _expect(problems, fields, "hPrime", ref.h_prime)
        _expect(problems, fields, "analytic", "true" if analytic else "false")
        return problems

    return check


def check_verify(ref: Reference, *, out_doc: Optional[str] = None, holds: bool = False) -> Check:
    """Exact totals, `sparse=true`, `distinct=true`; optionally the annotated document
    and an inequality gate that must report `holds`."""

    def check(stdout: str, work: Path) -> list[str]:
        fields = parse_fields(stdout)
        problems: list[str] = []
        _expect(problems, fields, "curves", ref.curves)
        _expect(problems, fields, "crossings", ref.crossings)
        _expect(problems, fields, "pairs", ref.pairs)
        _expect(problems, fields, "sparse", "true")
        _expect(problems, fields, "distinct", "true")
        if holds:
            _expect(problems, fields, "status", "holds")
        if out_doc is not None:
            problems.extend(_check_annotated(work / out_doc, ref))
        return problems

    return check


def _check_annotated(path: Path, ref: Reference) -> list[str]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        report = data["report"]
        certificate = data["certificate"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable annotated document ({exc})"]
    problems = []
    if not int_matches(report.get("totalCrossings"), ref.crossings):
        problems.append(f"{path.name}: report.totalCrossings differs from the reference")
    if report.get("isSparse") is not True:
        problems.append(f"{path.name}: report.isSparse is not true")
    if certificate.get("distinct") is not True:
        problems.append(f"{path.name}: certificate.distinct is not true")
    return problems


# ----------------------------------------------------------------------
# Full family: construct, then verify the document
# ----------------------------------------------------------------------


def full_family(name: str, g: int, alpha: str, why: str) -> Workload:
    def prepare(work: Path, seed: int) -> list[Op]:
        ref = full_family_reference(g, alpha)
        doc = f"g{g}.json"
        return [
            Op(
                "construct",
                ["construct", "--g", str(g), "--alpha", alpha, "--out", doc],
                check_construct(ref, analytic=False),
                writes=(doc,),
            ),
            Op("verify", ["verify", doc], check_verify(ref)),
        ]

    ref = full_family_reference(g, alpha)
    size = f"{ref.curves} curves, {ref.pairs} pairs, {ref.h_prime} necklaces of {4 ** (ref.h - 1)} words"
    return Workload(name, why, size, prepare)


# ----------------------------------------------------------------------
# Seeded sub-family: a random half of each necklace's words
# ----------------------------------------------------------------------


def crossing_table(pieces: int) -> list[list[int]]:
    """table[a][b] = crossings of words a < b (indices in lexicographic order).

    A pair u < w crosses once per cyclic sign change of q_i = (u[i] <= w[i]).
    """
    words = list(product((1, 2, 3, 4), repeat=pieces))
    table = []
    for u in words:
        row = []
        for w in words:
            q = [x <= y for x, y in zip(u, w)]
            row.append(sum(q[i] != q[i - 1] for i in range(pieces)) if pieces > 1 else 0)
        table.append(row)
    return table


def subfamily_crossings(subsets: Sequence[Sequence[int]], table: list[list[int]]) -> int:
    """Total crossings of word-index subsets, one per necklace, each sorted ascending."""
    total = 0
    for subset in subsets:
        for i, a in enumerate(subset):
            row = table[a]
            total += sum(row[b] for b in subset[i + 1 :])
    return total


def draw_subsets(seed: int, necklaces: int, words: int, keep: int) -> list[list[int]]:
    """Pairwise-different random `keep`-subsets of range(words), one per necklace."""
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    subsets = []
    while len(subsets) < necklaces:
        subset = tuple(sorted(rng.sample(range(words), keep)))
        if subset not in seen:
            seen.add(subset)
            subsets.append(list(subset))
    return subsets


def subfamily_document(g: int, alpha: str, h: int, h_prime: int, subsets) -> dict:
    """Schema-1 system document listing the drawn words."""
    words = ["".join(map(str, w)) for w in product((1, 2, 3, 4), repeat=h - 1)]
    num, den = Fraction(alpha).numerator, Fraction(alpha).denominator
    return {
        "schemaVersion": 1,
        "surface": {
            "g": g,
            "alpha": f"{num}/{den}",
            "h": h,
            "hPrime": h_prime,
            "baseGenus": g - h * h_prime,
        },
        "analytic": False,
        "curves": [
            {"necklace": k, "word": words[i]} for k, subset in enumerate(subsets) for i in subset
        ],
        "report": None,
        "certificate": None,
    }


def subfamily(name: str, g: int, alpha: str, why: str) -> Workload:
    surface = plan_composite(g, Fraction(alpha))
    h, h_prime = surface.h, surface.h_prime
    words = 4 ** (h - 1)
    keep = words // 2

    def prepare(work: Path, seed: int) -> list[Op]:
        subsets = draw_subsets(seed, h_prime, words, keep)
        doc = subfamily_document(g, alpha, h, h_prime, subsets)
        (work / "subfamily.json").write_text(json.dumps(doc), encoding="utf-8")
        ref = Reference(
            h=h,
            h_prime=h_prime,
            curves=h_prime * keep,
            crossings=subfamily_crossings(subsets, crossing_table(h - 1)),
        )
        out = "subfamily-verified.json"
        return [
            Op(
                "verify",
                ["verify", "subfamily.json", "--out", out],
                check_verify(ref, out_doc=out),
                writes=(out,),
            )
        ]

    curves = h_prime * keep
    size = (
        f"{curves} curves, {curves * (curves - 1) // 2} pairs, "
        f"{h_prime} necklaces of {keep} of {words} words"
    )
    return Workload(name, why, size, prepare, uses_seed=True)


# ----------------------------------------------------------------------
# Bounds table over a (g, alpha) grid
# ----------------------------------------------------------------------


def grid_genera(g_range: str) -> list[int]:
    """The log-spaced genus grid `bounds --g-range MIN:MAX:COUNT` documents."""
    lo, hi, count = (int(x) for x in g_range.split(":"))
    if count == 1:
        return [lo]
    span = math.log(hi) - math.log(lo)
    return sorted({round(math.exp(math.log(lo) + span * i / (count - 1))) for i in range(count)})


def check_table(refs: dict[tuple[int, Fraction], Reference], out: str) -> Check:
    """Row set, both consistency flags, and every printed crossings cell."""

    def check(stdout: str, work: Path) -> list[str]:
        try:
            with open(work / out, newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
        except OSError as exc:
            return [f"{out}: {exc}"]
        problems = []
        if len(rows) != len(refs):
            problems.append(f"{len(rows)} rows, expected {len(refs)}")
        seen = set()
        for row in rows:
            try:
                key = (int(row["g"]), Fraction(row["alpha"]))
            except (KeyError, ValueError, ZeroDivisionError):
                problems.append(f"unparseable row {row}")
                continue
            seen.add(key)
            ref = refs.get(key)
            label = f"g={key[0]} alpha={key[1]}"
            if ref is None:
                problems.append(f"unexpected row {label}")
                continue
            for flag in ("lower_le_count", "lower_le_upper"):
                if row.get(flag) != "true":
                    problems.append(f"{label}: {flag}={row.get(flag)}")
            if row.get("h") != str(ref.h) or row.get("hPrime") != str(ref.h_prime):
                problems.append(f"{label}: h/hPrime differ from the plan")
            cell = row.get("crossings") or ""
            if cell and not int_matches(cell, ref.crossings):
                problems.append(f"{label}: crossings={cell[:40]} differs from the closed form")
        missing = set(refs) - seen
        if missing:
            problems.append(f"{len(missing)} expected rows missing")
        return problems[:20]

    return check


def bounds_grid(name: str, alphas: str, why: str, *, g_range: str = "", g_list: str = "") -> Workload:
    genera = grid_genera(g_range) if g_range else sorted({int(x) for x in g_list.split(",")})
    alpha_values = [Fraction(a) for a in alphas.split(",")]
    grid_args = ["--g-range", g_range] if g_range else ["--g", g_list]

    def prepare(work: Path, seed: int) -> list[Op]:
        refs = {(g, a): full_family_reference(g, str(a)) for g in genera for a in alpha_values}
        out = "grid.csv"
        return [
            Op(
                "bounds",
                ["bounds", *grid_args, "--alpha", alphas, "--out", out],
                check_table(refs, out),
                writes=(out,),
            )
        ]

    size = f"{len(genera) * len(alpha_values)} rows ({len(genera)} genera x {len(alpha_values)} exponents)"
    return Workload(name, why, size, prepare)


# ----------------------------------------------------------------------
# Counts-only (analytic) documents
# ----------------------------------------------------------------------


def analytic(name: str, genera: Sequence[int], alpha: str, why: str) -> Workload:
    def prepare(work: Path, seed: int) -> list[Op]:
        ops = []
        for g in genera:
            ref = full_family_reference(g, alpha)
            doc, out = f"a{g}.json", f"a{g}-verified.json"
            ops.append(
                Op(
                    "construct",
                    ["construct", "--g", str(g), "--alpha", alpha, "--analytic", "--out", doc],
                    check_construct(ref, analytic=True),
                    writes=(doc,),
                )
            )
            ops.append(
                Op(
                    "verify",
                    ["verify", doc, "--out", out],
                    check_verify(ref, out_doc=out, holds=True),
                    writes=(out,),
                )
            )
        return ops

    size = f"{2 * len(genera)} ops at g in {{{', '.join(str(g) for g in genera)}}}"
    return Workload(name, why, size, prepare)


WORKLOADS = {
    w.name: w
    for w in (
        full_family(
            "explicit-g196",
            196,
            "0/1",
            "full family, 28 necklaces x 4096 words: the explicit pairwise counter "
            "and the exhaustive homology certificate do most of the work",
        ),
        subfamily(
            "subfamily-g1000",
            1000,
            "-1/3",
            "seeded random half of each of 200 necklaces: the per-necklace cache never hits "
            "and no full-family shortcut applies; the homology certificate dominates",
        ),
        bounds_grid(
            "bounds-grid",
            "0/1,1/2,1/1",
            "README bounds example, 150 rows: planning, bound evaluation and certified "
            "comparison 150 times, no certificate or document built",
            g_range="16:1000000:50",
        ),
        analytic(
            "analytic-alpha1",
            (64, 4096, 10**4, 10**5, 10**6),
            "1/1",
            "counts-only path: closed form, certify_generated, the inequality gate and big-integer "
            "I/O; 5 of 10 ops hit the int-to-str digit limit",
        ),
    )
}
