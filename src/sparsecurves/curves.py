"""Curve families as arc-words, and the sparsity definitions.

A curve on a necklace with n = h-1 pieces is an arc-word in {1,2,3,4}**n:
letter i selects one of the four fixed arcs in piece i, and consecutive arcs
are joined by monotone strands through the annuli.  The full family on one
necklace is the whole Cartesian power (4**n words); the system on the
composite surface is that family repeated on each of the h' necklaces, so it
has h' * 4**(h-1) curves in total.

A system is f-sparse when its average pairwise crossing number is at most f,
i.e. cr <= f * C(size, 2).  The verdict is always decided by exact
cross-multiplied integer comparisons, including for thresholds of the form
g**alpha with irrational value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Optional

from .errors import DomainError, EnumerationCapError
from .exactint import le_scaled_power
from .surfaces import ARC_LABELS, CompositeSurface

Word = tuple[int, ...]

# Beyond this many words per necklace families are not enumerated; callers
# must use the analytic counting path.
DEFAULT_WORD_CAP = 2 ** 24


class Curve(NamedTuple):
    """One curve: which necklace it lives on, and its arc-word."""

    necklace: int
    word: Word


def validate_word(word: Word, piece_count: int) -> None:
    if len(word) != piece_count:
        raise DomainError(
            f"word length {len(word)} does not match piece count {piece_count}"
        )
    for letter in word:
        if letter not in ARC_LABELS:
            raise DomainError(f"arc label must be in {ARC_LABELS}, got {letter}")


def generate_necklace_family(h: int, *, cap: int = DEFAULT_WORD_CAP) -> list[Word]:
    """All 4**(h-1) arc-words on a genus-h necklace, in lexicographic order."""
    if h < 2:
        raise DomainError(f"necklace genus must be >= 2, got {h}")
    count = 4 ** (h - 1)
    if count > cap:
        raise EnumerationCapError(
            f"4**(h-1) = {count} words exceed the enumeration cap {cap}; "
            "use analytic counting"
        )
    return list(product(ARC_LABELS, repeat=h - 1))


@dataclass
class CurveSystem:
    """A set of curves on a composite surface, with a write-once crossing report.

    Curves are kept in canonical (necklace, word) order.  `analytic` systems
    carry no explicit curve list; their size is the construction count
    h' * 4**(h-1) and their totals come from the closed-form counter.
    """

    surface: CompositeSurface
    curves: tuple[Curve, ...]
    analytic: bool = False
    report: Optional["CrossingReport"] = field(default=None, compare=False)

    @property
    def curve_count(self) -> int:
        if self.analytic:
            return self.surface.h_prime * 4 ** (self.surface.h - 1)
        return len(self.curves)

    @property
    def pair_count(self) -> int:
        n = self.curve_count
        return n * (n - 1) // 2

    def check_invariants(self) -> None:
        seen = set()
        for curve in self.curves:
            validate_word(curve.word, self.surface.piece_count)
            if not (0 <= curve.necklace < self.surface.h_prime):
                raise DomainError(
                    f"necklace index {curve.necklace} outside [0, {self.surface.h_prime})"
                )
            if curve in seen:
                raise DomainError(f"duplicate curve {curve}")
            seen.add(curve)


def generate_system(
    surface: CompositeSurface, *, cap: int = DEFAULT_WORD_CAP
) -> CurveSystem:
    """The full family on every necklace: h' * 4**(h-1) distinct curves."""
    words = generate_necklace_family(surface.h, cap=cap)
    curves = tuple(
        Curve(k, word) for k in range(surface.h_prime) for word in words
    )
    return CurveSystem(surface=surface, curves=curves)


def generate_system_analytic(surface: CompositeSurface) -> CurveSystem:
    """Counts-only stand-in for families too large to enumerate."""
    return CurveSystem(surface=surface, curves=(), analytic=True)


@dataclass(frozen=True)
class SparsityThreshold:
    """Average-crossing threshold: an exact rational f, or the power g**alpha."""

    kind: str  # "rational" | "power"
    value: Fraction

    @staticmethod
    def rational(value: Fraction | int | str) -> "SparsityThreshold":
        value = Fraction(value)
        if value <= 0:
            raise DomainError(f"threshold must be positive, got {value}")
        return SparsityThreshold("rational", value)

    @staticmethod
    def power(alpha: Fraction | int | str) -> "SparsityThreshold":
        return SparsityThreshold("power", Fraction(alpha))

    def admits(self, crossings: int, pair_count: int, g: int) -> bool:
        """Decide crossings <= f(g) * pair_count exactly."""
        if self.kind == "rational":
            return (
                crossings * self.value.denominator
                <= self.value.numerator * pair_count
            )
        return le_scaled_power(crossings, pair_count, g, self.value)

    def describe(self) -> str:
        if self.kind == "rational":
            return str(self.value)
        return f"g^{self.value}"


@dataclass(frozen=True)
class CrossingReport:
    """Exact crossing totals of a system together with its sparsity verdict."""

    total_crossings: int
    pair_count: int
    average: Fraction
    threshold: SparsityThreshold
    is_sparse: bool
    mode: str  # "explicit" | "analytic"


def verify_sparsity(
    system: CurveSystem, threshold: SparsityThreshold
) -> CrossingReport:
    """Exact crossing report for a system against the given threshold.

    Explicit systems are totalled over their word sets; analytic systems use
    the closed-form total.  The verdict never touches floating point.
    """
    from . import intersections

    count = system.curve_count
    if count < 2:
        raise DomainError(
            f"average crossing number undefined for {count} curve(s): C(n,2) = 0"
        )
    if system.analytic:
        crossings = intersections.total_crossings_analytic(system.surface)
        mode = "analytic"
    else:
        crossings = intersections.total_crossings_explicit(system)
        mode = "explicit"
    pairs = system.pair_count
    report = CrossingReport(
        total_crossings=crossings,
        pair_count=pairs,
        average=Fraction(crossings, pairs),
        threshold=threshold,
        is_sparse=threshold.admits(crossings, pairs, system.surface.g),
        mode=mode,
    )
    if system.report is None:
        system.report = report
    return report


def sparsity_chain_check(
    crossings: int, pair_count: int, surface: CompositeSurface
) -> tuple[bool, bool]:
    """Exact check of the two-step chain cr/C <= (h-1)/h' <= (1/2) g**alpha.

    Returns (ratio <= (h-1)/h', (h-1)/h' <= g**alpha / 2), both decided by
    cross-multiplication / cross-raising to integer powers.
    """
    h, h_prime = surface.h, surface.h_prime
    first = crossings * h_prime <= (h - 1) * pair_count
    second = le_scaled_power(2 * (h - 1), h_prime, surface.g, surface.alpha)
    return first, second
