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

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from operator import itemgetter
from typing import Iterator, NamedTuple

from .errors import DomainError, EnumerationCapError
from .exactint import le_scaled_power
from .surfaces import ARC_LABELS, CompositeSurface

Word = tuple[int, ...]

# Beyond this many words per necklace generate_necklace_family refuses to
# list a family; a full family is still described and counted in closed form.
DEFAULT_WORD_CAP = 2 ** 24

# A full family with at most this many words per necklace is also counted by
# the explicit counter, as a cross-check of the closed form.  The counter
# takes about 16*N*n byte steps for N words of length n, so each step up (4x
# the words) costs every bounds-table row of that size over 4x the time.
EXPLICIT_WORD_LIMIT = 4096


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


def check_curve(curve: Curve, surface: CompositeSurface) -> None:
    """DomainError unless the curve has h-1 arc labels on one of the h' necklaces."""
    validate_word(curve.word, surface.piece_count)
    if not (isinstance(curve.necklace, int) and 0 <= curve.necklace < surface.h_prime):
        raise DomainError(
            f"necklace index {curve.necklace} outside [0, {surface.h_prime})"
        )


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


@dataclass(frozen=True)
class CurveSystem:
    """A set of curves on a composite surface.

    A `full` system is the generated family, h' necklaces each carrying all
    4**(h-1) words; it is described rather than listed, so `curves` stays
    empty.  Any other system lists its curves: each one is checked with
    `check_curve` when the system is built, and `curves` holds them in
    canonical (necklace, word) order, whatever order they were given in.
    Repeated curves are kept, for `homology.certify_distinct` to report.
    """

    surface: CompositeSurface
    curves: tuple[Curve, ...] = ()
    full: bool = False

    def __post_init__(self) -> None:
        for curve in self.curves:
            check_curve(curve, self.surface)
        object.__setattr__(self, "curves", tuple(sorted(self.curves)))

    @property
    def curve_count(self) -> int:
        if self.full:
            return self.surface.h_prime << 2 * (self.surface.h - 1)
        return len(self.curves)

    @property
    def pair_count(self) -> int:
        n = self.curve_count
        return n * (n - 1) // 2

    @property
    def mode(self) -> str:
        """The route of the total: "explicit" when the explicit counter runs on
        the system, "analytic" when only the closed form does."""
        # 4**(h-1) > limit exactly when 2*(h-1) reaches the limit's bit length
        if self.full and 2 * (self.surface.h - 1) >= EXPLICIT_WORD_LIMIT.bit_length():
            return "analytic"
        return "explicit"

    def iter_curves(self) -> Iterator[Curve]:
        """Every curve in canonical (necklace, word) order; a full family is
        generated lazily."""
        if not self.full:
            return iter(self.curves)
        words = generate_necklace_family(self.surface.h)
        return (Curve(k, w) for k in range(self.surface.h_prime) for w in words)

    def necklace_words(self) -> Iterator[tuple[int, tuple[Word, ...]]]:
        """Each necklace that carries listed curves, ascending, with its words
        in ascending order, repeats included."""
        for necklace, group in groupby(self.curves, key=itemgetter(0)):
            yield necklace, tuple(word for _, word in group)


def generate_system(surface: CompositeSurface) -> CurveSystem:
    """The full family, h' * 4**(h-1) distinct curves, described without a list."""
    return CurveSystem(surface=surface, full=True)


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
    """Exact crossing totals of a system together with its sparsity verdict.

    The average is not stored: reducing multi-million-bit totals costs
    seconds, so it is derived only where it is shown or written.
    """

    total_crossings: int
    pair_count: int
    threshold: SparsityThreshold
    is_sparse: bool
    mode: str  # "explicit" | "analytic"

    @property
    def average(self) -> Fraction:
        """Average pairwise crossing number, in lowest terms."""
        return Fraction(self.total_crossings, self.pair_count)


def verify_sparsity(
    system: CurveSystem, threshold: SparsityThreshold
) -> CrossingReport:
    """Exact crossing report for a system against the given threshold.

    Totals come from `intersections.total_crossings`; the verdict never
    touches floating point.
    """
    from . import intersections

    count = system.curve_count
    if count < 2:
        raise DomainError(
            f"average crossing number undefined for {count} curve(s): C(n,2) = 0"
        )
    crossings = intersections.total_crossings(system)
    pairs = system.pair_count
    return CrossingReport(
        total_crossings=crossings,
        pair_count=pairs,
        threshold=threshold,
        is_sparse=threshold.admits(crossings, pairs, system.surface.g),
        mode=system.mode,
    )


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
