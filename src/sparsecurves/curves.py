"""Curve families as arc-words, and the sparsity definitions.

A curve on a necklace with n = h-1 pieces is an arc-word in {1,2,3,4}**n:
letter i selects one of the four fixed arcs in piece i, and consecutive arcs
are joined by monotone strands through the annuli.  The full family on one
necklace is the whole Cartesian power (4**n words); the system on the
composite surface is that family repeated on each of the h' necklaces, so it
has h' * 4**(h-1) curves in total.

A system either describes the full family or lists its curves.  A listed
system holds, for each necklace that carries curves, one sorted `bytes` string
of N*n letter codes 1-4: word k is the slice [k*n, (k+1)*n), and repeated
words are kept.  The loader, the counter, the certificate and the document
writer work on these strings; `Curve` objects are built only for a collision
witness or when a system's `curves` is read.

A system is f-sparse when its average pairwise crossing number is at most f,
i.e. cr <= f * C(size, 2).  The verdict is always decided by exact
cross-multiplied integer comparisons, including for thresholds of the form
g**alpha with irrational value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from operator import eq
from typing import Iterator, NamedTuple, Optional

from .errors import DomainError, EnumerationCapError
from .exactint import le_scaled_power
from .surfaces import ARC_LABELS, CompositeSurface

Word = tuple[int, ...]

# Beyond this many words per necklace generate_necklace_family refuses to
# list a family; a full family is still described and counted in closed form.
DEFAULT_WORD_CAP = 2 ** 24

# A full family with at most this many words per necklace is also counted by
# the explicit counter, as a cross-check of the closed form.  The counter
# takes about N*n C-level steps for N words of length n, so each step up (4x
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
    # 4**(h-1) > cap exactly when 2*(h-1) reaches the cap's bit length
    if 2 * (h - 1) >= cap.bit_length():
        raise EnumerationCapError(
            f"4**(h-1) words exceed the enumeration cap {cap}; "
            "use analytic counting"
        )
    return list(product(ARC_LABELS, repeat=h - 1))


def necklace_family_blob(h: int) -> bytes:
    """The same words packed as one string of letter codes, already sorted."""
    return bytes(chain.from_iterable(generate_necklace_family(h)))


def repeated_word(blob: bytes, n: int) -> Optional[bytes]:
    """The first word of a sorted packed word string that equals the word after
    it, or None when its words are distinct."""
    words = [blob[i : i + n] for i in range(0, len(blob), n)]
    k = bytes(map(eq, words, words[1:])).find(1)
    return None if k < 0 else words[k]


@dataclass(frozen=True, init=False)
class CurveSystem:
    """A set of curves on a composite surface.

    A `full` system is the generated family, h' necklaces each carrying all
    4**(h-1) words; it is described rather than listed, so `packed` and
    `curves` stay empty.  Any other system lists its curves in `packed`: one
    (necklace, blob) pair per necklace that carries curves, necklaces
    ascending, where the blob is that necklace's words in ascending order,
    each as n = h-1 letter codes 1-4, joined into one `bytes` string.
    Repeated curves are kept, for `homology.certify_distinct` to report.
    Curves given to the constructor are checked with `check_curve` and packed
    whatever order they were given in; `from_packed` takes strings a caller
    has already checked and sorted.  `curves` derives the canonical
    (necklace, word) tuple of `Curve`s on first use.
    """

    surface: CompositeSurface
    packed: tuple[tuple[int, bytes], ...]
    full: bool

    def __init__(
        self, surface: CompositeSurface, curves: tuple[Curve, ...] = (), full: bool = False
    ) -> None:
        for curve in curves:
            check_curve(curve, surface)
        groups: dict[int, list[bytes]] = {}
        for necklace, word in sorted(curves):
            groups.setdefault(necklace, []).append(bytes(word))
        packed = tuple((k, b"".join(words)) for k, words in groups.items())
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "full", full)

    @classmethod
    def from_packed(
        cls, surface: CompositeSurface, packed: tuple[tuple[int, bytes], ...]
    ) -> "CurveSystem":
        """A listed system from per-necklace blobs that are already in range,
        of whole words, sorted, and in ascending necklace order."""
        system = cls(surface)
        object.__setattr__(system, "packed", packed)
        return system

    @cached_property
    def curves(self) -> tuple[Curve, ...]:
        """The listed curves in canonical (necklace, word) order; () for a full family."""
        return () if self.full else tuple(self.iter_curves())

    @property
    def curve_count(self) -> int:
        if self.full:
            return self.surface.h_prime << 2 * (self.surface.h - 1)
        return sum(len(blob) for _, blob in self.packed) // self.surface.piece_count

    @property
    def pair_count(self) -> int:
        if self.full:
            # C(n, 2) for n = h' * 4**(h-1), as shifts: no multi-million-bit product
            h_prime, e = self.surface.h_prime, 2 * (self.surface.h - 1)
            return ((h_prime * h_prime) << (2 * e - 1)) - (h_prime << (e - 1))
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
        """Every curve in canonical (necklace, word) order, built lazily; a full
        family's necklaces all carry the whole generated family."""
        n = self.surface.piece_count
        packed = self.packed
        if self.full:
            blob = necklace_family_blob(self.surface.h)
            packed = ((k, blob) for k in range(self.surface.h_prime))
        for necklace, blob in packed:
            for i in range(0, len(blob), n):
                yield Curve(necklace, tuple(blob[i : i + n]))


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
