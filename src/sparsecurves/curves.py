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
words are kept.  `CurveSystem` alone reads words out of these strings: its
first repeated curve, whether it holds a curve, and its curves in order.  The
counter reads them only as letter columns and the document writer only copies
them; `Curve` objects are built only for a repeat, a membership test or when
a system's curves are read.  A full family is listed, when it is, lazily from
the Cartesian power.

A system is f-sparse when its average pairwise crossing number is at most f,
i.e. cr <= f * C(size, 2).  The verdict is always decided by exact
cross-multiplied integer comparisons, including for thresholds of the form
g**alpha with irrational value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import eq
from typing import Iterator, NamedTuple, Optional

from .errors import DomainError
from .exactint import le_scaled_power, parse_fraction
from .surfaces import ARC_LABELS, CompositeSurface

Word = tuple[int, ...]

# A full family with at most this many words per necklace is also counted by
# the explicit counter, as a cross-check of the closed form; a larger one is
# refused by the counter before a word is listed.  The counter takes about
# N*n C-level steps for N words of length n, so each step up (4x the words)
# costs every bounds-table row of that size over 4x the time.
EXPLICIT_WORD_LIMIT = 4096


class Curve(NamedTuple):
    """One curve: which necklace it lives on, and its arc-word."""

    necklace: int
    word: Word

    def __str__(self) -> str:
        """The curve as `necklace:word`, e.g. 3:4333."""
        return f"{self.necklace}:{''.join(map(str, self.word))}"


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


class CurveSystem:
    """A set of curves on a composite surface.

    A `full` system is the generated family, h' necklaces each carrying all
    4**(h-1) words; it is described rather than listed, so `packed` and
    `curves` stay empty.  Any other system lists its curves in `packed`: one
    (necklace, blob) pair per necklace that carries curves, necklaces
    ascending, where the blob is that necklace's words in ascending order,
    each as n = h-1 letter codes 1-4, joined into one `bytes` string.
    Repeated curves are kept, and `first_repeat` names the first of them.
    Curves given to the constructor are checked with `check_curve` and packed
    whatever order they were given in; `from_packed` takes strings a caller
    has already checked and sorted.  This class alone reads words out of the
    packed strings (`first_repeat`, `holds`, `iter_curves`).  `curves`
    derives the canonical (necklace, word) tuple of `Curve`s on first use.
    Systems are equal when their surface, packed words and `full` flag are;
    they refuse attribute assignment.
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

    def _key(self) -> tuple:
        return self.surface, self.packed, self.full

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"CurveSystem(surface={self.surface!r}, packed={self.packed!r}, "
            f"full={self.full!r})"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

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

    @cached_property
    def first_repeat(self) -> Optional[Curve]:
        """The first curve, in (necklace, word) order, that is listed twice, or
        None when the curves are distinct; a full family has no repeat."""
        n = self.surface.piece_count
        for necklace, blob in self.packed:
            words = [blob[i : i + n] for i in range(0, len(blob), n)]
            k = bytes(map(eq, words, words[1:])).find(1)
            if k >= 0:
                return Curve(necklace, tuple(words[k]))
        return None

    def holds(self, curve: Curve) -> bool:
        """True iff `curve` is a curve of the system: any checked curve of a
        full family, or one of the words listed on its necklace."""
        try:
            check_curve(curve, self.surface)
        except DomainError:
            return False
        if self.full:
            return True
        n, word = self.surface.piece_count, bytes(curve.word)
        blob = dict(self.packed).get(curve.necklace, b"")
        i = blob.find(word)
        while i >= 0 and i % n:  # a match straddling two words
            i = blob.find(word, i + 1)
        return i >= 0

    def iter_curves(self) -> Iterator[Curve]:
        """Every curve in canonical (necklace, word) order, built lazily; each
        necklace of a full family carries the whole Cartesian power."""
        n = self.surface.piece_count
        if self.full:
            return (
                Curve(k, word)
                for k in range(self.surface.h_prime)
                for word in product(ARC_LABELS, repeat=n)
            )
        return (
            Curve(k, tuple(blob[i : i + n]))
            for k, blob in self.packed
            for i in range(0, len(blob), n)
        )


def generate_system(surface: CompositeSurface) -> CurveSystem:
    """The full family, h' * 4**(h-1) distinct curves, described without a list."""
    return CurveSystem(surface=surface, full=True)


class SparsityThreshold(NamedTuple):
    """Average-crossing threshold: an exact rational f, or the power g**alpha."""

    kind: str  # "rational" | "power"
    value: Fraction

    @staticmethod
    def rational(value: Fraction | int | str) -> "SparsityThreshold":
        value = parse_fraction(value)
        if value <= 0:
            raise DomainError(f"threshold must be positive, got {value}")
        return SparsityThreshold("rational", value)

    @staticmethod
    def power(alpha: Fraction | int | str) -> "SparsityThreshold":
        return SparsityThreshold("power", parse_fraction(alpha))

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


class CrossingReport(NamedTuple):
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
