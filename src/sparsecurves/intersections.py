"""Exact pairwise crossing numbers, three interchangeable ways.

Two curves on the same necklace cross only inside the annuli: within a piece
they run along disjoint arc channels (curves sharing an arc are nested in
lexicographic word order, identically on both sides of the piece), and in a
cut-open annulus both strands are monotone, so they cross exactly once iff
their endpoint orders on the two boundary circles disagree.  That gives at
most one crossing per annulus and zero crossings for curves on different
necklaces.

Three routes to the same totals:

  * pair_intersection / total_crossings_explicit - the interleaving rule,
    summed over annuli for one pair, and totalled over a whole sorted word
    set by one packed prefix count per annulus over its letter-pair bins,
    about N*n C-level steps for N words of length n, not pair by pair;
  * total_crossings_analytic - a closed form for the full 4**(h-1) family,
    obtained by classifying ordered pairs by their first differing letter;
  * oracle_crossings_pl - an actual piecewise-linear drawing in a planar net
    of the cut necklace, with crossings counted by exact segment
    intersection tests.  Nothing in its counting path reuses the
    interleaving comparison, so it serves as an independent check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from operator import and_, rshift
from typing import NamedTuple, Sequence

from .curves import EXPLICIT_WORD_LIMIT, Curve, CurveSystem, Word, validate_word
from .errors import DegenerateGeometryError, DomainError, SparseCurvesError
from .logspace import int_text
from .surfaces import ARC_LABELS, CompositeSurface


class BoundaryPosition(NamedTuple):
    """Position on a boundary circle: arc channel first, bundle rank within it."""

    arc: int
    rank: int


class AnnulusStrand(NamedTuple):
    """Monotone strand across a cut annulus, from left circle to right circle."""

    left: BoundaryPosition
    right: BoundaryPosition


def strands_cross(s1: AnnulusStrand, s2: AnnulusStrand) -> int:
    """1 iff the two monotone strands' endpoint orders disagree, else 0.

    Distinct curves occupy distinct positions on every boundary circle, so
    coincident endpoints mean the caller compared a strand with itself.
    """
    if s1.left == s2.left or s1.right == s2.right:
        raise DomainError(
            "strands of distinct curves must occupy distinct boundary positions"
        )
    return int((s1.left < s2.left) != (s1.right < s2.right))


def _pair_ranks(u: Word, w: Word, piece: int) -> tuple[int, int]:
    # Pair-local bundle ranks: nesting within a shared arc follows the
    # lexicographic order of the full words, so only the relative rank of the
    # two curves matters and it is independent of any other family members.
    if u[piece] != w[piece]:
        return 0, 0
    return (0, 1) if u < w else (1, 0)


def _check_pair(c1: Curve, c2: Curve, surface: CompositeSurface, caller: str) -> int:
    """The piece count n, once both words have n arc labels and the curves
    differ; DomainError says that `caller` needs two distinct curves."""
    n = surface.piece_count
    validate_word(c1.word, n)
    validate_word(c2.word, n)
    if c1 == c2:
        raise DomainError(f"{caller} needs two distinct curves")
    return n


def pair_intersection(c1: Curve, c2: Curve, surface: CompositeSurface) -> int:
    """Crossing number of two distinct curves in the drawn (minimal) position.

    Zero when the curves live on different necklaces; otherwise the sum over
    the h-1 annuli of the interleaving test, hence always at most h-1.
    """
    n = _check_pair(c1, c2, surface, "pair_intersection")
    if c1.necklace != c2.necklace:
        return 0
    total = 0
    for i in range(n):
        j = (i + 1) % n
        r1_i, r2_i = _pair_ranks(c1.word, c2.word, i)
        r1_j, r2_j = _pair_ranks(c1.word, c2.word, j)
        s1 = AnnulusStrand(
            BoundaryPosition(c1.word[i], r1_i), BoundaryPosition(c1.word[j], r1_j)
        )
        s2 = AnnulusStrand(
            BoundaryPosition(c2.word[i], r2_i), BoundaryPosition(c2.word[j], r2_j)
        )
        total += strands_cross(s1, s2)
    return total


# ----------------------------------------------------------------------
# Explicit totals
# ----------------------------------------------------------------------
#
# For two words u < w lexicographically, the strand of u precedes the strand
# of w on a boundary circle iff u[i] <= w[i] at the adjacent piece (ties are
# broken by the lexicographic nesting).  The pair crosses in annulus
# (i, i+1 mod n) iff q_i != q_{i+1} for q_k = (u[k] <= w[k]).  No grouping by
# shared prefix is needed to apply this to a whole sorted list: if the words
# first differ at d, an annulus with i+1 < d sees equal letters at both ends,
# and the one with i+1 = d has u[i] = w[i] and u[d] < w[d], so q holds at
# both ends of every annulus before d and the rule itself gives zero there
# (the wrapping annulus has i = n-1 >= d).  So each annulus total is the
# number of pairs, earlier word u before later word w in sorted order, with
# q_i != q_{i+1}, over all pairs.  Each word gets one of 16 bins for its
# letter pair.  A necklace's words are one packed string of letter codes
# (see CurveSystem), so letter column i is the slice blob[i::n]; read as a
# big-endian integer, the bins of an annulus are 4*column_i + column_{i+1},
# one byte per word, since no byte exceeds 4*4 + 4.  Each bin owns a 16-bit
# field of one Python int, and _ROW[c] counts an earlier word in bin c in the
# field of every bin it crosses, so one C-level `accumulate` over the bins
# gives every word its count of earlier crossing words for all 16 bins at
# once; each word then reads its own field.  A field holds the counts of at
# most 0xFFFF words, so a longer necklace is counted in blocks of that many
# words, the earlier blocks carried in by their bin histograms.  Annulus
# (0, 1) needs no pass: sorted words with equal first letters have ordered
# second letters, so its crossing pairs are exactly those with u[0] < w[0]
# and u[1] > w[1], a sum over bin histograms.  That is one pass of about
# N*n small-int steps for N words of length n, all exact int arithmetic,
# instead of the O(N*n**2) Python steps of a prefix-group histogram walk or
# the O(N**2*n) of a pair scan.

_PAIRS = {4 * x + y: (x, y) for x in range(1, 5) for y in range(1, 5)}
# (earlier bin, later bin) pairs that cross, and those of them that sorted
# words can form in annulus (0, 1)
_CROSSING = [
    (c, b)
    for b, (s, t) in _PAIRS.items()
    for c, (x, y) in _PAIRS.items()
    if (x <= s) != (y <= t)
]
_DISCORDANT = [(c, b) for c, b in _CROSSING if _PAIRS[c][0] < _PAIRS[b][0]]
# bin b owns the 16-bit field at bit _SHIFT[b] of a packed count
_SHIFT = bytes(16 * (c - 5) if c in _PAIRS else 0 for c in range(256))
_ROW = [0] * 256
for _c, _b in _CROSSING:
    _ROW[_c] += 1 << _SHIFT[_b]
_FIELD = 0xFFFF


def _block_crossings(bins: bytes) -> int:
    """Crossing pairs, earlier word before later word, of at most _FIELD bins."""
    prefix = accumulate(map(_ROW.__getitem__, bins))
    fields = map(rshift, prefix, bins.translate(_SHIFT))
    return sum(map(and_, fields, repeat(_FIELD)))


def _family_crossings_sorted(blob: bytes, n: int) -> int:
    """Total crossings over all unordered pairs of a sorted, duplicate-free
    packed family of words of length n."""
    count = len(blob) // n
    columns = [int.from_bytes(blob[i::n], "big") for i in range(n)]
    bins = ((columns[0] << 2) + columns[1 % n]).to_bytes(count, "big")
    hist = {b: bins.count(b) for b in _PAIRS}
    total = sum(hist[c] * hist[b] for c, b in _DISCORDANT)
    for i in range(1, n):
        bins = ((columns[i] << 2) + columns[(i + 1) % n]).to_bytes(count, "big")
        before = dict.fromkeys(_PAIRS, 0)  # bin histogram of the earlier blocks
        for start in range(0, count, _FIELD):
            block = bins[start : start + _FIELD]
            total += _block_crossings(block)
            if count > _FIELD:  # pairs across blocks
                hist = {b: block.count(b) for b in _PAIRS}
                total += sum(before[c] * hist[b] for c, b in _CROSSING)
                before = {b: before[b] + hist[b] for b in _PAIRS}
    return total


def _full_family_words(n: int) -> bytes:
    """The 4**n words of length n in ascending order, packed as a listed
    necklace: letter column i is (1^r 2^r 3^r 4^r) * 4**i for r = 4**(n-1-i)."""
    blob = bytearray(n << 2 * n)
    for i in range(n):
        r = 1 << 2 * (n - 1 - i)
        blob[i::n] = b"".join(bytes([a]) * r for a in ARC_LABELS) * (1 << 2 * i)
    return bytes(blob)


def total_crossings_explicit(system: CurveSystem) -> int:
    """Sum of pair_intersection over all unordered pairs of the system.

    Pairs on different necklaces contribute zero, so the sum decomposes into
    per-necklace totals, read from the system's packed per-necklace words;
    necklaces carrying identical word sets are computed once.  A full family
    is cross-checked on one listed necklace, packed column by column
    (`_full_family_words`), and refused before packing when it exceeds
    EXPLICIT_WORD_LIMIT words per necklace (`mode` "analytic").  A system's
    first repeated curve raises DomainError naming it.  The result is an
    exact big integer.
    """
    surface = system.surface
    if system.full:
        if system.mode == "analytic":
            raise DomainError(
                f"a full family of 4**{surface.piece_count} words per necklace "
                f"exceeds the explicit limit of {EXPLICIT_WORD_LIMIT}; "
                "it is counted in closed form"
            )
        one = CurveSystem.from_packed(surface, ((0, _full_family_words(surface.piece_count)),))
        return surface.h_prime * total_crossings_explicit(one)
    if system.first_repeat is not None:
        raise DomainError(f"duplicate curve {system.first_repeat}")
    total = 0
    cache: dict[bytes, int] = {}
    for _, blob in system.packed:
        if blob not in cache:
            cache[blob] = _family_crossings_sorted(blob, surface.piece_count)
        total += cache[blob]
    return total


# ----------------------------------------------------------------------
# Analytic totals
# ----------------------------------------------------------------------


def annulus_family_crossings(piece_count: int, annulus: int) -> int:
    """Crossing pairs of the full family inside one annulus, by direct summation.

    Ordered pairs u < w (lexicographically) are classified by the first
    position d where the words differ; letters matter only at d and at the
    two pieces adjacent to the annulus, every other position contributing a
    free factor.  Kept as an explicit sum as a validation layer between the
    pairwise rule and the closed form below.
    """
    n = piece_count
    if not (0 <= annulus < max(n, 1)):
        raise DomainError(f"annulus index {int_text(annulus)} outside [0, {int_text(n)})")
    if n < 2:
        return 0
    a = annulus
    if a < n - 1:
        total = 36 * 4 ** a * 16 ** (n - a - 2)
        total += 720 * sum(4 ** d * 16 ** (n - d - 3) for d in range(a))
        return total
    # wrapping annulus joining the last piece back to piece 0
    return 36 * sum(4 ** d * 16 ** (n - d - 2) for d in range(n - 1))


def necklace_family_crossings(h: int) -> int:
    """Closed-form total crossings of the full 4**(h-1) family on one necklace.

    Equals the sum of annulus_family_crossings over all annuli.  For
    n = h - 1 >= 2 pieces those sums collapse to 72*s1 + 720*s2, with
    s1 = (4**(2n-3) - 4**(n-2)) / 3 and
    s2 = (12(n-2) * 4**(2n-6) - 4**(2n-5) + 4**(n-3)) / 9, so the total is
    (960n - 704) * 4**(2n-6) - 4**(n-1) = 4**(n-1) * ((15n - 11) * 4**(n-2) - 1),
    which n = 2 also meets (72): two shifts of a small integer, cheap even
    when 4**(h-1) words could never be enumerated.
    """
    return _family_crossings(h, 1)


def _family_crossings(h: int, copies: int) -> int:
    """copies * necklace_family_crossings(h).  copies multiplies the small
    factor, so the last shift builds the only integer of the total's size."""
    if h < 2:
        raise DomainError(f"necklace genus must be >= 2, got {int_text(h)}")
    n = h - 1
    return 0 if n < 2 else ((copies * (15 * n - 11) << 2 * n - 4) - copies) << 2 * n - 2


def total_crossings_analytic(surface: CompositeSurface) -> int:
    """Closed-form total for the generated system: h' identical necklace families."""
    return _family_crossings(surface.h, surface.h_prime)


def total_crossings(system: CurveSystem) -> int:
    """The exact total of any system, by the one counting rule.

    A listed system is totalled by the explicit counter.  A full family is
    totalled by the closed form and, when `system.mode` is "explicit", counted
    again by the explicit counter; a disagreement is an error.
    """
    if not system.full:
        return total_crossings_explicit(system)
    total = total_crossings_analytic(system.surface)
    if system.mode == "explicit":
        explicit = total_crossings_explicit(system)
        if explicit != total:
            raise SparseCurvesError(
                f"explicit total {explicit} disagrees with the closed form {total}"
            )
    return total


# ----------------------------------------------------------------------
# Piecewise-linear drawing oracle
# ----------------------------------------------------------------------


def _orient(p, q, r) -> int:
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def _in_box(p, q, r) -> bool:
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


class _Degenerate(Exception):
    pass


def _segment_relation(a1, a2, b1, b2) -> int:
    """1 for a proper transverse crossing, 0 for disjoint, raises on contact."""
    o1 = _orient(a1, a2, b1)
    o2 = _orient(a1, a2, b2)
    o3 = _orient(b1, b2, a1)
    o4 = _orient(b1, b2, a2)
    if o1 and o2 and o3 and o4:
        return 1 if (o1 != o2 and o3 != o4) else 0
    if o1 == 0 and _in_box(a1, a2, b1):
        raise _Degenerate
    if o2 == 0 and _in_box(a1, a2, b2):
        raise _Degenerate
    if o3 == 0 and _in_box(b1, b2, a1):
        raise _Degenerate
    if o4 == 0 and _in_box(b1, b2, a2):
        raise _Degenerate
    return 0


def _polyline(word: Word, ranks: Sequence[int], steps: int, shift):
    """Sampled closed path of one curve through the cut-open necklace net.

    Piece k occupies the x-column [2k*W, (2k+1)*W] and annulus k the column
    to its right, W = steps; every run is subdivided into `steps` unit-width
    sub-segments, so all coordinates are integers (plus the exact rational
    `shift` on perturbed curves).  The path starts and ends at the same
    height: the last annulus returns to the piece-0 entry position.
    """
    n = len(word)
    w = steps

    def height(piece: int):
        return (4 * word[piece] + ranks[piece]) * w + shift

    points = [(0, height(0))]
    x = 0
    for k in range(n):
        for target_y in (height(k), height((k + 1) % n)):
            y0 = points[-1][1]
            dy = target_y - y0
            for t in range(1, w + 1):
                if shift == 0:
                    y = y0 + dy * t // w  # heights are multiples of w: exact
                else:
                    y = y0 + dy * Fraction(t, w)
                points.append((x + t, y))
            x += w
    return points


def _segments_by_column(points):
    columns: dict[int, list] = {}
    for i in range(len(points) - 1):
        seg = (points[i], points[i + 1])
        columns.setdefault(min(seg[0][0], seg[1][0]), []).append(seg)
    return columns


def _count_drawing_crossings(points1, points2) -> int:
    cols1 = _segments_by_column(points1)
    cols2 = _segments_by_column(points2)
    crossings = 0
    for col, segs2 in cols2.items():
        for a1, a2 in cols1.get(col, ()):
            for b1, b2 in segs2:
                crossings += _segment_relation(a1, a2, b1, b2)
    return crossings


def oracle_crossings_pl(
    c1: Curve, c2: Curve, surface: CompositeSurface, resolution: int = 8
) -> int:
    """Crossing count of two same-necklace curves from an actual drawing.

    Both curves are drawn as piecewise-linear closed paths in a planar net of
    the cut-open necklace and crossings are counted by exact integer segment
    intersection predicates.  Monotone strands and disjoint arc channels keep
    the drawing free of bigons, so the count is already minimal.  Coincident
    geometry (a crossing landing exactly on a sample point) triggers one
    deterministic rank-indexed perturbation of the second curve; geometry
    still degenerate after that is an error.
    """
    if resolution < 4:
        raise DomainError(f"resolution must be >= 4 sample points, got {int_text(resolution)}")
    n = _check_pair(c1, c2, surface, "oracle")
    if c1.necklace != c2.necklace:
        raise DomainError("oracle compares curves on the same necklace")
    steps = resolution - 1
    ranks1 = []
    ranks2 = []
    for i in range(n):
        r1, r2 = _pair_ranks(c1.word, c2.word, i)
        ranks1.append(r1)
        ranks2.append(r2)
    points1 = _polyline(c1.word, ranks1, steps, 0)
    try:
        return _count_drawing_crossings(points1, _polyline(c2.word, ranks2, steps, 0))
    except _Degenerate:
        pass
    # Perturb the second curve by less than half the channel gap: every
    # boundary order is preserved, so the crossing count is unchanged.
    delta = Fraction(1, 3 + sum(ranks2))
    try:
        return _count_drawing_crossings(
            points1, _polyline(c2.word, ranks2, steps, delta)
        )
    except _Degenerate:
        raise DegenerateGeometryError(
            f"degenerate drawing geometry for {c1} vs {c2} after perturbation"
        ) from None
