"""First-homology certificates of pairwise non-isotopy.

Curves with distinct homology classes cannot be isotopic, so exhibiting
pairwise-distinct classes certifies a family as a genuine curve system.  The
class of a curve is assembled blockwise in a basis with two generators per
handle, ordered by (necklace, piece, generator) with one extra cycle handle
per necklace and the base handles last: piece i contributes the offset of the
chosen arc relative to arc 1, and the traversal of the necklace cycle
contributes one longitude generator, so no curve is null-homologous.

Only injectivity of the arc-offset table matters for the certificate; the
four arcs are assigned the four distinct offsets (0,0), (1,0), (0,1), (1,1).
The check is sufficient for non-isotopy, not a full isotopy decision.
`certify_distinct` takes any system: a full family is certified by its
construction (method "construction"), a listed one curve by curve (method
"exhaustive").
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .curves import Curve, CurveSystem, check_curve
from .errors import DomainError
from .surfaces import CompositeSurface, plan_composite

ARC_OFFSETS: dict[int, tuple[int, int]] = {
    1: (0, 0),
    2: (1, 0),
    3: (0, 1),
    4: (1, 1),
}


class HomologyClass(NamedTuple):
    """Integer coordinates of a curve's class, length 2g."""

    coefficients: tuple[int, ...]


def curve_class(curve: Curve, surface: CompositeSurface) -> HomologyClass:
    """Class of one curve: per-piece arc offsets plus one longitude per traversal."""
    check_curve(curve, surface)
    coords = [0] * (2 * surface.g)
    base = curve.necklace * 2 * surface.h
    for i, letter in enumerate(curve.word):
        dx, dy = ARC_OFFSETS[letter]
        coords[base + 2 * i] = dx
        coords[base + 2 * i + 1] = dy
    # the cycle handle of this necklace records the single longitude traversal
    coords[base + 2 * (surface.h - 1)] = 1
    return HomologyClass(tuple(coords))


class DistinctnessCertificate(NamedTuple):
    distinct: bool
    method: str  # "exhaustive" | "construction"
    collision: Optional[tuple[Curve, Curve]] = None


def certify_distinct(system: CurveSystem) -> DistinctnessCertificate:
    """Certify that the system's curve classes are pairwise distinct.

    A full family is certified by its construction (`certify_generated`),
    without listing a curve.  A listed system is checked exhaustively: a
    failure witness is the system's `first_repeat`, the first curve in
    (necklace, word) order that is listed twice, paired with itself.  The
    system's words were checked when it was built, and no class vector is
    built: the work is proportional to the words, not to the genus, and is
    shared with the explicit counter, which scans for the same repeat.
    """
    if system.full:
        return certify_generated(system.surface)
    # Classes are compared through the curves themselves.  curve_class writes
    # a curve's arc offsets and its longitude 1 only into the block of its own
    # necklace (2h coordinates at 2h*necklace; the blocks are disjoint since
    # h*h' <= g), and ARC_OFFSETS is injective, so two checked curves have
    # equal classes exactly when they have equal necklaces and equal words.
    curve = system.first_repeat
    if curve is not None:
        return DistinctnessCertificate(
            distinct=False, method="exhaustive", collision=(curve, curve)
        )
    return DistinctnessCertificate(distinct=True, method="exhaustive")


def certify_generated(surface: CompositeSurface) -> DistinctnessCertificate:
    """Certificate for a generated family stated without enumeration.

    For the full word family the class map is injective per necklace (the
    offsets are injective blockwise) and necklaces occupy disjoint coordinate
    blocks, each nonzero through the longitude entry; distinctness follows
    without listing the curves.  It certifies the construction of (g, alpha):
    a surface other than `plan_composite(g, alpha)` raises DomainError.
    """
    if surface != plan_composite(surface.g, surface.alpha):
        raise DomainError("surface is not the plan of its g and alpha")
    return DistinctnessCertificate(distinct=True, method="construction")
