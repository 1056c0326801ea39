"""Combinatorial surface models: cyclic necklaces and composite surfaces.

A necklace of genus h is a cycle of h-1 pieces (each a torus with two
boundary circles) alternating with h-1 annuli; annulus i joins the right
boundary of piece i to the left boundary of piece (i+1) mod (h-1).  Each
piece contributes Euler characteristic -2 and each annulus 0, so the closed
assembled surface has characteristic 2-2h, i.e. genus h.

A composite surface of genus g carries h' pairwise-disjoint necklaces of
genus h plus a base surface absorbing the leftover genus g - h*h'.  Curves
never leave their necklace, so the base is tracked by its genus only; its
gluing combinatorics play no role in any count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .exactint import (
    DECIMAL_DIGIT_LIMIT,
    fits_decimal,
    floor_scaled_power,
    genus_admissible,
    min_admissible_genus,
    parse_fraction,
)

ARC_LABELS = (1, 2, 3, 4)

# Largest necklace genus a plan may have.  Every count is an exact integer in
# memory: h' * 4**(h-1) curves has about 2h bits and a crossing total about 4h,
# so past this bound one total would outgrow 4*10**8 bits (50 MB) and the plan
# is refused before anything is computed.  h <= g/2, so every g up to 2*10**8
# plans at every alpha.
MAX_NECKLACE_GENUS = 10 ** 8

# Largest denominator q of an alpha = p/q.  Planning raises g to the power
# p+q and takes 2q-th roots, and a g**alpha sparsity verdict raises the totals
# to the q-th power, so the cost grows fast with q.  On a 2-core x86 host, at
# q = 1000 a bounds row at g = 10**6 takes about 0.5 s (1.1 s at worst over 40
# numerators); at q = 10**4 one plan alone can take a minute.
MAX_ALPHA_DENOMINATOR = 1000


def check_alpha(alpha: Fraction) -> None:
    """DomainError unless alpha lies in (-1, 1] with a denominator of at most
    MAX_ALPHA_DENOMINATOR."""
    q = alpha.denominator
    if q > MAX_ALPHA_DENOMINATOR:
        shown = q if fits_decimal(q) else f"one of {q.bit_length()} bits"
        raise DomainError(
            f"alpha needs a denominator of at most {MAX_ALPHA_DENOMINATOR}, got {shown}"
        )
    if not (Fraction(-1) < alpha <= Fraction(1)):
        shown = (
            alpha
            if fits_decimal(alpha.numerator)
            else f"a numerator past {DECIMAL_DIGIT_LIMIT} digits"
        )
        raise DomainError(f"alpha must lie in (-1, 1], got {shown}")


class NecklaceSurface(NamedTuple):
    """Closed genus-h surface made of h-1 pieces and h-1 annuli in a cycle."""

    h: int
    pieces: tuple[int, ...]
    annuli: tuple[tuple[int, int], ...]

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    @property
    def euler_characteristic(self) -> int:
        # -2 per piece, 0 per annulus
        return -2 * len(self.pieces)

    @property
    def genus_from_euler(self) -> int:
        return (2 - self.euler_characteristic) // 2

    def is_single_cycle(self) -> bool:
        """True iff following the annuli from piece 0 visits every piece once."""
        n = len(self.pieces)
        succ = dict(self.annuli)
        seen = set()
        cur = 0
        for _ in range(n):
            if cur in seen:
                return False
            seen.add(cur)
            cur = succ.get(cur)
            if cur is None:
                return False
        return cur == 0 and len(seen) == n

    def check_invariants(self) -> None:
        if self.h < 2:
            raise DomainError(f"necklace genus must be >= 2, got {self.h}")
        if len(self.pieces) != self.h - 1 or len(self.annuli) != self.h - 1:
            raise DomainError("necklace needs exactly h-1 pieces and h-1 annuli")
        if not self.is_single_cycle():
            raise DomainError("piece/annulus incidence must form a single cycle")
        if self.genus_from_euler != self.h:
            raise DomainError("assembled Euler characteristic disagrees with genus")


def build_necklace(h: int) -> NecklaceSurface:
    """Assemble the cyclic necklace of genus h (h >= 2)."""
    if h < 2:
        raise DomainError(
            f"necklace genus must be >= 2 (needs at least one piece and one annulus), got {h}"
        )
    n = h - 1
    surface = NecklaceSurface(
        h=h,
        pieces=tuple(range(n)),
        annuli=tuple((i, (i + 1) % n) for i in range(n)),
    )
    surface.check_invariants()
    return surface


class CompositeSurface(NamedTuple):
    """Genus-g surface carrying h' necklaces of genus h plus a genus-(g-h*h') base."""

    g: int
    alpha: Fraction
    h: int
    h_prime: int
    base_genus: int

    @property
    def piece_count(self) -> int:
        return self.h - 1

    def check_invariants(self) -> None:
        check_alpha(self.alpha)
        if not (2 <= self.h <= self.g):
            raise DomainError(f"h={self.h} must satisfy 2 <= h <= g={self.g}")
        if self.h > MAX_NECKLACE_GENUS:
            raise DomainError(
                f"necklace genus h={self.h} exceeds {MAX_NECKLACE_GENUS}: "
                "its exact counts cannot be held"
            )
        if self.h * self.h_prime > self.g:
            raise DomainError("necklaces exceed the available genus: h*h' > g")
        if self.base_genus != self.g - self.h * self.h_prime or self.base_genus < 0:
            raise DomainError("base genus must equal g - h*h' and be nonnegative")


def check_plan_domain(g: int, alpha: Fraction | int | str) -> Fraction:
    """alpha as a Fraction, once (g, alpha) is known to admit a plan: alpha
    passes `check_alpha` and g is a positive integer with g**(1+alpha) >= 16."""
    alpha = parse_fraction(alpha)
    check_alpha(alpha)
    if not isinstance(g, int) or g < 1:
        raise DomainError(f"genus must be a positive integer, got {g!r}")
    if not genus_admissible(g, alpha):
        minimal = min_admissible_genus(alpha)
        raise DomainError(
            f"g >= {minimal} required for alpha = {alpha} (got g = {g})"
        )
    return alpha


def plan_composite(g: int, alpha: Fraction | int | str) -> CompositeSurface:
    """Choose necklace parameters for genus g and threshold exponent alpha.

    h = floor((1/2) * g**((1+alpha)/2)) pieces of genus each, repeated in
    h' = floor(2 * g**((1-alpha)/2)) disjoint necklaces.  Both floors are
    computed by exact integer root extraction, never through binary floats.
    Deterministic: identical inputs give identical outputs.
    """
    alpha = check_plan_domain(g, alpha)
    h = floor_scaled_power(Fraction(1, 2), g, (1 + alpha) / 2)
    h_prime = floor_scaled_power(Fraction(2), g, (1 - alpha) / 2)
    surface = CompositeSurface(
        g=g,
        alpha=alpha,
        h=h,
        h_prime=h_prime,
        base_genus=g - h * h_prime,
    )
    surface.check_invariants()
    return surface
