"""Combinatorial surface models: cyclic necklaces and composite surfaces.

A necklace of genus h is a cycle of h-1 pieces (each a torus with two
boundary circles) alternating with h-1 annuli; annulus i joins the right
boundary of piece i to the left boundary of piece (i+1) mod (h-1).  Each
piece contributes Euler characteristic -2 and each annulus 0, so the closed
assembled surface has characteristic 2-2h, i.e. genus h.

A composite surface of genus g carries h' pairwise-disjoint necklaces of
genus h plus a base surface absorbing the leftover genus g - h*h'.  Curves
never leave their necklace, so the base is tracked by its genus only; its
gluing combinatorics play no role in any count.  A composite surface is
valid exactly when it equals `plan_composite` of its own (g, alpha); no
other rule checks one.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .exactint import floor_scaled_power, min_admissible_genus, parse_fraction
from .logspace import fraction_text, int_text

ARC_LABELS = (1, 2, 3, 4)

# Largest necklace genus a plan may have.  Every count is an exact integer in
# memory: h' * 4**(h-1) curves has about 2h bits and a crossing total about 4h,
# so past this bound one total would outgrow 4*10**8 bits (50 MB) and the plan
# is refused as soon as h is known.  h <= g/2, so every g up to 2*10**8
# plans at every alpha.
MAX_NECKLACE_GENUS = 10 ** 8

# Largest denominator q of an alpha = p/q.  Planning takes 2q-th roots of
# powers of g up to g**(2q-1), and a g**alpha sparsity verdict raises the
# totals to the q-th power, so the cost grows fast with q.  On a 2-core x86
# host, at q = 1000 a bounds row at g = 10**6 takes 3-4 ms of CPU on average
# over 40 numerators (7-13 ms at worst), and one plan of a 1,000- to
# 2,000-digit g takes 4-14 s.
MAX_ALPHA_DENOMINATOR = 1000


def check_alpha(alpha: Fraction) -> None:
    """DomainError unless alpha lies in (-1, 1] with a denominator of at most
    MAX_ALPHA_DENOMINATOR."""
    q = alpha.denominator
    if q > MAX_ALPHA_DENOMINATOR:
        raise DomainError(
            f"alpha needs a denominator of at most {MAX_ALPHA_DENOMINATOR}, got {int_text(q)}"
        )
    if not (Fraction(-1) < alpha <= Fraction(1)):
        raise DomainError(f"alpha must lie in (-1, 1], got {fraction_text(alpha)}")


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


def check_plan_domain(g: int, alpha: Fraction | int | str) -> Fraction:
    """alpha as a Fraction, once (g, alpha) is known to admit a plan: alpha
    passes `check_alpha` and g is a positive integer with g**(1+alpha) >= 16."""
    alpha = parse_fraction(alpha)
    check_alpha(alpha)
    if not isinstance(g, int) or g < 1:
        raise DomainError(f"genus must be a positive integer, got {int_text(g)}")
    minimal = min_admissible_genus(alpha)
    if g < minimal:
        raise DomainError(
            f"g >= {minimal} required for alpha = {fraction_text(alpha)} (got g = {int_text(g)})"
        )
    return alpha


def plan_composite(g: int, alpha: Fraction | int | str) -> CompositeSurface:
    """Choose necklace parameters for genus g and threshold exponent alpha.

    h = floor((1/2) * g**((1+alpha)/2)) pieces of genus each, repeated in
    h' = floor(2 * g**((1-alpha)/2)) disjoint necklaces.  Both floors are
    computed by exact integer root extraction, never through binary floats.
    Deterministic: identical inputs give identical outputs.

    Past `check_plan_domain` it refuses only h > MAX_NECKLACE_GENUS, before h'
    is computed.  The rest holds by construction: h >= 2 since g**(1+alpha)
    >= 16; h*h' <= g, the product of the two powers, so the base genus is >= 0;
    and h <= g/2 since h' >= 2.
    """
    return _plan(g, check_plan_domain(g, alpha))


@functools.lru_cache(maxsize=16)
def _plan(g: int, alpha: Fraction) -> CompositeSurface:
    """`plan_composite` of a checked (g, alpha).  Recent plans are kept, so a
    `verify` of a full family, which plans it on load and again in its
    certificate, pays the roots once; a refusal is not kept."""
    h = floor_scaled_power(Fraction(1, 2), g, (1 + alpha) / 2)
    if h > MAX_NECKLACE_GENUS:
        raise DomainError(
            f"necklace genus h={int_text(h)} exceeds {MAX_NECKLACE_GENUS}: "
            "its exact counts cannot be held"
        )
    h_prime = floor_scaled_power(Fraction(2), g, (1 - alpha) / 2)
    return CompositeSurface(g, alpha, h, h_prime, base_genus=g - h * h_prime)
