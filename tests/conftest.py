"""Shared fixtures."""

from fractions import Fraction

import pytest

from sparsecurves.curves import CurveSystem, generate_system
from sparsecurves.surfaces import plan_composite


@pytest.fixture
def listed_system():
    """Build the full family at (g, alpha) as a system that lists every curve.

    `generate_system` only describes the family; tests that edit single
    curves of a document start from this listing instead.
    """

    def build(g: int = 16, alpha: Fraction = Fraction(0)) -> CurveSystem:
        full = generate_system(plan_composite(g, alpha))
        return CurveSystem(full.surface, tuple(full.iter_curves()))

    return build
