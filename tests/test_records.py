"""Every library record is immutable and compares equal by its fields alone."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecurves.bounds import (
    BoundValue,
    CrossingInequalityVerdict,
    InequalityStatus,
    LinearRegimeBound,
    SizeUpperBound,
    TableRow,
)
from sparsecurves.curves import Curve, CrossingReport, CurveSystem, SparsityThreshold
from sparsecurves.document import SystemDocument
from sparsecurves.homology import DistinctnessCertificate, HomologyClass
from sparsecurves.surfaces import (
    ARC_LABELS,
    CompositeSurface,
    NecklaceSurface,
    plan_composite,
)

# h = 2 (one letter per word) and h = 3 (two letters)
_SURFACES = (plan_composite(16, Fraction(0)), plan_composite(36, Fraction(0)))


@st.composite
def _systems(draw):
    """A full family, or up to 6 listed curves (repeats possible)."""
    surface = draw(st.sampled_from(_SURFACES))
    if draw(st.booleans()):
        return CurveSystem(surface, full=True)
    word = st.lists(
        st.sampled_from(ARC_LABELS), min_size=surface.piece_count, max_size=surface.piece_count
    ).map(tuple)
    curve = st.builds(Curve, st.integers(0, surface.h_prime - 1), word)
    return CurveSystem(surface, tuple(draw(st.lists(curve, max_size=6))))


def _optional(strategy):
    return st.none() | strategy


def _record(cls):
    return st.deferred(lambda: st.builds(cls, **_FIELDS[cls]))


_ints = st.integers(-(10**6), 10**6)
_int_tuples = st.lists(_ints, max_size=4).map(tuple)
_fractions = st.fractions(max_denominator=1000)
_texts = st.text(max_size=4)
_mpfs = _ints.map(mpmath.mpf)
_curves = st.builds(Curve, st.integers(0, 3), st.lists(st.sampled_from(ARC_LABELS), max_size=3).map(tuple))

# one strategy per field, in field order, for each record
_FIELDS = {
    NecklaceSurface: {
        "h": _ints,
        "pieces": _int_tuples,
        "annuli": st.lists(st.tuples(_ints, _ints), max_size=3).map(tuple),
    },
    CompositeSurface: {
        "g": _ints, "alpha": _fractions, "h": _ints, "h_prime": _ints, "base_genus": _ints,
    },
    SparsityThreshold: {"kind": st.sampled_from(["rational", "power"]), "value": _fractions},
    CrossingReport: {
        "total_crossings": _ints,
        "pair_count": _ints,
        "threshold": _record(SparsityThreshold),
        "is_sparse": st.booleans(),
        "mode": st.sampled_from(["explicit", "analytic"]),
    },
    HomologyClass: {"coefficients": _int_tuples},
    DistinctnessCertificate: {
        "distinct": st.booleans(),
        "method": st.sampled_from(["exhaustive", "construction"]),
        "collision": _optional(st.tuples(_curves, _curves)),
    },
    BoundValue: {
        "formula": _texts,
        "log10": _mpfs,
        "exact": _optional(_fractions),
        "digits": _ints,
        "evaluate": st.sampled_from([abs, str, repr]),
    },
    SizeUpperBound: {"tight": _record(BoundValue), "rounded": _record(BoundValue)},
    CrossingInequalityVerdict: {
        "status": st.sampled_from(InequalityStatus),
        "threshold_log10": _mpfs,
        "size_log10": _mpfs,
        "left_log10": _optional(_mpfs),
        "crossings_log10": _optional(_mpfs),
        "digits": _ints,
    },
    LinearRegimeBound: {"value": _record(BoundValue), "coefficient": _record(BoundValue)},
    TableRow: {
        "g": _ints,
        "alpha": _fractions,
        "h": _ints,
        "h_prime": _ints,
        "base_genus": _ints,
        "count": _optional(_ints),
        "count_log10": _texts,
        "lower_log10": _texts,
        "upper_tight_log10": _texts,
        "upper_rounded_log10": _texts,
        "crossings": _optional(_ints),
        "ratio": _texts,
        "mode": _texts,
        "lower_le_count": st.booleans(),
        "lower_le_upper": st.booleans(),
    },
    SystemDocument: {
        "system": _systems(),
        "report": _optional(_record(CrossingReport)),
        "certificate": _optional(_record(DistinctnessCertificate)),
    },
}


@pytest.mark.parametrize("record", list(_FIELDS), ids=lambda record: record.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_records_are_immutable_and_compare_by_their_fields(record, data):
    assert tuple(_FIELDS[record]) == record._fields
    instance = data.draw(_record(record))
    name = data.draw(st.sampled_from(record._fields))
    old = getattr(instance, name)
    with pytest.raises(AttributeError):
        setattr(instance, name, old)
    copy = record(**instance._asdict())
    assert copy == instance and hash(copy) == hash(instance)
    new = data.draw(_FIELDS[record][name].filter(lambda value: value != old))
    assert instance._replace(**{name: new}) != instance


@settings(max_examples=60, deadline=None)
@given(system=_systems(), other=_systems())
def test_curve_systems_are_immutable_and_compare_by_their_words(system, other):
    system.first_repeat, system.curves  # the cached properties fill their cache
    for name in ("surface", "packed", "full", "curves", "first_repeat"):
        with pytest.raises(AttributeError):
            setattr(system, name, None)
        with pytest.raises(AttributeError):
            delattr(system, name)
    if system.full:
        copies = [CurveSystem(system.surface, full=True)]
    else:
        copies = [
            CurveSystem.from_packed(system.surface, system.packed),
            CurveSystem(system.surface, tuple(reversed(system.curves))),
        ]
    for copy in copies:
        assert copy == system and hash(copy) == hash(system)
    key = (system.surface, system.packed, system.full)
    assert (other == system) == ((other.surface, other.packed, other.full) == key)
