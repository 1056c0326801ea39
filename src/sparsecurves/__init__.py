"""Sparse curve systems on high-genus surfaces.

Builds the cyclic-necklace curve families, computes their exact crossing
numbers three independent ways, certifies pairwise non-isotopy through
homology classes, and evaluates rigorous lower/upper size bounds in exact or
log-interval arithmetic.
"""

# document first: without a bytecode cache every module is compiled as it is
# imported, and document.py, whose compile needs the most memory, then
# compiles while little else is held, so it does not set a process's peak
from .document import SystemDocument, load_document, save_document
from .bounds import (
    BoundValue,
    CrossingInequalityVerdict,
    InequalityStatus,
    LinearRegimeBound,
    SizeUpperBound,
    bounds_table,
    certified_le,
    construction_count,
    crossing_inequality_check,
    linear_regime_bound,
    lower_bound,
    render_table_csv,
    render_table_json,
    upper_bound,
)
from .curves import (
    CrossingReport,
    Curve,
    CurveSystem,
    SparsityThreshold,
    generate_system,
    sparsity_chain_check,
    verify_sparsity,
)
from .errors import (
    DegenerateGeometryError,
    DocumentError,
    DomainError,
    PrecisionError,
    SparseCurvesError,
)
from .homology import (
    DistinctnessCertificate,
    HomologyClass,
    certify_distinct,
    certify_generated,
    curve_class,
)
from .intersections import (
    AnnulusStrand,
    BoundaryPosition,
    annulus_family_crossings,
    necklace_family_crossings,
    oracle_crossings_pl,
    pair_intersection,
    strands_cross,
    total_crossings,
    total_crossings_analytic,
    total_crossings_explicit,
)
from .surfaces import (
    ARC_LABELS,
    CompositeSurface,
    plan_composite,
)

__version__ = "0.1.0"
