"""Exact integer toolkit for simple bidouble covers of the quadric.

Computes surface invariants from branch data, classifies the covers up to
homeomorphism, applies the divisibility-index obstruction to smooth
structure, searches bounded families for Catanese k-tuples, profiles the
discriminant curves of pluricanonical projections, and packages the whole
chain as machine-checkable Zariski certificates.
"""

from .catalog import SCHEMA_VERSION, CatalogRecord, read_catalog, write_catalog
from .covers import (
    DEFAULT_FIELD_CAP,
    CoverType,
    DerivedParams,
    SurfaceInvariants,
    canonicalize,
    derive_params,
    divisibility_index,
    surface_invariants,
    swap,
    validate_type,
)
from .discriminant import (
    MIN_MULT,
    ArgumentStep,
    DiscriminantProfile,
    ZariskiCertificate,
    cusp_count_general,
    discriminant_profile,
    node_count,
    zariski_certificate,
)
from .errors import (
    BidoubleError,
    BoundTooLarge,
    ConstraintViolation,
    InvalidMember,
    MultTooSmall,
    NegativeNodes,
    NotCatanese,
    NotComparable,
    OutOfRange,
    SchemaMismatch,
)
from .paper_check import PaperExampleReport, ReportEntry, verify_paper_example
from .search import (
    CataneseTuple,
    HomeoClassBucket,
    SearchConfig,
    SearchResult,
    SearchScan,
    SearchStats,
    enumerate_admissible,
    extract_k_tuples,
    group_by_homeo_class,
    scan,
    search,
)
from .topology import (
    DiffeoVerdict,
    HomeoClassKey,
    TupleVerdict,
    are_homeomorphic,
    diffeo_obstruction,
    homeo_class_key,
    is_catanese_tuple,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentStep",
    "BidoubleError",
    "BoundTooLarge",
    "CatalogRecord",
    "CataneseTuple",
    "ConstraintViolation",
    "CoverType",
    "DEFAULT_FIELD_CAP",
    "DerivedParams",
    "DiffeoVerdict",
    "DiscriminantProfile",
    "HomeoClassBucket",
    "HomeoClassKey",
    "InvalidMember",
    "MIN_MULT",
    "MultTooSmall",
    "NegativeNodes",
    "NotCatanese",
    "NotComparable",
    "OutOfRange",
    "PaperExampleReport",
    "ReportEntry",
    "SCHEMA_VERSION",
    "SchemaMismatch",
    "SearchConfig",
    "SearchResult",
    "SearchScan",
    "SearchStats",
    "SurfaceInvariants",
    "TupleVerdict",
    "ZariskiCertificate",
    "are_homeomorphic",
    "canonicalize",
    "cusp_count_general",
    "derive_params",
    "diffeo_obstruction",
    "discriminant_profile",
    "divisibility_index",
    "enumerate_admissible",
    "extract_k_tuples",
    "group_by_homeo_class",
    "homeo_class_key",
    "is_catanese_tuple",
    "node_count",
    "read_catalog",
    "scan",
    "search",
    "surface_invariants",
    "swap",
    "validate_type",
    "verify_paper_example",
    "write_catalog",
    "zariski_certificate",
]
