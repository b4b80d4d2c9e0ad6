"""The package's public names, and its standard-library-only imports."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import bidouble

SOURCE = Path(bidouble.__file__).parent

PUBLIC_NAMES = [
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


def test_public_names_are_pinned() -> None:
    assert sorted(bidouble.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(bidouble, name) is not None


def test_the_package_imports_only_the_standard_library() -> None:
    # So no module of the package can import the tests' oracle either.
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) >= 10
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
