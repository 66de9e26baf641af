"""Finite N-quandles of knots and links: enumeration and verification.

The N-quandle of a link quotients its fundamental quandle by x^(g^n_i)
= x for every generator g on link component i.  For many links and
label tuples N the result is finite; this package enumerates those
finite quandles from presentations by tracing and collapsing Cayley
graph paths, verifies the quandle axioms and power relations on the
result, and ships a catalog of the known finite cardinalities for
cross-checking.
"""

from .words import concat, invert, reduce, word_str
from .presentations import (
    Crossing,
    Diagram,
    DiagramError,
    ParseError,
    Presentation,
    PresentationError,
    PrimaryRelation,
    UniversalRelation,
    augment_n,
    braid_presentation,
    builtin_family,
    closed_braid_diagram,
    parse_diagram,
    parse_presentation,
    parse_word,
    print_diagram,
    print_presentation,
    secondary_relations,
    wirtinger,
)
from .enumerator import (
    EnumerationInternalError,
    EnumerationLimits,
    EnumerationOutcome,
    EnumerationStats,
    Relators,
    TraceGraph,
    compile_relators,
    enumerate_quandle,
    run_schedule,
)
from .quandle import (
    Expression,
    FiniteQuandle,
    OrbitPartition,
    VerificationReport,
    dense_tables,
    export_dot,
    export_json,
    expression_str,
    full_op,
    is_isomorphic,
    orbits,
    verify_all,
    verify_axioms,
    verify_n_relations,
)
from .catalog import CatalogEntry, expected_cardinality, load_catalog

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
