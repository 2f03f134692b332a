"""Decompositions of complete graphs into k-star-forests: constructions,
verification, exact search, bounds, and a text interchange format."""

from .bounds import (
    BoundReport,
    bound_report,
    conjecture_value,
    f3_equality_feasible,
    lb_bds,
    lb_f3,
    lb_star_forest,
    safe_lower_bound,
)
from .construct import (
    ConstructionOutput,
    blowup,
    broken_double_star,
    conjecture_construction,
    f2_construction,
    f3_construction,
    k16,
    k27,
    k4_construction,
)
from .core import (
    Decomposition,
    DecompositionError,
    Edge,
    LabelScheme,
    LabelSchemeError,
    MalformedForestError,
    MalformedStarError,
    NotApplicableError,
    PreconditionError,
    Star,
    StarForest,
    complete_graph_edges,
    forest_edges,
    make_edge,
    relabel,
)
from .fileio import (
    DecompositionFile,
    ParseError,
    export_dot,
    export_dot_per_forest,
    parse,
    serialize,
)
from .search import (
    FExactResult,
    SearchBudget,
    SearchResult,
    SearchStatus,
    exists_decomposition,
    f_exact,
)
from .verify import (
    CenterBipartiteGraph,
    CountingReport,
    CoverageReport,
    DegreeProfile,
    IsolationReport,
    Degree1PlacementReport,
    RootHypergraph,
    ValidationReport,
    check_counting_inequality,
    check_degree1_placement,
    check_no_isolated,
    degree_profile,
    is_broken_double_star,
    root_hypergraph,
    validate_decomposition,
)

__version__ = "0.1.0"
