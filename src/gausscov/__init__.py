"""Model-free covariate selection with exact Gaussian covariate P-values.

The package treats every candidate covariate as if it were Gaussian noise
and asks how probable its observed reduction in residual sum of squares
would be under that hypothesis.  The resulting P-values are exact for any
fixed design, need no model assumptions about the response, and remain
meaningful with far more covariates than samples.

Entry points
------------
f1st
    Frugal stepwise selection with exhaustive subset refinement.
f2st, f3st
    Repeated / branching selection returning a set of alternative
    approximations instead of a single one.
all_subset_select
    Exact all-subset search for small candidate pools.
fgr1st
    Dependency-graph estimation by regressing each column on the rest.
run_sim
    Seeded recovery simulations on synthetic designs.
"""

from .errors import (
    AllColumnsConstant,
    CollinearColumn,
    ColumnBudgetExceeded,
    DomainError,
    GausscovError,
    GenerationFailure,
    InsufficientLength,
    MissingValue,
    NoCandidates,
    ParseError,
    RatioClampWarning,
    TooManyColumns,
)
from .featurize import (
    InteractionSpec,
    load_csv,
    make_interactions,
    make_lags,
    make_trig,
    monomial_count,
    resolve_column,
    sample_correlations,
    split_response,
)
from .graph import (
    GraphResult,
    GraphSimReport,
    fgr1st,
    graph_to_csv,
    graph_to_dot,
    random_graph_model,
    random_graph_sim,
    undirected_to_csv,
)
from .matrix import (
    DataMatrix,
    ResidualState,
    extend,
    extend_intercept,
    scan_best,
    standardize,
)
from .pvalues import (
    PvalueContext,
    beta_cdf,
    beta_cdf_inv,
    gaussian_pvalue,
    pf_from_rss_ratio,
    pf_threshold,
    pg_all_subset,
    pg_stepwise,
)
from .select import (
    ApproximationSet,
    SelectionConfig,
    SelectionResult,
    TraceStep,
    all_subset_select,
    f1st,
    f2st,
    f3st,
)
from .sim import RepRecord, SimReport, SimSpec, run_sim

__version__ = "0.1.0"

__all__ = [
    "AllColumnsConstant",
    "ApproximationSet",
    "CollinearColumn",
    "ColumnBudgetExceeded",
    "DataMatrix",
    "DomainError",
    "GausscovError",
    "GenerationFailure",
    "GraphResult",
    "GraphSimReport",
    "InsufficientLength",
    "InteractionSpec",
    "MissingValue",
    "NoCandidates",
    "ParseError",
    "PvalueContext",
    "RatioClampWarning",
    "RepRecord",
    "ResidualState",
    "SelectionConfig",
    "SelectionResult",
    "SimReport",
    "SimSpec",
    "TooManyColumns",
    "TraceStep",
    "all_subset_select",
    "beta_cdf",
    "beta_cdf_inv",
    "extend",
    "extend_intercept",
    "f1st",
    "f2st",
    "f3st",
    "fgr1st",
    "gaussian_pvalue",
    "graph_to_csv",
    "graph_to_dot",
    "load_csv",
    "make_interactions",
    "make_lags",
    "make_trig",
    "monomial_count",
    "pf_from_rss_ratio",
    "pf_threshold",
    "pg_all_subset",
    "pg_stepwise",
    "random_graph_model",
    "random_graph_sim",
    "resolve_column",
    "run_sim",
    "sample_correlations",
    "scan_best",
    "split_response",
    "standardize",
    "undirected_to_csv",
    "__version__",
]
