"""Exact symbolic toolkit for infinite-rank Schroedinger-Virasoro type
Lie conformal algebras: constructions, axiom checkers, conformal
derivations, and conformal module classification over exact arithmetic.
"""

from .poly import (
    GaussianRational,
    Inconsistent,
    MPoly,
    NotDivisible,
    ParseError,
    parse_poly,
    parse_scalar,
)
from .lca import (
    AlgebraSpec,
    DegreeBoundExceeded,
    GenPoly,
    Generator,
    UnknownFamily,
    WindowTooSmall,
    bracket,
    check_all_axioms,
    check_jacobi,
    check_skew,
    conformal_bracket,
    grading_project,
    parse_algebra,
    serialize_algebra,
)
from .linsolve import LinearSolution, linear_solve
from .catalog import (
    build_algebra,
    build_chv,
    build_construction,
    build_csv,
    build_cvir,
    build_cw,
    build_hv,
    build_sv,
    build_tsv_lie,
    lie_symbolic_check,
    solve_construction,
)
from .modules import (
    BitSeq,
    GradedModule,
    Rank1Module,
    build_graded,
    build_rank1,
    check_module_axioms,
    parse_module,
    reducibility_witness,
    relations_oracle,
    serialize_module,
)
from .classify import StepFailed

__version__ = "0.1.0"
