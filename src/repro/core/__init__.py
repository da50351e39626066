"""The paper's primary contribution: knowledge as a predicate transformer.

Exposes the knowledge operator (eq. 13), the S5/junctivity verifiers
(eqs. 14–24), and the knowledge-based-protocol machinery around the
self-referential SI equation (eq. 25).
"""

from .kbp import (
    InitMonotonicityReport,
    IterativeReport,
    SolveReport,
    compare_inits,
    instantiates,
    is_solution,
    phi,
    resolution_at,
    resolve_at,
    solve_si,
    solve_si_iterative,
    sp_hat,
)
from .knowledge import KnowledgeOperator
from .parallel import compile_phi_plan, solve_si_parallel
from .knowledge_rules import k_invariant_intro, k_localization, k_truth
from .s5 import (
    S5Violation,
    check_antimonotonicity_in_si,
    check_distribution,
    check_invariant_equivalence,
    check_local_invariant_equivalence,
    check_monotonicity_in_p,
    check_necessitation,
    check_negative_introspection,
    check_positive_introspection,
    check_truth_axiom,
    check_universal_conjunctivity,
    find_disjunctivity_counterexample,
    verify_all,
)

__all__ = [
    "KnowledgeOperator",
    "k_invariant_intro",
    "k_localization",
    "k_truth",
    "S5Violation",
    "check_antimonotonicity_in_si",
    "check_distribution",
    "check_invariant_equivalence",
    "check_local_invariant_equivalence",
    "check_monotonicity_in_p",
    "check_necessitation",
    "check_negative_introspection",
    "check_positive_introspection",
    "check_truth_axiom",
    "check_universal_conjunctivity",
    "find_disjunctivity_counterexample",
    "verify_all",
    "InitMonotonicityReport",
    "IterativeReport",
    "SolveReport",
    "compare_inits",
    "instantiates",
    "is_solution",
    "phi",
    "resolution_at",
    "resolve_at",
    "compile_phi_plan",
    "solve_si",
    "solve_si_iterative",
    "solve_si_parallel",
    "sp_hat",
]
