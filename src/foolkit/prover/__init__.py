"""A small saturation kernel: ordered paramodulation with a Knuth-Bendix
ordering that pins the truth constants smallest, plus a dedicated
inference rule replacing the two-element boolean domain clause."""

from .clauses import Clause, Literal, term_positions
from .clausify import ClauseExplosion, ClausifyResult, clausify
from .ordering import (
    kbo_greater,
    kbo_greater_or_equal,
    literal_greater,
    maximal_literal_indices,
)
from .saturation import (
    AXIOM_MODE,
    ProverConfig,
    RULE_MODE,
    SaturationResult,
    has_var_var_equation,
    is_bool_domain_clause,
    saturate,
)
from .unification import apply_subst, is_variant, mgu, rename_clause, subsumes_by_variant

__all__ = [
    "AXIOM_MODE",
    "Clause",
    "ClauseExplosion",
    "ClausifyResult",
    "Literal",
    "ProverConfig",
    "RULE_MODE",
    "SaturationResult",
    "apply_subst",
    "clausify",
    "has_var_var_equation",
    "is_bool_domain_clause",
    "is_variant",
    "kbo_greater",
    "kbo_greater_or_equal",
    "literal_greater",
    "maximal_literal_indices",
    "mgu",
    "rename_clause",
    "saturate",
    "subsumes_by_variant",
    "term_positions",
]
