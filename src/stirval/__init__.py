"""Exact 2-adic valuations of Stirling numbers of the second kind.

The package computes nu_2(S(n,k)) three independent ways (the exact
big-integer recurrence, an adaptive modular engine on the binomial sum, and
the same recurrence modulo 2**M), partitions indices
into residue classes mod 2**m and tracks which classes carry a constant
valuation, and mechanically re-checks the identities and conjectures that
describe this structure, at desk scale, with certificates.
"""

from .padic import (
    INFINITE,
    Ratio,
    Valuation,
    digit_sum,
    is_prime,
    kummer_binomial_val,
    legendre_factorial_val,
    nu_int,
    nu_rat,
    pochhammer,
    power_lemma_report,
)
from .reports import CONSISTENT, COUNTEREXAMPLE, INCONCLUSIVE, ConjectureReport
from .stirling import (
    ModStirlingEngine,
    de_wannemacker_gap,
    de_wannemacker_gaps,
    get_engine,
    identity_battery,
    ksf_terms,
    special_values_check,
    stirling_closed_small,
    stirling_exact,
    t_terms,
    triangle_rows,
    triangle_width,
    val2_closed_small,
    val2_rows,
    val2_stirling,
)
from .levels import (
    ChainLink,
    ClassStatus,
    LevelTree,
    ResidueClass,
    build_level_tree,
    c_set_sequence,
    classify_class,
    exceptional_indices,
    k5_structure_report,
    k5_surviving_chain,
    m0_of,
    prove_constant,
    verify_main_conjecture,
)
from .sequences import (
    a_lm,
    a_lm_val_check,
    b_lm,
    clarke_battery,
    clarke_conjecture_check,
    clarke_val_check,
    cohen_at_powers,
    cohen_check,
    cohen_partial_sums,
    cohen_sum,
    t2_zeros,
    t_sum,
)
from .approx import (
    approx_report,
    aux_indicators,
    err1,
    err2,
    f1,
    f2,
    f3,
    in_I1,
    in_I2,
    i1_elements,
    lambda_p,
    x1,
    x2,
)

__version__ = "0.1.0"
