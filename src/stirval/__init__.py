"""Exact 2-adic valuations of Stirling numbers of the second kind.

The package computes nu_2(S(n,k)) three independent ways (the exact
big-integer recurrence, an adaptive modular engine on the binomial sum, and
the same recurrence modulo 2**M), partitions indices
into residue classes mod 2**m and tracks which classes carry a constant
valuation, and mechanically re-checks the identities and conjectures that
describe this structure, at desk scale, with certificates.

Importing the package loads none of its modules: each exported name, and
each module, is imported on first use (PEP 562), so ``stirval.cli`` pays
only for the modules a call runs.  ``from stirval import *`` binds them all.
"""

from importlib import import_module

# module: the names it exports from the package
_EXPORTS = {
    "padic": (
        "INFINITE", "Ratio", "Valuation", "digit_sum", "is_prime", "kummer_binomial_val",
        "legendre_factorial_val", "nu_int", "nu_rat", "pochhammer", "power_lemma_report",
    ),
    "reports": ("CONSISTENT", "COUNTEREXAMPLE", "INCONCLUSIVE", "ConjectureReport"),
    "stirling": (
        "ModStirlingEngine", "de_wannemacker_gap", "de_wannemacker_gaps", "get_engine",
        "identity_battery", "ksf_terms", "special_values_check", "stirling_closed_small",
        "stirling_exact", "t_terms", "triangle_rows", "triangle_width", "val2_closed_small",
        "val2_rows", "val2_stirling",
    ),
    "levels": (
        "ChainLink", "ClassStatus", "LevelTree", "ResidueClass", "build_level_tree",
        "c_set_sequence", "classify_class", "exceptional_indices", "k5_structure_report",
        "k5_surviving_chain", "m0_of", "prove_constant", "verify_main_conjecture",
    ),
    "sequences": (
        "a_lm", "a_lm_val_check", "b_lm", "clarke_battery", "clarke_conjecture_check",
        "clarke_val_check", "cohen_at_powers", "cohen_check", "cohen_partial_sums",
        "cohen_sum", "t2_zeros", "t_sum",
    ),
    "approx": (
        "approx_report", "aux_indicators", "err1", "err2", "f1", "f2", "f3", "in_I1",
        "in_I2", "i1_elements", "lambda_p", "x1", "x2",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
