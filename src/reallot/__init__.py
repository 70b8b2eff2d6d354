"""Pair-efficiency vs Pareto-efficiency toolkit for object reallocation
on single-peaked and single-dipped preference domains.

Public names load lazily (PEP 562): ``import reallot`` imports no
submodule, and the first use of a name imports only the module that
defines it (and what that module needs), then caches the name here. So a
``reallot check`` run never pays for the sweeps or the synthesizers.
``_EXPORTS`` maps each module to its public names; ``__all__`` and
``dir(reallot)`` are derived from it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> its public names
    "construct": (
        "CounterexampleBundle build_sd_counterexample "
        "build_sp_counterexample complete_sp"
    ),
    "core": (
        "Allocation BudgetError Instance LinearOrder ParseError Preference "
        "Profile ReallotError enumerate_allocations"
    ),
    "domains": (
        "DomainSpec Scope ViolationWitness enumerate_all_preferences "
        "enumerate_single_dipped enumerate_single_peaked is_single_dipped "
        "is_single_peaked sample_profile single_dipped_violation "
        "single_peaked_violation"
    ),
    "efficiency": (
        "ImprovingCycle apply_cycle brute_force_dominator count_efficient "
        "find_blocking_pair find_improving_cycle is_individually_rational "
        "pareto_dominates"
    ),
    "equivalence": (
        "EquivalenceReport ImprovementWitness Violation build_witness "
        "extract_blocking_pair_sd extract_blocking_pair_sp "
        "find_gap_witness validate_extraction_claims verify_equivalence"
    ),
    "rules": (
        "CorollaryReport Manipulation Rule StrategyProofnessReport TTC "
        "check_corollary_sd check_strategy_proofness serial_dictatorship ttc "
        "worst_house_dictatorship"
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
