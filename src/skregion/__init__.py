"""Secret-key rate regions and random-binning key agreement for a
three-user source model with mutually wiretapping users.

The package-level names below load their submodule on first use (PEP 562),
so `import skregion` alone imports none of them.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    **dict.fromkeys((
        "BudgetExceededError",
        "Channel",
        "ConsistencyError",
        "JointPmf",
        "PmfError",
        "VariableId",
        "cond_mutual_information",
        "entry_budget",
        "iid_extension",
        "is_markov_chain",
        "mutual_information",
    ), "pmf"),
    **dict.fromkeys((
        "AuxSystem",
        "GridSpec",
        "RateConstraintSet",
        "RateRegion",
        "backward_inner_point",
        "backward_outer_point",
        "single_key_capacity",
        "enumerate_region",
        "explicit_outer",
        "forward_inner_point",
        "forward_outer_point",
        "pareto_frontier",
    ), "region"),
    **dict.fromkeys((
        "Codebook",
        "TypicalityParams",
        "build_backward_codebooks",
        "build_forward_codebooks",
        "backward_decode",
        "backward_encode",
        "forward_decode",
        "forward_encode",
        "jointly_typical",
        "typical_sequences",
        "wiretap_decode",
    ), "codec"),
    **dict.fromkeys((
        "EpsParams",
        "SimConfig",
        "SimReport",
        "check_definition1",
        "exact_leakage",
        "exact_report",
        "run_trials",
        "sample_sources",
    ), "sim"),
    **dict.fromkeys((
        "CaseDiagnosis",
        "case1_region",
        "case2_region",
        "case3_region",
        "diagnose",
        "lemma3_check",
        "verify_coincidence",
    ), "cases"),
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    submodule = _SUBMODULE.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
