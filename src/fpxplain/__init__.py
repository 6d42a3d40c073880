"""Exact explanation queries for ensembles of decision trees and
perceptrons over Boolean features.

Everything is computed with exact rational arithmetic; no floats, no
tolerances. The oracle module re-answers every query by brute force so
the fast algorithms can be checked for literal equality.

The public names below resolve lazily (PEP 562): `import fpxplain`
loads no submodule, and `fpxplain.<name>` imports only the module that
defines it, so a CLI query never pays for the gadgets, generators,
bench harness or oracle.
"""

from importlib import import_module

_EXPORTS = {
    "attribution": (
        "ShapReport", "check_efficiency", "check_model_count_identity",
        "shap_interpolation", "shap_report",
        "size_stratified_sums",
    ),
    "errors": (
        "FpxError", "InfeasibleError", "InputShapeError",
        "InvalidInstanceError", "ParseError", "ResourceCapError",
        "UnsupportedModelError",
    ),
    "models": (
        "ABSENT", "DecisionTree", "Ensemble", "Majority", "Perceptron",
        "ProductDistribution", "Weighted", "constant_tree", "eval_model",
        "leaf", "majority_ensemble", "split",
    ),
    "oracle": (
        "oracle_completion_count", "oracle_expected_value",
        "oracle_is_contrastive", "oracle_is_sufficient",
        "oracle_min_contrastive", "oracle_min_sufficient",
        "oracle_model_count", "oracle_shap",
    ),
    "perceptron": (
        "cc_perceptron_pseudopoly", "csr_perceptron",
        "expected_value_perceptron", "h_table_perceptron",
        "min_contrastive_perceptron", "min_sufficient_perceptron",
        "shap_perceptron_pseudopoly",
    ),
    "runner": ("run_query",),
    "transforms": (
        "CnfFormula", "DnfFormula", "cnf_to_ensemble", "condition_model",
        "dnf_to_ensemble", "indicator_perceptron", "indicator_tree",
        "negate_model",
    ),
    "trees": (
        "cc_tree_ensemble", "csr_single_tree", "csr_tree_ensemble",
        "enumerate_candidate_contrastive", "expected_value_tree_ensemble",
        "greedy_subset_minimal_sufficient", "min_contrastive_size",
        "min_sufficient_size", "minimum_hitting_set",
    ),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
