"""Query dispatch: pick an algorithm for (query, model) and return a
JSON-safe payload.

Payloads are plain dicts of bools, ints, strings and lists; rationals
are rendered as p/q strings. Timing is the caller's business so payload
bytes stay deterministic.
"""

from __future__ import annotations

import sys
from fractions import Fraction

# Each engine (trees, perceptron, attribution, oracle) is imported on the
# route that calls it, so a query process loads only the engine it runs.
from .errors import InvalidInstanceError, ResourceCapError, UnsupportedModelError
from .models import (
    ABSENT, DecisionTree, Ensemble, Perceptron, ProductDistribution,
    check_instance, check_subset, eval_model, feature_count,
    is_tree_ensemble, majority_ensemble,
)

QUERY_KINDS = ("csr", "mcr", "msr", "cc", "shap", "expect",
               "enumerate-contrastive")
ALGORITHMS = ("auto", "oracle", "fpt", "direct", "pseudopoly",
              "interpolation", "enum")


def _frs(value) -> str:
    try:
        return str(Fraction(value))
    except ValueError:  # a numerator or denominator past the int digit limit
        raise ResourceCapError(
            f"the answer's numerator or denominator has more than "
            f"{sys.get_int_max_str_digits()} digits; raise PYTHONINTMAXSTRDIGITS "
            "to print it") from None


def _as_tree_ensemble(m) -> Ensemble:
    if isinstance(m, DecisionTree):
        return majority_ensemble((m,))
    return m


def _route(m, algorithm: str, tree_choice: str, perceptron_choice: str,
           query: str, warnings: list[str]) -> str:
    """Resolve the concrete algorithm name, or 'oracle'."""
    if algorithm == "oracle":
        return "oracle"
    if isinstance(m, DecisionTree) or is_tree_ensemble(m):
        choice = tree_choice
    elif isinstance(m, Perceptron):
        choice = perceptron_choice
    else:
        choice = None
    if choice is None:
        if algorithm != "auto":
            raise UnsupportedModelError(
                f"no {algorithm} algorithm for {query} on this model")
        warnings.append(
            f"no fast algorithm for {query} on this model; "
            "falling back to the exponential oracle")
        return "oracle"
    if algorithm != "auto" and not choice.endswith(algorithm):
        raise UnsupportedModelError(
            f"algorithm {algorithm!r} does not apply to {query} on this model "
            f"(would use {choice})")
    return choice


def run_query(model, kind: str, x, *, subset=None, bound=None, feature=None,
              dist: ProductDistribution | None = None,
              algorithm: str = "auto", minimal_only: bool = False) -> dict:
    if kind not in QUERY_KINDS:
        raise InvalidInstanceError(f"unknown query kind {kind!r}")
    if algorithm not in ALGORITHMS:
        raise InvalidInstanceError(f"unknown algorithm {algorithm!r}")
    n = feature_count(model)
    x = check_instance(x, n)
    warnings: list[str] = []
    payload: dict = {"query": kind, "features": n,
                     "prediction": eval_model(model, x)}

    if kind == "csr":
        s = check_subset(subset, n)
        tree_choice = "tree-direct" if isinstance(model, DecisionTree) else "tree-fpt"
        route = _route(model, algorithm, tree_choice, "perceptron-direct",
                       kind, warnings)
        if route == "oracle":
            from . import oracle
            answer = oracle.oracle_is_sufficient(model, x, s)
        elif route == "perceptron-direct":
            from . import perceptron as pc
            answer = pc.csr_perceptron(model, x, s)
        else:
            from . import trees
            answer = (trees.csr_single_tree if route == "tree-direct"
                      else trees.csr_tree_ensemble)(model, x, s)
        payload.update({"subset": list(s), "answer": answer})

    elif kind in ("mcr", "msr"):
        if bound is None or bound < 0:
            raise InvalidInstanceError(f"{kind} needs a bound of at least 0")
        route = _route(model, algorithm, "tree-fpt", "perceptron-direct",
                       kind, warnings)
        if route == "oracle":
            from . import oracle
            finder = (oracle.oracle_min_contrastive if kind == "mcr"
                      else oracle.oracle_min_sufficient)
            found = finder(model, x)
        elif route == "perceptron-direct":
            from . import perceptron as pc
            finder = (pc.min_contrastive_perceptron if kind == "mcr"
                      else pc.min_sufficient_perceptron)
            found = finder(model, x)
        else:
            from . import trees
            finder = (trees.min_contrastive_size if kind == "mcr"
                      else trees.min_sufficient_size)
            found = finder(_as_tree_ensemble(model), x)
        if found is ABSENT:
            payload.update({"bound": bound, "answer": False,
                            "size": None, "witness": None})
        else:
            size, witness = found
            payload.update({"bound": bound, "answer": size <= bound,
                            "size": size, "witness": list(witness)})

    elif kind == "cc":
        s = check_subset(subset, n)
        route = _route(model, algorithm, "tree-fpt", "perceptron-pseudopoly",
                       kind, warnings)
        if route == "oracle":
            from . import oracle
            value = oracle.oracle_completion_count(model, x, s)
        elif route == "perceptron-pseudopoly":
            from . import perceptron as pc
            value = pc.cc_perceptron_pseudopoly(model, x, s)
        else:
            from . import trees
            value = trees.cc_tree_ensemble(_as_tree_ensemble(model), x, s)
        payload.update({"subset": list(s), "answer": _frs(value)})

    elif kind == "expect":
        dist = dist if dist is not None else ProductDistribution.uniform(n)
        route = _route(model, algorithm, "tree-fpt", "perceptron-pseudopoly",
                       kind, warnings)
        if route == "oracle":
            from . import oracle
            value = oracle.oracle_expected_value(model, dist)
        elif route == "perceptron-pseudopoly":
            from . import perceptron as pc
            value = pc.expected_value_perceptron(model, dist)
        else:
            from . import trees
            value = trees.expected_value_tree_ensemble(_as_tree_ensemble(model), dist)
        payload.update({"answer": _frs(value)})

    elif kind == "shap":
        dist = dist if dist is not None else ProductDistribution.uniform(n)
        if feature is not None and not (0 <= feature < n):
            raise InvalidInstanceError(f"feature {feature} outside 0..{n - 1}")
        if algorithm == "oracle":
            from . import oracle
            values = oracle.oracle_shap(model, x, dist)
            method = "oracle"
            expected = oracle.oracle_expected_value(model, dist)
        else:
            from . import attribution
            method_map = {"auto": "auto", "interpolation": "interpolation",
                          "pseudopoly": "pseudopoly", "enum": "enum",
                          "fpt": "interpolation", "direct": "pseudopoly"}
            report = attribution.shap_report(model, x, dist,
                                             method=method_map[algorithm])
            values, method, expected = report.values, report.method, report.expected
        payload.update({"method": method, "expected": _frs(expected),
                        "total": _frs(sum(values, Fraction(0)))})
        if feature is None:
            payload["values"] = [_frs(v) for v in values]
        else:
            payload.update({"feature": feature, "answer": _frs(values[feature])})
        route = method

    else:  # enumerate-contrastive
        if not (isinstance(model, DecisionTree) or is_tree_ensemble(model)):
            raise UnsupportedModelError(
                "contrastive-candidate enumeration is a tree-ensemble algorithm")
        if algorithm not in ("auto", "fpt"):
            raise InvalidInstanceError(
                f"algorithm {algorithm!r} does not apply to enumeration")
        from . import trees
        cands = trees.enumerate_candidate_contrastive(
            _as_tree_ensemble(model), x, filter_minimal=minimal_only)
        payload.update({"minimal_only": minimal_only,
                        "candidates": [list(c) for c in cands],
                        "count": len(cands)})
        route = "tree-fpt"

    payload["algorithm"] = route
    payload["warnings"] = warnings
    return payload
