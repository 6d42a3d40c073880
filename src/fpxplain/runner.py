"""Query dispatch: pick an algorithm for (query, model) and return a
JSON-safe payload.

Payloads are plain dicts of bools, ints, strings and lists; rationals
are rendered as p/q strings. Timing is the caller's business so payload
bytes stay deterministic.
"""

from __future__ import annotations

from importlib import import_module

from .errors import InvalidInstanceError, UnsupportedModelError
from .models import (
    ABSENT, DecisionTree, Perceptron, ProductDistribution, check_dist,
    check_instance, check_model, check_subset, eval_model, is_tree_ensemble,
    majority_ensemble, rational_str, shown,
)

QUERY_KINDS = ("csr", "mcr", "msr", "cc", "shap", "expect",
               "enumerate-contrastive")
ALGORITHMS = ("auto", "oracle", "fpt", "direct", "pseudopoly",
              "interpolation")

# kind -> {family: (the algorithm names that pick the route, payload label,
# engine module, engine function)}. The families are "tree" (a single
# tree), "ensemble" (of trees), "perceptron" and "oracle", the route open to
# every model; a single tree runs its kind's "ensemble" row as a one-member
# ensemble unless the kind has a "tree" row. The function is looked up on
# its module at each call: a query process imports only the engine it
# runs, and a wrapper set on the module attribute sees the call.
_ROUTES = {
    "csr": {"oracle": (("oracle",), "oracle", "oracle", "oracle_is_sufficient"),
            "tree": (("auto", "direct"), "tree-direct", "trees", "csr_single_tree"),
            "ensemble": (("auto", "fpt"), "tree-fpt", "trees", "csr_tree_ensemble"),
            "perceptron": (("auto", "direct"), "perceptron-direct", "perceptron",
                           "csr_perceptron")},
    "mcr": {"oracle": (("oracle",), "oracle", "oracle", "oracle_min_contrastive"),
            "ensemble": (("auto", "fpt"), "tree-fpt", "trees", "min_contrastive_size"),
            "perceptron": (("auto", "direct"), "perceptron-direct", "perceptron",
                           "min_contrastive_perceptron")},
    "msr": {"oracle": (("oracle",), "oracle", "oracle", "oracle_min_sufficient"),
            "ensemble": (("auto", "fpt"), "tree-fpt", "trees", "min_sufficient_size"),
            "perceptron": (("auto", "direct"), "perceptron-direct", "perceptron",
                           "min_sufficient_perceptron")},
    "cc": {"oracle": (("oracle",), "oracle", "oracle", "oracle_completion_count"),
           "ensemble": (("auto", "fpt"), "tree-fpt", "trees", "cc_tree_ensemble"),
           "perceptron": (("auto", "pseudopoly"), "perceptron-pseudopoly", "perceptron",
                          "cc_perceptron_pseudopoly")},
    "shap": {"oracle": (("oracle",), "oracle", "attribution", "shap_report"),
             "ensemble": (("auto", "fpt", "interpolation"), "interpolation", "attribution",
                          "shap_report"),
             "perceptron": (("auto", "direct", "pseudopoly"), "pseudopoly", "attribution",
                            "shap_report")},
    "expect": {"oracle": (("oracle",), "oracle", "oracle", "oracle_expected_value"),
               "ensemble": (("auto", "fpt"), "tree-fpt", "trees",
                            "expected_value_tree_ensemble"),
               "perceptron": (("auto", "pseudopoly"), "perceptron-pseudopoly", "perceptron",
                              "expected_value_perceptron")},
    "enumerate-contrastive": {
        "ensemble": (("auto", "fpt"), "tree-fpt", "trees", "enumerate_candidate_contrastive")},
}


_FALLBACK = "no fast algorithm for {} on this model; falling back to the exponential oracle"


def route(m, kind: str, algorithm: str, warnings: list[str]) -> tuple:
    """The (payload label, model, engine function) of a query, from
    _ROUTES. auto takes the model family's row, or else the oracle with a
    warning; any other name takes the row that lists it. A single tree
    on an "ensemble" row comes back as a one-member ensemble."""
    routes = _ROUTES[kind]
    if isinstance(m, DecisionTree):
        family = "tree" if "tree" in routes else "ensemble"
    elif isinstance(m, Perceptron):
        family = "perceptron"
    else:
        family = "ensemble" if is_tree_ensemble(m) else None
    fast, oracle = routes.get(family), routes.get("oracle")
    if fast is not None and algorithm in fast[0]:
        row = fast
        if family == "ensemble" and isinstance(m, DecisionTree):
            m = majority_ensemble((m,))
    elif oracle is not None and (algorithm in oracle[0] or algorithm == "auto" and fast is None):
        row = oracle
        if algorithm == "auto":
            warnings.append(_FALLBACK.format(kind))
    elif fast is not None:
        raise UnsupportedModelError(
            f"algorithm {algorithm!r} does not apply to {kind} on this model "
            f"(would use {fast[1]})")
    elif algorithm == "auto":
        raise UnsupportedModelError(f"no algorithm for {kind} on this model")
    else:
        raise UnsupportedModelError(f"no {algorithm} algorithm for {kind} on this model")
    _, label, module, name = row
    return label, m, getattr(import_module(f".{module}", __package__), name)


def _dist(dist, n: int) -> ProductDistribution:
    """The query's distribution, uniform when none is given, checked
    before the route so that every engine receives a valid one."""
    dist = ProductDistribution.uniform(n) if dist is None else dist
    check_dist(dist, n)
    return dist


def run_query(model, kind: str, x, *, subset=None, bound=None, feature=None,
              dist: ProductDistribution | None = None,
              algorithm: str = "auto", minimal_only: bool = False) -> dict:
    if kind not in QUERY_KINDS:
        raise InvalidInstanceError(f"unknown query kind {shown(kind)}")
    if algorithm not in ALGORITHMS:
        raise InvalidInstanceError(f"unknown algorithm {shown(algorithm)}")
    check_model(model)
    n = model.feature_count
    x = check_instance(x, n)
    warnings: list[str] = []
    payload: dict = {"query": kind, "features": n,
                     "prediction": eval_model(model, x)}

    if kind == "shap":
        args = (x, _dist(dist, n))
        if feature is not None and not (type(feature) is int and 0 <= feature < n):
            raise InvalidInstanceError(f"feature {shown(feature)} outside 0..{shown(n - 1)}")
    elif kind == "enumerate-contrastive":
        if type(minimal_only) is not bool:
            raise InvalidInstanceError(
                f"minimal_only must be true or false, got {shown(minimal_only)}")
        args = (x, minimal_only)
    elif kind in ("csr", "cc"):
        s = check_subset(() if subset is None else subset, n)
        payload["subset"] = list(s)
        args = (x, s)
    elif kind == "expect":
        args = (_dist(dist, n),)
    else:  # mcr, msr
        if bound is not None and type(bound) is not int:
            raise InvalidInstanceError(f"{kind} needs an integer bound, got {shown(bound)}")
        if bound is None or bound < 0:
            raise InvalidInstanceError(f"{kind} needs a bound of at least 0")
        payload["bound"] = bound
        args = (x,)
    label, model, engine = route(model, kind, algorithm, warnings)
    if kind == "shap":  # the report's method is its route's label
        args += (label,)
    answer = engine(model, *args)

    if kind == "shap":
        payload.update({"method": label, "expected": rational_str(answer.expected),
                        "total": rational_str(answer.total)})
        if feature is None:
            payload["values"] = [rational_str(v) for v in answer.values]
        else:
            payload.update({"feature": feature, "answer": rational_str(answer.values[feature])})
    elif kind == "enumerate-contrastive":
        payload.update({"minimal_only": minimal_only,
                        "candidates": list(map(list, answer)), "count": len(answer)})
    elif answer is ABSENT:  # mcr/msr with no witness
        payload.update({"answer": False, "size": None, "witness": None})
    elif kind in ("mcr", "msr"):
        size, witness = answer
        payload.update({"answer": size <= bound, "size": size, "witness": list(witness)})
    else:
        payload["answer"] = answer if kind == "csr" else rational_str(answer)

    payload["algorithm"] = label
    payload["warnings"] = warnings
    return payload
