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

# kind -> its fast algorithm on (tree ensembles, perceptrons); a kind with
# a "tree-direct" engine runs it on a single tree
_FAST = {"csr": ("fpt", "direct"), "mcr": ("fpt", "direct"),
         "msr": ("fpt", "direct"), "cc": ("fpt", "pseudopoly"),
         "expect": ("fpt", "pseudopoly")}

# (kind, route) -> (engine module, function). The function is looked up on
# its module at each call: a query process imports only the engine it runs,
# and a wrapper set on the module attribute sees the call.
_ENGINES = {
    ("csr", "oracle"): ("oracle", "oracle_is_sufficient"),
    ("csr", "tree-direct"): ("trees", "csr_single_tree"),
    ("csr", "tree-fpt"): ("trees", "csr_tree_ensemble"),
    ("csr", "perceptron-direct"): ("perceptron", "csr_perceptron"),
    ("mcr", "oracle"): ("oracle", "oracle_min_contrastive"),
    ("mcr", "tree-fpt"): ("trees", "min_contrastive_size"),
    ("mcr", "perceptron-direct"): ("perceptron", "min_contrastive_perceptron"),
    ("msr", "oracle"): ("oracle", "oracle_min_sufficient"),
    ("msr", "tree-fpt"): ("trees", "min_sufficient_size"),
    ("msr", "perceptron-direct"): ("perceptron", "min_sufficient_perceptron"),
    ("cc", "oracle"): ("oracle", "oracle_completion_count"),
    ("cc", "tree-fpt"): ("trees", "cc_tree_ensemble"),
    ("cc", "perceptron-pseudopoly"): ("perceptron", "cc_perceptron_pseudopoly"),
    ("expect", "oracle"): ("oracle", "oracle_expected_value"),
    ("expect", "tree-fpt"): ("trees", "expected_value_tree_ensemble"),
    ("expect", "perceptron-pseudopoly"): ("perceptron", "expected_value_perceptron"),
}


_FALLBACK = "no fast algorithm for {} on this model; falling back to the exponential oracle"


def _route(m, kind: str, algorithm: str, warnings: list[str]) -> str:
    """The route of a kind in _FAST: 'oracle' or '<family>-<algorithm>'."""
    if algorithm == "oracle":
        return "oracle"
    if isinstance(m, DecisionTree) and (kind, "tree-direct") in _ENGINES:
        family, fast = "tree", "direct"
    elif isinstance(m, DecisionTree) or is_tree_ensemble(m):
        family, fast = "tree", _FAST[kind][0]
    elif isinstance(m, Perceptron):
        family, fast = "perceptron", _FAST[kind][1]
    elif algorithm != "auto":
        raise UnsupportedModelError(
            f"no {algorithm} algorithm for {kind} on this model")
    else:
        warnings.append(_FALLBACK.format(kind))
        return "oracle"
    if algorithm not in ("auto", fast):
        raise UnsupportedModelError(
            f"algorithm {algorithm!r} does not apply to {kind} on this model "
            f"(would use {family}-{fast})")
    return f"{family}-{fast}"


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
        dist = _dist(dist, n)
        if feature is not None and not (type(feature) is int and 0 <= feature < n):
            raise InvalidInstanceError(f"feature {shown(feature)} outside 0..{shown(n - 1)}")
        from . import attribution
        method = {"fpt": "interpolation", "direct": "pseudopoly"}.get(algorithm, algorithm)
        report = attribution.shap_report(model, x, dist, method=method)
        route = report.method
        if algorithm == "auto" and route == "oracle":
            warnings.append(_FALLBACK.format(kind))
        payload.update({"method": route, "expected": rational_str(report.expected),
                        "total": rational_str(report.total)})
        if feature is None:
            payload["values"] = [rational_str(v) for v in report.values]
        else:
            payload.update({"feature": feature, "answer": rational_str(report.values[feature])})

    elif kind == "enumerate-contrastive":
        if type(minimal_only) is not bool:
            raise InvalidInstanceError(
                f"minimal_only must be true or false, got {shown(minimal_only)}")
        if isinstance(model, DecisionTree):
            model = majority_ensemble((model,))
        if not is_tree_ensemble(model):
            raise UnsupportedModelError(
                "contrastive-candidate enumeration is a tree-ensemble algorithm")
        if algorithm not in ("auto", "fpt"):
            raise InvalidInstanceError(
                f"algorithm {algorithm!r} does not apply to enumeration")
        from . import trees
        cands = trees.enumerate_candidate_contrastive(model, x, filter_minimal=minimal_only)
        payload.update({"minimal_only": minimal_only,
                        "candidates": list(map(list, cands)),
                        "count": len(cands)})
        route = "tree-fpt"

    else:
        if kind in ("csr", "cc"):
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
        route = _route(model, kind, algorithm, warnings)
        if route == "tree-fpt" and isinstance(model, DecisionTree):
            model = majority_ensemble((model,))
        module, name = _ENGINES[kind, route]
        answer = getattr(import_module(f".{module}", __package__), name)(model, *args)
        if answer is ABSENT:  # mcr/msr with no witness
            payload.update({"answer": False, "size": None, "witness": None})
        elif kind in ("mcr", "msr"):
            size, witness = answer
            payload.update({"answer": size <= bound, "size": size,
                            "witness": list(witness)})
        else:
            payload["answer"] = answer if kind == "csr" else rational_str(answer)

    payload["algorithm"] = route
    payload["warnings"] = warnings
    return payload
