"""Every small integer perceptron against the oracle, through run_query:
weights in -2..2 on one or two features and in -1..1 on three, bias in
-3..3. Each query runs on the perceptron's fast route and on the oracle
route, and the payloads must agree in everything but the route label.
The test counts its queries, so that its scope cannot shrink unnoticed."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from fpxplain.models import Perceptron, ProductDistribution
from fpxplain.runner import run_query

BIASES = range(-3, 4)


def _perceptrons():
    for n, bound in ((1, 2), (2, 2), (3, 1)):
        for weights in product(range(-bound, bound + 1), repeat=n):
            for bias in BIASES:
                yield Perceptron(weights, bias)


def _queries(n: int):
    """(kind, x, keyword arguments) of every query on an n-feature model."""
    dists = (ProductDistribution.uniform(n), ProductDistribution((Fraction(1, 3),) * n))
    subsets = [s for k in range(n + 1) for s in combinations(range(n), k)]
    for x in product((0, 1), repeat=n):
        for s in subsets:
            yield "csr", x, {"subset": s}
            yield "cc", x, {"subset": s}
        yield "mcr", x, {"bound": 1}
        yield "msr", x, {"bound": 1}
        for d in dists:
            yield "shap", x, {"dist": d}
    for d in dists:
        yield "expect", (0,) * n, {"dist": d}


def test_every_small_integer_perceptron():
    models, done = 0, Counter()
    for p in _perceptrons():
        models += 1
        for kind, x, kwargs in _queries(p.feature_count):
            fast = run_query(p, kind, x, **kwargs)
            oracle = run_query(p, kind, x, algorithm="oracle", **kwargs)
            assert fast["algorithm"] != "oracle" and fast["warnings"] == [], (p, kind)
            assert oracle["algorithm"] == "oracle", (p, kind)
            for payload in (fast, oracle):
                del payload["algorithm"]
                payload.pop("method", None)
            assert fast == oracle, (p, kind, x, kwargs)
            done[kind] += 2
    assert models == 399
    assert done == {"csr": 30072, "cc": 30072, "mcr": 4564, "msr": 4564, "shap": 9128,
                    "expect": 1596}
    assert sum(done.values()) == 79996
