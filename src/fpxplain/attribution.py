"""Exact Shapley attribution: reports, identities and the tree views.

runner.route picks the Shapley route from the model family, as it does
for every query kind, and shap_report runs it. All routes are exact:
* the "interpolation" route: for tree ensembles, trees.cylinder_sums,
  one pass over the accepted cylinders of the tree scan, yields the
  size-stratified sums H(k) and every Shapley value; size_stratified_sums
  and shap_interpolation are views of the last pass
* shap_perceptron_pseudopoly (in .perceptron): one subset-sum table of
  the perceptron gives H(k), and exact division by one feature's factor
  gives the table of the model conditioned on that feature
* oracle_shap (in .oracle), with oracle_expected_value: the capped
  brute-force route, the only one for ensembles of perceptrons or of
  mixed members, which have no polynomial route

The tree route keeps the method label "interpolation" so that payloads
stay byte-identical across versions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import InvalidInstanceError, UnsupportedModelError
from .models import (
    Ensemble, Instance, Model, ProductDistribution, Record, check_dist,
    check_instance, check_subset, eval_model, is_tree_ensemble,
)

# The engines (trees, perceptron, oracle) and runner's route table are
# imported by the functions that use them, so a query process loads only
# its route's engine.


def _check_tree_query(e: Ensemble, x: Instance, dist: ProductDistribution) -> Instance:
    """x as a tuple, after checking the query's arguments."""
    if not is_tree_ensemble(e):
        raise UnsupportedModelError("tree Shapley and H tables expect an ensemble of trees")
    n = e.feature_count
    x = check_instance(x, n)
    check_dist(dist, n)
    return x


@lru_cache(maxsize=1)
def _full_pass(e: Ensemble, x: Instance,
               dist: ProductDistribution) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The (H, phi) of the last (e, x, dist): a loop of shap_interpolation
    over the features, or one after size_stratified_sums, pays one pass."""
    from .trees import cylinder_sums
    return cylinder_sums(e, x, dist)


def size_stratified_sums(e: Ensemble, x: Instance,
                         dist: ProductDistribution) -> tuple[Fraction, ...]:
    """H(k) = sum over size-k subsets s of E[f | z_s = x_s].

    Tree ensembles only. The H(k) are the coefficients of the summed
    cylinder polynomials; see trees.cylinder_sums. x is checked and made a
    tuple before the cache sees it, so any sequence of bits will do.
    """
    return _full_pass(e, _check_tree_query(e, x, dist), dist)[0]


size_stratified_sums.cache_info = _full_pass.cache_info
size_stratified_sums.cache_clear = _full_pass.cache_clear


def shap_interpolation(e: Ensemble, x: Instance, i: int, dist: ProductDistribution) -> Fraction:
    """Shapley value of feature i for a tree ensemble, from one cylinder pass.

    The pass of the last (e, x, dist) is kept, so a loop over the
    features pays for one pass; see trees.cylinder_sums.
    """
    x = _check_tree_query(e, x, dist)
    check_subset((i,), e.feature_count)
    return _full_pass(e, x, dist)[1][i]


# ---------------------------------------------------------------------------
# reports and identities


class ShapReport(Record):
    """A full attribution vector plus the data its identities refer to."""

    values: tuple[Fraction, ...]
    prediction: int
    expected: Fraction
    method: str

    def __init__(self, values: tuple[Fraction, ...], prediction: int,
                 expected: Fraction, method: str):
        self._set(values=values, prediction=prediction, expected=expected,
                  method=method)

    @property
    def total(self) -> Fraction:
        """The sum of the values, over the lcm of their denominators, so
        that it is normalised once."""
        common = lcm(*(v.denominator for v in self.values))
        return Fraction(sum(v.numerator * (common // v.denominator) for v in self.values),
                        common)


def shap_report(m: Model, x: Instance, dist: ProductDistribution,
                method: str = "auto") -> ShapReport:
    """Compute attributions by the named method and package them up.

    method: auto | interpolation | pseudopoly | oracle, resolved by
    runner.route, the one table of every query kind's routes: auto picks
    interpolation, the one-pass cylinder route, for trees, pseudopoly for
    perceptrons, and the capped oracle for any other model. Any other
    method is an InvalidInstanceError, checked first, as run_query checks
    an unknown algorithm.
    """
    if method not in ("auto", "interpolation", "pseudopoly", "oracle"):
        raise InvalidInstanceError(f"unknown attribution method {method!r}")
    from .runner import route
    x = check_instance(x, m.feature_count)
    method, m, _ = route(m, "shap", method, [])
    if method == "interpolation":
        from .trees import cylinder_sums
        h, values = cylinder_sums(m, _check_tree_query(m, x, dist), dist)
        expected = h[0]
    elif method == "pseudopoly":
        from .perceptron import h_table_perceptron, shap_perceptron_pseudopoly
        values = shap_perceptron_pseudopoly(m, x, dist)
        expected = h_table_perceptron(m, x, dist)[0]
    else:
        from .oracle import oracle_expected_value, oracle_shap
        values = oracle_shap(m, x, dist)
        expected = oracle_expected_value(m, dist)
    return ShapReport(values, eval_model(m, x), expected, method)


def check_efficiency(report: ShapReport) -> bool:
    """Attributions must add up to prediction minus expectation, exactly."""
    return report.total == report.prediction - report.expected


def check_model_count_identity(report: ShapReport, count: int, n: int) -> bool:
    """Under the uniform distribution, 2^n (f(x) - sum phi) equals |f^-1(1)|."""
    return (report.prediction - report.total) * (1 << n) == count
