"""Exact Shapley attribution and the identities it must satisfy.

shap_report is the one place that picks a Shapley route, one per model
family. All are exact:
* the "interpolation" route (shap_interpolation, size_stratified_sums):
  for tree ensembles, one pass over the accepted cylinders yields the
  size-stratified sums H(k) and every Shapley value
* shap_perceptron_pseudopoly (in .perceptron): one subset-sum table of
  the perceptron gives H(k), and exact division by one feature's factor
  gives the table of the model conditioned on that feature
* oracle_shap (in .oracle), with oracle_expected_value: the capped
  brute-force route, the only one for ensembles of perceptrons or of
  mixed members, which have no polynomial route

The accepted instances of a tree ensemble split into disjoint cylinders
(M, V): the features in M are fixed to V, the others are free. Given
z_s = x_s, a cylinder has probability prod_{i in M} of [V_i = x_i] for
i in s and p_i(V_i) otherwise, so its generating polynomial in t (t
marking membership in s) is

    prod_{i in M} (p_i(V_i) + t [V_i = x_i]) * (1 + t)^(n - |M|),

and the coefficients of the sum over cylinders are the H(k). The Shapley
value phi_i takes from each cylinder fixing i the factor
[V_i = x_i] - p_i(V_i) times the same polynomial without i's factor,
with t^k weighted by k! (n-k-1)! / n!. The cylinders fixing i to V_i
share i's factor, so their polynomials are summed, packed into one
integer, and the factor is removed by one exact division after the pass.
The route keeps the method label "interpolation" so that payloads stay
byte-identical across versions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .errors import InvalidInstanceError, UnsupportedModelError
from .models import (
    DecisionTree, Ensemble, Instance, Model, Perceptron, ProductDistribution,
    Record, check_dist, check_instance, check_subset, eval_model,
    is_tree_ensemble, majority_ensemble,
)

# The engines (trees, perceptron, oracle) are imported by the
# functions that call them, so a query process loads only its route's.


def _check_tree_query(e: Ensemble, x: Instance, dist: ProductDistribution) -> Instance:
    """x as a tuple, after checking the query's arguments and every member.

    _full_pass and _h_table key on values, and a tree whose leaf label is
    True equals its twin with label 1, so each member's arena is checked
    here, before a cache can answer for it.
    """
    if not is_tree_ensemble(e):
        raise UnsupportedModelError("tree Shapley and H tables expect an ensemble of trees")
    n = e.feature_count
    x = check_instance(x, n)
    check_dist(dist, n)
    for t in e.members:
        t.paths  # raises InvalidInstanceError on an invalid arena
    return x


def _cylinder_sums(e: Ensemble, x: Instance,
                   dist: ProductDistribution) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(H, phi) of a tree ensemble at x, from one cylinder pass.

    H[k] sums E[f | z_s = x_s] over the size-k subsets s; phi[i] is the
    Shapley value of feature i. With a_i = den_i p_i(V_i) and
    b_i = den_i [V_i = x_i], a cylinder's factor is a_i + b_i t for a fixed
    feature and 1 + t for a free one. Packed at t = 2^slot over
    D = prod(den_i), its product is one integer, added to the total and to
    its buckets (i, V_i); dividing a bucket exactly by a_i + b_i 2^slot
    drops i's factor. phi is over D n!.

    The product splits at U, the features the last tree tests (see
    trees._prefixes): the part outside U is the prefix's and repeats
    across consecutive prefixes, so it is recomputed only when it changes,
    and the part inside U is an entry row's, computed once per call.
    """
    from .trees import _prefixes, _raw_triples, _support
    n = e.feature_count
    dens = [p.denominator for p in dist.probs]
    factors = []  # 2 i + v -> (a_i, b_i) of feature i fixed to v
    for p, d, xi in zip(dist.probs, dens, x):
        factors += [(d - p.numerator, d * (xi == 0)), (p.numerator, d * (xi == 1))]
    common = prod(dens)
    # every coefficient of the total, of a bucket and of its quotient is
    # below D 2^n (the cylinders are disjoint), so no slot carries
    slot = -(-(common.bit_length() + n + 2) // 8) * 8

    def part(mask: int, vals: int) -> tuple[int, int, list[int]]:
        """(product of the denominators, packed product of the factors,
        bucket keys) of the features in mask fixed to vals."""
        d, poly, keys = 1, 1, []
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            key = 2 * i + ((vals >> i) & 1)
            a, b = factors[key]
            d *= dens[i]
            poly = a * poly + ((b * poly) << slot)
            keys.append(key)
        return d, poly, keys

    binoms: dict[int, int] = {}  # free count r -> packed (1 + t)^r
    total = 0
    buckets = [0] * (2 * n)  # 2 i + v -> packed sum over the cylinders fixing i to v
    lists = _raw_triples(e)
    outside = ~_support(lists[-1])
    inner: dict[tuple[int, int], tuple[int, int, list[int]]] = {}
    out_key = None
    for pm, pv, rows in _prefixes(lists, e.voting, 1):
        key = (pm & outside, pv & outside)
        if key != out_key:
            out_key = key
            d_out, p_out, k_out = part(*key)
        for row in rows:
            got = inner.get(row)
            if got is None:
                got = inner[row] = part(*row)
            d_in, p_in, k_in = got
            keys = k_out + k_in
            r = n - len(keys)
            binom = binoms.get(r)
            if binom is None:
                binom = binoms[r] = (1 + (1 << slot)) ** r
            f = common // (d_out * d_in) * (p_out * p_in) * binom
            total += f
            for key in keys:
                buckets[key] += f
    step = slot // 8
    width = (n + 1) * step

    def unpack(packed: int) -> list[int]:
        raw = packed.to_bytes(width, "little")
        return [int.from_bytes(raw[k:k + step], "little") for k in range(0, width, step)]

    fact = [factorial(j) for j in range(n + 1)]
    coef = [fact[k] * fact[n - k - 1] for k in range(n)]
    phi = [0] * n
    for key, packed in enumerate(buckets):
        if packed:
            a, b = factors[key]
            quot = unpack(packed // (a + (b << slot)))
            phi[key >> 1] += (b - a) * sum(c * w for c, w in zip(quot, coef))
    scaled = common * fact[n]
    return (tuple(Fraction(c, common) for c in unpack(total)),
            tuple(Fraction(v, scaled) for v in phi))


# the pass of the last (e, x, dist): a loop of shap_interpolation over the
# features, or one after size_stratified_sums, pays for one pass
_full_pass = lru_cache(maxsize=1)(_cylinder_sums)


@lru_cache(maxsize=64)
def _h_table(e: Ensemble, x: Instance, dist: ProductDistribution) -> HTable:
    from .perceptron import HTable
    return HTable(_full_pass(e, x, dist)[0])


def size_stratified_sums(e: Ensemble, x: Instance, dist: ProductDistribution) -> HTable:
    """H(k) = sum over size-k subsets s of E[f | z_s = x_s].

    Tree ensembles only. The H(k) are the coefficients of the summed
    cylinder polynomials; see _cylinder_sums. x is checked and made a
    tuple before the cache sees it, so any sequence of bits will do.
    """
    return _h_table(e, _check_tree_query(e, x, dist), dist)


size_stratified_sums.cache_info = _h_table.cache_info
size_stratified_sums.cache_clear = _h_table.cache_clear


def shap_interpolation(e: Ensemble, x: Instance, i: int, dist: ProductDistribution) -> Fraction:
    """Shapley value of feature i for a tree ensemble, from one cylinder pass.

    The pass of the last (e, x, dist) is kept, so a loop over the
    features pays for one pass; see _cylinder_sums.
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

    method: auto | interpolation | pseudopoly | oracle. auto picks
    interpolation, the one-pass cylinder route, for tree ensembles (single
    trees are wrapped), the pseudo-polynomial route for perceptrons, and
    the capped oracle for any other model: ensembles of perceptrons or of
    mixed members have no polynomial route. Any other method is an
    InvalidInstanceError, checked first, as run_query checks an unknown
    algorithm.
    """
    if method not in ("auto", "interpolation", "pseudopoly", "oracle"):
        raise InvalidInstanceError(f"unknown attribution method {method!r}")
    if isinstance(m, DecisionTree):
        m = majority_ensemble((m,))
    n = m.feature_count
    x = check_instance(x, n)
    if method == "auto":
        if is_tree_ensemble(m):
            method = "interpolation"
        elif isinstance(m, Perceptron):
            method = "pseudopoly"
        else:
            method = "oracle"
    if method == "interpolation":
        h, values = _cylinder_sums(m, _check_tree_query(m, x, dist), dist)
        expected = h[0]
    elif method == "pseudopoly":
        if not isinstance(m, Perceptron):
            raise UnsupportedModelError("pseudopoly attribution is for perceptrons")
        from .perceptron import h_table_perceptron, shap_perceptron_pseudopoly
        values = shap_perceptron_pseudopoly(m, x, dist)
        expected = h_table_perceptron(m, x, dist).values[0]
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
