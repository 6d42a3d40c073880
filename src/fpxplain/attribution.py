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
with t^k weighted by k! (n-k-1)! / n!. A feature no member tests is
free in every cylinder, and the weighted sum absorbs its factor 1 + t:
with L_m(R) = sum_k R_k k! (m-1-k)!, L_n(R (1 + t)^(n - s)) =
(n! / s!) L_s(R). So the pass runs over S, the s features some member
tests, with weights k! (s-1-k)! / s!, and phi_i = 0 outside S. Each
cylinder's polynomial is the product of a prefix factor, over the
features outside those the last tree tests, kept for a run of prefixes
that agree there, and a row factor over the last tree's features, kept
for the call. The cylinders fixing i to V_i share i's factor, so their
polynomials are summed, packed into one integer, and the factor is
removed by one exact division after the pass; the bucket with
V_i != x_i needs no division, since its factor is a constant, and a
feature's two buckets are read together as one signed polynomial.
The route keeps the method label "interpolation" so that payloads stay
byte-identical across versions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial, lcm, prod

from .errors import InvalidInstanceError, UnsupportedModelError
from .models import (
    DecisionTree, Ensemble, Instance, Model, Perceptron, ProductDistribution,
    Record, check_dist, check_instance, check_subset, eval_model,
    is_tree_ensemble, majority_ensemble, packed_dot,
)

# The engines (trees, perceptron, oracle) are imported by the
# functions that call them, so a query process loads only its route's.


def _check_tree_query(e: Ensemble, x: Instance, dist: ProductDistribution) -> Instance:
    """x as a tuple, after checking the query's arguments."""
    if not is_tree_ensemble(e):
        raise UnsupportedModelError("tree Shapley and H tables expect an ensemble of trees")
    n = e.feature_count
    x = check_instance(x, n)
    check_dist(dist, n)
    return x


def _cylinder_sums(e: Ensemble, x: Instance,
                   dist: ProductDistribution) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(H, phi) of a tree ensemble at x, from one cylinder pass.

    H[k] sums E[f | z_s = x_s] over the size-k subsets s; phi[i] is the
    Shapley value of feature i. The pass works over S, the s features
    some member tests: the others are free in every cylinder. With
    a_i = den_i p_i(V_i) and b_i = den_i [V_i = x_i], a cylinder's factor
    is a_i + b_i t for a fixed feature and 1 + t for a free one of S.
    Packed at t = 2^slot over D_S, the product of the denominators on S,
    its product is one integer. H is the total times (1 + t)^(n - s), over
    D_S. For phi, L_m(R) = sum_k R_k k! (m-1-k)! satisfies
    L_n(R (1 + t)^(n - s)) = (n! / s!) L_s(R), so phi is over D_S s!, and
    phi_i = 0 outside S.

    The product splits at U, the features the last tree tests (see
    trees._prefixes): a prefix factor over S minus U, computed once per
    run of consecutive prefixes that agree outside U, and a row factor
    over U, computed once per row and call. A cylinder costs their one
    product, added to the buckets (i, V_i) of its features in U; a run
    adds its summed products to the total and to the buckets of its
    features outside U once.

    Feature i has two buckets. The one with V_i != x_i has b_i = 0, so
    its factor is the constant a_i and it adds -L_s(bucket). The other
    is divided exactly by a_i + b_i 2^slot into Q, and (b_i - a_i) Q
    minus the first bucket is read once, with 2^(slot-1) added to every
    cell. A bucket coefficient is below D_S 2^s, and so is
    (b_i - a_i) Q_k <= b_i Q_k, which is at most coefficient k + 1 of its
    bucket. The slot, sized for H, has 2^(slot-1) > D_S 2^(n+1), so every
    biased cell lies in (0, 2^slot).
    """
    from .trees import _members, _prefixes, _raw_triples, _support
    n = e.feature_count
    dens = [p.denominator for p in dist.probs]
    factors = []  # 2 i + v -> (a_i, b_i) of feature i fixed to v
    for p, d, xi in zip(dist.probs, dens, x):
        factors += [(d - p.numerator, d * (xi == 0)), (p.numerator, d * (xi == 1))]
    lists = _raw_triples(e)
    inside = _support(lists[-1])
    support = inside
    for paths in lists[:-1]:
        support |= _support(paths)
    feats = _members(support)
    s, u = len(feats), inside.bit_count()
    d_in = prod(dens[i] for i in _members(inside))
    d_out = prod(dens[i] for i in _members(support & ~inside))
    common = d_in * d_out
    # every coefficient of the total times (1 + t)^(n - s), of a bucket
    # and of its quotient is below D_S 2^n (the cylinders are disjoint),
    # so no slot carries
    slot = -(-(common.bit_length() + n + 2) // 8) * 8
    one = 1 << slot
    binoms: dict[int, int] = {}  # free count r -> packed (1 + t)^r

    def part(mask: int, vals: int, free: int, scale: int) -> tuple[int, list[int]]:
        """(packed scale / d_M prod_{i in M} (a_i + b_i t) (1 + t)^(free - |M|),
        bucket keys) of the features M in mask fixed to vals."""
        r = free - mask.bit_count()
        poly = binoms.get(r)
        if poly is None:
            poly = binoms[r] = (1 + one) ** r
        d, keys = 1, []
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            key = 2 * i + ((vals >> i) & 1)
            a, b = factors[key]
            d *= dens[i]
            poly = a * poly + ((b * poly) << slot) if b else a * poly
            keys.append(key)
        return scale // d * poly, keys

    total = 0
    buckets = [0] * (2 * n)  # 2 i + v -> packed sum over the cylinders fixing i to v
    rows_seen: dict[tuple[int, int], tuple[int, list[int]]] = {}
    outside = ~inside
    runs = groupby(_prefixes(lists, e.voting, 1), lambda p: (p[0] & outside, p[1] & outside))
    for (om, ov), run in runs:
        head, k_out = part(om, ov, s - u, d_out)
        acc = 0
        for _, _, rows in run:
            for row in rows:
                got = rows_seen.get(row)
                if got is None:
                    got = rows_seen[row] = part(*row, u, d_in)
                tail, k_in = got
                f = head * tail
                acc += f
                for key in k_in:
                    buckets[key] += f
        total += acc
        for key in k_out:
            buckets[key] += acc
    step = slot // 8
    raw = (total * (1 + one) ** (n - s)).to_bytes((n + 1) * step, "little")
    h = tuple(Fraction(int.from_bytes(raw[at:at + step], "little"), common)
              for at in range(0, len(raw), step))

    fact = [factorial(j) for j in range(s + 1)]
    coef = [fact[k] * fact[s - k - 1] for k in range(s)]
    bias = int.from_bytes((bytes(step - 1) + b"\x80") * s, "little")
    offset = (one >> 1) * sum(coef)
    scaled = common * fact[s]
    zero = Fraction(0)
    phi = [zero] * n
    for i in feats:
        a, b = factors[2 * i + x[i]]
        near, far = buckets[2 * i + x[i]], buckets[2 * i + 1 - x[i]]
        if near or far:
            signed = (b - a) * (near // (a + (b << slot))) - far
            phi[i] = Fraction(packed_dot(signed + bias, step, coef) - offset, scaled)
    return h, tuple(phi)


# the pass of the last (e, x, dist): a loop of shap_interpolation over the
# features, or one after size_stratified_sums, pays for one pass
_full_pass = lru_cache(maxsize=1)(_cylinder_sums)


def size_stratified_sums(e: Ensemble, x: Instance, dist: ProductDistribution) -> HTable:
    """H(k) = sum over size-k subsets s of E[f | z_s = x_s].

    Tree ensembles only. The H(k) are the coefficients of the summed
    cylinder polynomials; see _cylinder_sums. x is checked and made a
    tuple before the cache sees it, so any sequence of bits will do.
    """
    from .perceptron import HTable
    return HTable(_full_pass(e, _check_tree_query(e, x, dist), dist)[0])


size_stratified_sums.cache_info = _full_pass.cache_info
size_stratified_sums.cache_clear = _full_pass.cache_clear


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
