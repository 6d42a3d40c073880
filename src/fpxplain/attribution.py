"""Exact Shapley attribution and the identities it must satisfy.

Three routes, all exact:
* shap_enum: the defining sum over feature subsets, with conditional
  expectations computed by conditioning the model (exponential in n but
  polynomial per term; fine for small n)
* the "interpolation" route (shap_interpolation, size_stratified_sums):
  for tree ensembles, one pass over the accepted cylinders yields the
  size-stratified sums H(k) and every Shapley value
* shap_perceptron_pseudopoly (in .perceptron): one subset-sum table of
  the perceptron gives H(k), and exact division by one feature's factor
  gives the table of the model conditioned on that feature

The accepted instances of a tree ensemble split into disjoint cylinders
(M, V): the features in M are fixed to V, the others are free. Given
z_s = x_s, a cylinder has probability prod_{i in M} of [V_i = x_i] for
i in s and p_i(V_i) otherwise, so its generating polynomial in t (t
marking membership in s) is

    prod_{i in M} (p_i(V_i) + t [V_i = x_i]) * (1 + t)^(n - |M|),

and the coefficients of the sum over cylinders are the H(k). The Shapley
value phi_i takes from each cylinder fixing i the factor
[V_i = x_i] - p_i(V_i) times the same polynomial without i's factor,
with t^k weighted by k! (n-k-1)! / n!. The route keeps the method label
"interpolation" so that payloads stay byte-identical across versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from . import _config
from .errors import ResourceCapError, UnsupportedModelError
from .models import (
    DecisionTree, Ensemble, Instance, Majority, Model, Perceptron,
    ProductDistribution, bits_to_int, check_instance, check_subset, eval_model,
    is_tree_ensemble, subset_mask,
)
from .perceptron import (
    HTable, expected_value_perceptron, h_table_perceptron,
    shap_perceptron_pseudopoly,
)
from .transforms import condition_model
from .trees import _raw_triples, _selections, expected_value_tree_ensemble


def _check_tree_query(e: Ensemble, x: Instance, dist: ProductDistribution) -> Instance:
    if not is_tree_ensemble(e):
        raise UnsupportedModelError("tree Shapley and H tables expect an ensemble of trees")
    n = e.feature_count
    x = check_instance(x, n)
    if dist.feature_count != n:
        raise ValueError(f"distribution over {dist.feature_count} features, model has {n}")
    return x


def _cylinder_sums(e: Ensemble, x: Instance, dist: ProductDistribution,
                   features) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(H, phi) of the game on the ground set `features`, from one cylinder pass.

    H[k] sums E[f | z_s = x_s] over the size-k subsets s of `features`;
    phi[i] is the Shapley value of feature i in that game (0 outside it).
    A fixed feature i of a cylinder contributes the factor a_i + b_i t with
    a_i = den_i p_i(V_i) and b_i = den_i [V_i = x_i]; a fixed feature
    outside the ground set contributes a_i, a free one 1. All sums are
    integers over D = prod(den_i), and over D |F|! for phi.
    """
    n = e.feature_count
    ground = subset_mask(features)
    size = ground.bit_count()
    xbits = bits_to_int(x)
    nums = [p.numerator for p in dist.probs]
    dens = [p.denominator for p in dist.probs]
    common = prod(dens)
    fact = [factorial(j) for j in range(size + 1)]
    coef = [fact[k] * fact[size - k - 1] for k in range(size)]
    weights: dict[int, list[int]] = {}  # free count r -> w_r
    by_free: dict[int, list[int]] = {}  # free count r -> summed fixed-factor product
    phi = [0] * n
    for mask, vals in _selections(_raw_triples(e), e.voting, 1):
        scale = common
        fixed = []  # (feature, a, b) for the fixed features in the ground set
        mm = mask
        while mm:
            low = mm & -mm
            i = low.bit_length() - 1
            mm ^= low
            d = dens[i]
            a = nums[i] if (vals >> i) & 1 else d - nums[i]
            if (ground >> i) & 1:
                scale //= d
                fixed.append((i, a, 0 if ((vals ^ xbits) >> i) & 1 else d))
            else:
                scale = scale // d * a
        q = len(fixed)
        r = size - q
        w = weights.get(r)
        if w is None:
            w = weights[r] = [sum(comb(r, l) * coef[j + l] for l in range(r + 1))
                              for j in range(q)]
        # tails[s][j] = sum_l suffix_s[l] w[j + l], suffix_s the product of
        # the fixed factors s..q-1; phi_i dots the prefix before i with it
        tails = [None] * q + [w]
        for s in range(q - 1, 0, -1):
            _, a, b = fixed[s]
            nxt = tails[s + 1]
            tails[s] = [a * nxt[j] + b * nxt[j + 1] for j in range(s)]
        poly = [scale]
        for s, (i, a, b) in enumerate(fixed):
            phi[i] += (b - a) * sum(c * g for c, g in zip(poly, tails[s + 1]))
            nxt = [a * c for c in poly] + [0]
            if b:
                for j, c in enumerate(poly):
                    nxt[j + 1] += b * c
            poly = nxt
        acc = by_free.get(r)
        if acc is None:
            by_free[r] = poly
        else:
            for j, c in enumerate(poly):
                acc[j] += c
    total = [0] * (size + 1)
    for r, poly in by_free.items():
        binom = [comb(r, l) for l in range(r + 1)]
        for j, c in enumerate(poly):
            for l, bl in enumerate(binom):
                total[j + l] += c * bl
    scaled = common * fact[size]
    return (tuple(Fraction(c, common) for c in total),
            tuple(Fraction(v, scaled) for v in phi))


@lru_cache(maxsize=64)
def size_stratified_sums(e: Ensemble, x: Instance, dist: ProductDistribution,
                         features: tuple[int, ...] | None = None) -> HTable:
    """H(k) = sum over size-k subsets of `features` of E[f | z_s = x_s].

    Tree ensembles only. `features` defaults to all of them; features
    outside it are never fixed to x and keep their distribution. Summed
    over s, t^|s| E[f | z_s = x_s] is the sum over the accepted cylinders
    (M, V) of prod_{i in M} (p_i(V_i) + t [V_i = x_i]) (1 + t)^free, so
    one pass over the cylinders gives every H(k) as a coefficient; the
    (1 + t)^free factor is expanded once per free count.
    """
    x = _check_tree_query(e, x, dist)
    n = e.feature_count
    features = range(n) if features is None else check_subset(features, n)
    h, _ = _cylinder_sums(e, x, dist, features)
    return HTable(h)


def _shap_coefficients(n: int) -> list[Fraction]:
    fact = [factorial(j) for j in range(n + 1)]
    return [Fraction(fact[k] * fact[n - k - 1], fact[n]) for k in range(n)]


def shap_interpolation(e: Ensemble, x: Instance, i: int, dist: ProductDistribution) -> Fraction:
    """Shapley value of feature i for a tree ensemble, from one cylinder pass.

    Each accepted cylinder that fixes i adds (b_i - a_i) times the product
    of its other fixed factors and (1 + t)^free, with t^k weighted by
    k! (n-k-1)! / n!; see _cylinder_sums.
    """
    x = _check_tree_query(e, x, dist)
    n = e.feature_count
    if not (0 <= i < n):
        raise ValueError(f"feature {i} outside 0..{n - 1}")
    return _cylinder_sums(e, x, dist, range(n))[1][i]


def _default_expectation(m: Model, dist: ProductDistribution) -> Fraction:
    if isinstance(m, Perceptron):
        return expected_value_perceptron(m, dist)
    if isinstance(m, DecisionTree):
        return expected_value_tree_ensemble(Ensemble((m,), Majority()), dist)
    if is_tree_ensemble(m):
        return expected_value_tree_ensemble(m, dist)
    if isinstance(m, Ensemble):
        # Mixed or perceptron ensembles: no polynomial route, but enum is
        # already exponential so the capped oracle is an honest backend.
        from .oracle import oracle_expected_value
        return oracle_expected_value(m, dist)
    raise UnsupportedModelError(
        f"no expectation backend for {type(m).__name__}; pass one explicitly")


def shap_enum(m: Model, x: Instance, dist: ProductDistribution,
              backend=None) -> tuple[Fraction, ...]:
    """Shapley values straight from the defining subset sum.

    v(s) is the expectation of the model conditioned on z_s = x_s,
    computed by `backend(conditioned_model, dist)`. Exponential in the
    feature count, hence capped.
    """
    n = m.feature_count
    cap = _config.shap_enum_cap()
    if n > cap:
        raise ResourceCapError(
            f"shap_enum refuses n={n} features (cap {cap}); "
            f"raise {_config.SHAP_ENUM_CAP_VAR} if you really want this")
    x = check_instance(x, n)
    if dist.feature_count != n:
        raise ValueError(f"distribution over {dist.feature_count} features, model has {n}")
    if backend is None:
        backend = _default_expectation

    v_cache: dict[int, Fraction] = {}

    def v(smask: int) -> Fraction:
        got = v_cache.get(smask)
        if got is None:
            subset = tuple(i for i in range(n) if (smask >> i) & 1)
            got = backend(condition_model(m, x, subset), dist)
            v_cache[smask] = got
        return got

    coef = _shap_coefficients(n)
    phis = []
    for i in range(n):
        bit = 1 << i
        total = Fraction(0)
        for smask in range(1 << n):
            if smask & bit:
                continue
            total += coef[smask.bit_count()] * (v(smask | bit) - v(smask))
        phis.append(total)
    return tuple(phis)


# ---------------------------------------------------------------------------
# reports and identities


@dataclass(frozen=True)
class ShapReport:
    """A full attribution vector plus the data its identities refer to."""

    values: tuple[Fraction, ...]
    prediction: int
    expected: Fraction
    method: str

    @property
    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))


def shap_report(m: Model, x: Instance, dist: ProductDistribution,
                method: str = "auto") -> ShapReport:
    """Compute attributions by the named method and package them up.

    method: auto | interpolation | pseudopoly | enum. auto picks
    interpolation, the one-pass cylinder route, for tree ensembles (single
    trees are wrapped) and the pseudo-polynomial route for perceptrons.
    """
    if isinstance(m, DecisionTree):
        m = Ensemble((m,), Majority())
    n = m.feature_count
    x = check_instance(x, n)
    if method == "auto":
        if is_tree_ensemble(m):
            method = "interpolation"
        elif isinstance(m, Perceptron):
            method = "pseudopoly"
        else:
            method = "enum"
    if method == "interpolation":
        h, values = _cylinder_sums(m, _check_tree_query(m, x, dist), dist, range(n))
        expected = h[0]
    elif method == "pseudopoly":
        if not isinstance(m, Perceptron):
            raise UnsupportedModelError("pseudopoly attribution is for perceptrons")
        values = shap_perceptron_pseudopoly(m, x, dist)
        expected = h_table_perceptron(m, x, dist).values[0]
    elif method == "enum":
        values = shap_enum(m, x, dist)
        expected = _default_expectation(m, dist)
    else:
        raise ValueError(f"unknown attribution method {method!r}")
    return ShapReport(values, eval_model(m, x), expected, method)


def check_efficiency(report: ShapReport) -> bool:
    """Attributions must add up to prediction minus expectation, exactly."""
    return report.total == report.prediction - report.expected


def check_model_count_identity(report: ShapReport, count: int, n: int) -> bool:
    """Under the uniform distribution, 2^n (f(x) - sum phi) equals |f^-1(1)|."""
    return (report.prediction - report.total) * (1 << n) == count
