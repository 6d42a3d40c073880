"""Brute-force reference implementations of every query.

These enumerate completions or subsets directly from the definitions and
are the ground truth the fast paths are validated against. All of them
refuse inputs above a configurable feature-count cap so a stray call on a
big model fails fast.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from . import _config
from .errors import ResourceCapError
from .models import (
    ABSENT, Instance, Model, ProductDistribution, bits_to_int, check_dist,
    check_instance, check_model, check_subset, eval_model, shown, subset_mask,
)


def _checked_count(m: Model, what: str, shap: bool = False) -> int:
    """m's feature count, after refusing a non-model and a count past the
    oracle cap, or the Shapley oracle's."""
    check_model(m)
    n = m.feature_count
    if shap:
        cap, var = _config.shap_oracle_cap(), _config.SHAP_ORACLE_CAP_VAR
    else:
        cap, var = _config.oracle_cap(), _config.ORACLE_CAP_VAR
    if n > cap:
        raise ResourceCapError(
            f"{what} refuses n={shown(n)} features (cap {cap}); "
            f"raise {var} if you really want this")
    return n


@lru_cache(maxsize=64)
def _truth_table(m: Model) -> bytes:
    """f(z) for every z in 0..2^n-1, indexed by the bit encoding of z."""
    n = m.feature_count
    return bytes(eval_model(m, tuple((z >> i) & 1 for i in range(n)))
                 for z in range(1 << n))


def _flips(table: bytes, xi: int, vary: int) -> bool:
    """True iff f(z) != f(x) for some z that agrees with x outside the
    feature mask vary."""
    base, target, sub = xi & ~vary, table[xi], vary
    while True:
        if table[base | sub] != target:
            return True
        if sub == 0:
            return False
        sub = (sub - 1) & vary


def oracle_is_sufficient(m: Model, x: Instance, s) -> bool:
    """True iff every completion that agrees with x on s keeps f(x)."""
    n = _checked_count(m, "oracle_is_sufficient")
    x = check_instance(x, n)
    free = ((1 << n) - 1) ^ subset_mask(check_subset(s, n))
    return not _flips(_truth_table(m), bits_to_int(x), free)


def oracle_is_contrastive(m: Model, x: Instance, s) -> bool:
    """True iff flipping some features inside s changes the prediction."""
    n = _checked_count(m, "oracle_is_contrastive")
    x = check_instance(x, n)
    return _flips(_truth_table(m), bits_to_int(x), subset_mask(check_subset(s, n)))


def oracle_min_sufficient(m: Model, x: Instance) -> tuple[int, tuple[int, ...]]:
    """Smallest sufficient reason; lexicographically first witness on ties."""
    n = _checked_count(m, "oracle_min_sufficient")
    table, xi = _truth_table(m), bits_to_int(check_instance(x, n))
    for size in range(n + 1):
        for s in combinations(range(n), size):
            if not _flips(table, xi, ((1 << n) - 1) ^ subset_mask(s)):
                return size, s
    raise AssertionError("the full feature set is always sufficient")


def oracle_min_contrastive(m: Model, x: Instance):
    """Smallest contrastive reason as (size, witness), or ABSENT if none.

    No contrastive set exists exactly when the model is constant.
    """
    n = _checked_count(m, "oracle_min_contrastive")
    table, xi = _truth_table(m), bits_to_int(check_instance(x, n))
    for size in range(1, n + 1):
        for s in combinations(range(n), size):
            if _flips(table, xi, subset_mask(s)):
                return size, s
    return ABSENT


def oracle_completion_count(m: Model, x: Instance, s) -> Fraction:
    """Fraction of completions agreeing with x on s that keep f(x)."""
    n = _checked_count(m, "oracle_completion_count")
    x = check_instance(x, n)
    s = check_subset(s, n)
    table = _truth_table(m)
    xi = bits_to_int(x)
    smask = subset_mask(s)
    base = xi & smask
    free = ((1 << n) - 1) ^ smask
    target = table[xi]
    kept = 0
    sub = free
    while True:
        if table[base | sub] == target:
            kept += 1
        if sub == 0:
            break
        sub = (sub - 1) & free
    return Fraction(kept, 1 << (n - len(s)))


def oracle_expected_value(m: Model, dist: ProductDistribution) -> Fraction:
    """E[f(z)] under the product distribution, by full enumeration."""
    n = _checked_count(m, "oracle_expected_value")
    check_dist(dist, n)
    table = _truth_table(m)
    nums = [p.numerator for p in dist.probs]
    dens = [p.denominator for p in dist.probs]
    denom = 1
    for d in dens:
        denom *= d
    total = 0
    for z in range(1 << n):
        if not table[z]:
            continue
        w = 1
        for i in range(n):
            w *= nums[i] if (z >> i) & 1 else dens[i] - nums[i]
        total += w
    return Fraction(total, denom)


def oracle_model_count(m: Model) -> int:
    """|f^{-1}(1)|, the number of accepted instances."""
    n = _checked_count(m, "oracle_model_count")
    return sum(_truth_table(m))


# ---------------------------------------------------------------------------
# conditional-expectation table, Shapley values, size-stratified sums


@lru_cache(maxsize=16)
def _v_table(m: Model, x: Instance, dist: ProductDistribution) -> tuple[Fraction, ...]:
    """v[smask] = E[f | z_s = x_s] for every subset mask, by feature folding.

    Working from the highest feature down, each feature is either fixed to
    its x-value (subset member) or averaged out under its Bernoulli
    parameter; this yields all 2^n conditional expectations in O(n 2^n)
    exact operations instead of 3^n.
    """
    n = m.feature_count
    table = _truth_table(m)

    def fold(values: list[Fraction], feats: int) -> list[Fraction]:
        # values is indexed by assignments of the first `feats` features
        if feats == 0:
            return values
        half = 1 << (feats - 1)
        lo, hi = values[:half], values[half:]
        i = feats - 1
        q = dist.probs[i]
        fixed = fold(hi if x[i] else lo, feats - 1)
        averaged = fold([q * h + (1 - q) * l for l, h in zip(lo, hi)], feats - 1)
        out = [None] * (2 * len(fixed))
        bit = 1 << i
        for mask, val in enumerate(averaged):
            out[mask] = val
        for mask, val in enumerate(fixed):
            out[mask | bit] = val
        return out

    start = [Fraction(b) for b in table]
    return tuple(fold(start, n))


def clear_caches() -> None:
    """Empty the truth-table and conditional-expectation caches."""
    _truth_table.cache_clear()
    _v_table.cache_clear()


def oracle_h_table(m: Model, x: Instance, dist: ProductDistribution) -> tuple[Fraction, ...]:
    """H[k] = sum over all size-k subsets of E[f | z_s = x_s], k = 0..n."""
    n = _checked_count(m, "oracle_h_table", shap=True)
    x = check_instance(x, n)
    v = _v_table(m, x, dist)
    h = [Fraction(0)] * (n + 1)
    for mask, val in enumerate(v):
        h[mask.bit_count()] += val
    return tuple(h)


def oracle_shap(m: Model, x: Instance, dist: ProductDistribution) -> tuple[Fraction, ...]:
    """Exact Shapley attributions for every feature.

    phi_i = sum over s not containing i of
            |s|! (n-|s|-1)! / n! * (v(s + i) - v(s))
    with v(s) the conditional expectation of f given z_s = x_s.
    """
    n = _checked_count(m, "oracle_shap", shap=True)
    x = check_instance(x, n)
    check_dist(dist, n)
    v = _v_table(m, x, dist)
    fact = [factorial(j) for j in range(n + 1)]
    coef = [Fraction(fact[k] * fact[n - k - 1], fact[n]) for k in range(n)]
    phis = []
    for i in range(n):
        bit = 1 << i
        total = Fraction(0)
        for smask in range(1 << n):
            if smask & bit:
                continue
            total += coef[smask.bit_count()] * (v[smask | bit] - v[smask])
        phis.append(total)
    return tuple(phis)
