"""Exact explanation queries on a single perceptron.

Sufficiency and contrastiveness reduce to worst-case interval reasoning
on the weighted sum, counting goes through pseudo-polynomial subset-sum
tables on the integer-scaled weights, and Shapley attribution is
assembled from size-stratified conditional expectation sums H(k). One
table of the agreement generating function serves a whole Shapley
query: H(k) are its prefix sums up to the threshold, and the tables of
the model conditioned on each feature follow from it by exact division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import NamedTuple

from . import _config
from .errors import ResourceCapError
from .models import (
    ABSENT, Instance, Perceptron, ProductDistribution, check_instance,
    check_subset,
)


def _score(p: Perceptron, x: Instance) -> Fraction:
    total = p.bias
    for w, xi in zip(p.weights, x):
        if xi:
            total += w
    return total


# ---------------------------------------------------------------------------
# sufficiency


def csr_perceptron(p: Perceptron, x: Instance, s) -> bool:
    """Worst-case completion check: the fixed part plus adversarial free
    weights must stay on the prediction's side of the threshold."""
    n = p.feature_count
    x = check_instance(x, n)
    s = check_subset(s, n)
    sset = set(s)
    fixed = p.bias
    worst_low = Fraction(0)
    worst_high = Fraction(0)
    for i, w in enumerate(p.weights):
        if i in sset:
            if x[i]:
                fixed += w
        else:
            if w < 0:
                worst_low += w
            elif w > 0:
                worst_high += w
    if _score(p, x) >= 0:
        return fixed + worst_low >= 0
    return fixed + worst_high < 0


# ---------------------------------------------------------------------------
# contrastive reasons


def _flip_benefits(p: Perceptron, x: Instance) -> tuple[list[Fraction], Fraction, bool]:
    """Per-feature gain toward overturning the prediction.

    Flipping feature i moves the score by delta_i = (1-2x_i) w_i. With
    target 1 we need the total score to drop below 0, with target 0 to
    reach 0; benefit is the helpful direction, clipped at 0.
    """
    score = _score(p, x)
    positive = score >= 0
    benefits = []
    for i, w in enumerate(p.weights):
        delta = -w if x[i] else w
        benefit = -delta if positive else delta
        benefits.append(benefit if benefit > 0 else Fraction(0))
    return benefits, score, positive


def _crosses(score: Fraction, benefit_sum: Fraction, positive: bool) -> bool:
    if positive:
        return benefit_sum > score
    return benefit_sum >= -score


def min_contrastive_perceptron(p: Perceptron, x: Instance):
    """(size, witness) of a smallest contrastive set, or ABSENT if none.

    The witness is the lexicographically first among the minimum-size
    contrastive sets: a set of flips overturns the prediction exactly when
    its benefit sum crosses the score gap, so feasibility of extending a
    prefix is a top-r benefit sum check.
    """
    n = p.feature_count
    x = check_instance(x, n)
    benefits, score, positive = _flip_benefits(p, x)
    ranked = sorted(benefits, reverse=True)
    best = Fraction(0)
    size = None
    for r in range(0, n + 1):
        if _crosses(score, best, positive):
            size = r
            break
        if r < n:
            best += ranked[r]
    if size is None or size == 0:
        # size 0 would mean x itself overturns its own prediction
        return ABSENT if size is None else (0, ())
    chosen: list[int] = []
    acc = Fraction(0)
    start = 0
    while len(chosen) < size:
        for i in range(start, n):
            need = size - len(chosen) - 1
            tail = sorted(benefits[i + 1:], reverse=True)[:need]
            if _crosses(score, acc + benefits[i] + sum(tail, Fraction(0)), positive):
                chosen.append(i)
                acc += benefits[i]
                start = i + 1
                break
        else:  # pragma: no cover
            raise AssertionError("feasible size must admit a witness")
    return size, tuple(chosen)


def mcr_perceptron(p: Perceptron, x: Instance, d: int) -> bool:
    """Is there a contrastive set of size at most d?"""
    res = min_contrastive_perceptron(p, x)
    return res is not ABSENT and res[0] <= d


# ---------------------------------------------------------------------------
# minimum sufficient reasons


def _fix_gains(p: Perceptron, x: Instance) -> tuple[list[Fraction], Fraction, bool]:
    """Per-feature gain toward sufficiency when fixing the feature to x.

    With target 1, an unfixed feature contributes min(0, w_i) in the worst
    case and w_i x_i once fixed; the deficit is measured against 0.
    """
    score = _score(p, x)
    positive = score >= 0
    gains = []
    base = p.bias
    for i, w in enumerate(p.weights):
        if positive:
            worst = w if w < 0 else Fraction(0)
            gain = (w if x[i] else Fraction(0)) - worst
        else:
            worst = w if w > 0 else Fraction(0)
            gain = worst - (w if x[i] else Fraction(0))
        base += worst
        gains.append(gain)
    # base is the worst-case score with nothing fixed; fixing a set adds its gains
    return gains, base, positive


def _gains_sufficient(base: Fraction, gain_sum: Fraction, positive: bool) -> bool:
    if positive:
        return base + gain_sum >= 0
    return base - gain_sum < 0


def min_sufficient_perceptron(p: Perceptron, x: Instance) -> tuple[int, tuple[int, ...]]:
    """(size, witness) of a minimum sufficient reason.

    Sufficiency of a set is monotone in its gain sum against a fixed
    worst-case base, so the minimum size comes from the top gains and the
    lexicographically first witness from a prefix-feasibility scan.
    """
    n = p.feature_count
    x = check_instance(x, n)
    gains, base, positive = _fix_gains(p, x)
    ranked = sorted(gains, reverse=True)
    acc = Fraction(0)
    size = None
    for r in range(0, n + 1):
        if _gains_sufficient(base, acc, positive):
            size = r
            break
        if r < n:
            acc += ranked[r]
    assert size is not None, "the full feature set is always sufficient"
    if size == 0:
        return 0, ()
    chosen: list[int] = []
    got = Fraction(0)
    start = 0
    while len(chosen) < size:
        for i in range(start, n):
            need = size - len(chosen) - 1
            tail = sorted(gains[i + 1:], reverse=True)[:need]
            if _gains_sufficient(base, got + gains[i] + sum(tail, Fraction(0)), positive):
                chosen.append(i)
                got += gains[i]
                start = i + 1
                break
        else:  # pragma: no cover
            raise AssertionError("feasible size must admit a witness")
    assert csr_perceptron(p, x, chosen)
    return size, tuple(chosen)


def msr_perceptron(p: Perceptron, x: Instance, d: int) -> bool:
    """Is there a sufficient reason of size at most d?"""
    size, _ = min_sufficient_perceptron(p, x)
    return size <= d


# ---------------------------------------------------------------------------
# pseudo-polynomial counting


def _check_dp_budget(cells: int, what: str):
    budget = _config.pseudo_budget()
    if cells > budget:
        # an integer past the 4,300-digit str limit cannot be printed
        about = cells if cells < 10 ** 30 else f"2^{cells.bit_length() - 1}"
        raise ResourceCapError(
            f"{what} needs about {about} DP cells, over the budget {budget}; "
            f"raise {_config.PSEUDO_BUDGET_VAR} to allow it")


def cc_perceptron_pseudopoly(p: Perceptron, x: Instance, s) -> Fraction:
    """Fraction of completions agreeing with x on s that keep the prediction.

    Subset-sum counting over the integer-scaled free weights; exact, with
    cost proportional to the number of distinct achievable sums.
    """
    n = p.feature_count
    x = check_instance(x, n)
    s = check_subset(s, n)
    sset = set(s)
    ws, b, _ = p.scaled
    fixed = b + sum(w for i, w in enumerate(ws) if i in sset and x[i])
    free = [ws[i] for i in range(n) if i not in sset]
    span = sum(abs(w) for w in free) + 1
    _check_dp_budget(span * max(1, len(free)), "cc_perceptron_pseudopoly")
    counts: dict[int, int] = {0: 1}
    for w in free:
        nxt: dict[int, int] = {}
        for total, c in counts.items():
            nxt[total] = nxt.get(total, 0) + c
            nxt[total + w] = nxt.get(total + w, 0) + c
        counts = nxt
    kept = sum(c for total, c in counts.items() if total + fixed >= 0)
    n_free = len(free)
    target = 1 if _score(p, x) >= 0 else 0
    if not target:
        kept = (1 << n_free) - kept
    return Fraction(kept, 1 << n_free)


def expected_value_perceptron(p: Perceptron, dist: ProductDistribution) -> Fraction:
    """E[f(z)] under a product distribution via subset-sum accumulation."""
    n = p.feature_count
    if dist.feature_count != n:
        raise ValueError(f"distribution over {dist.feature_count} features, model has {n}")
    ws, b, _ = p.scaled
    span = sum(abs(w) for w in ws) + 1
    _check_dp_budget(span * max(1, n), "expected_value_perceptron")
    # integer numerators over the running product of probability denominators
    weights: dict[int, int] = {0: 1}
    denom_prod = 1
    for i, w in enumerate(ws):
        a = dist.probs[i].numerator
        d = dist.probs[i].denominator
        denom_prod *= d
        nxt: dict[int, int] = {}
        for total, c in weights.items():
            if d != a:
                nxt[total] = nxt.get(total, 0) + c * (d - a)
            if a:
                nxt[total + w] = nxt.get(total + w, 0) + c * a
        weights = nxt
    hits = sum(c for total, c in weights.items() if total + b >= 0)
    return Fraction(hits, denom_prod)


# ---------------------------------------------------------------------------
# size-stratified conditional expectation sums and Shapley values


@dataclass(frozen=True)
class HTable:
    """H(k) = sum over size-k subsets of E[f | z_s = x_s], for k = 0..n."""

    values: tuple[Fraction, ...]

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def _check_h_query(p: Perceptron, x: Instance, dist: ProductDistribution,
                   what: str) -> Instance:
    """Validate the inputs and charge one (span, count) table to the budget."""
    n = p.feature_count
    x = check_instance(x, n)
    if dist.feature_count != n:
        raise ValueError(f"distribution over {dist.feature_count} features, model has {n}")
    span = sum(abs(w) for w in p.scaled[0]) + 1
    _check_dp_budget(span * max(1, n) * (n + 1), what)
    return x


class _AgreementTable(NamedTuple):
    """Prefix sums over s of the agreement generating function G(u, t).

    G = prod_i F_i with F_i = (d_i - a_i) + u^{w''_i} (a_i + d_i t), where
    q_i = a_i / d_i (see h_table_perceptron): G[j][s] / D, D = prod d_i,
    is the mass of conditioned count j and w'' sum s. Column s - low of
    `cells` holds C_j(s) = sum_{s' <= s} G[j][s'] for j = 0..n, one
    little-endian `slot`-bit cell each. Every cell is below D 2^n, so a
    column read as one integer is the polynomial sum_j C_j(s) t^j at
    t = 2^slot, and sums, differences and exact quotients of columns are
    taken cell by cell as long as every resulting cell stays in range.
    """

    factors: tuple[tuple[int, int, int], ...]  # (w''_i, a_i, d_i)
    threshold: int  # T: f(z) = 1 iff the w'' sum over sim(z, x) is <= T
    common: int  # D
    slot: int
    low: int
    high: int
    cells: bytes

    def column(self, s: int) -> int:
        if s < self.low:
            return 0
        size = (len(self.factors) + 1) * self.slot // 8
        start = (min(s, self.high) - self.low) * size
        return int.from_bytes(self.cells[start:start + size], "little")

    def unpack(self, packed: int, count: int) -> list[int]:
        size = self.slot // 8
        raw = packed.to_bytes(count * size, "little")
        return [int.from_bytes(raw[k:k + size], "little") for k in range(0, len(raw), size)]

    def conditioned(self, w: int, a: int, d: int) -> int:
        """Column T - w of the prefix sums P of Q = G / F, F = (w, a, d) a factor.

        Q is the table of f conditioned on that feature, over the others,
        with threshold T - w. Summing G = F Q over s' <= s gives
        C(s) = c0 P(s) + (a + d t) P(s - w) with c0 = d - a, which must be
        positive, so P(s) = (C(s) - (a + d t) P(s - w)) / c0 exactly, and
        P(T - w) needs only the points T - w - m w. For w > 0 the sweep
        runs upward from P = 0 below Q's range [low, high - w]; for w < 0
        the same recurrence holds for the suffix sums, which sweep down
        from 0 above Q's range [low - w, high] and are subtracted from Q's
        total D / d (1 + t)^(n-1).
        """
        c0, times = d - a, a + (d << self.slot)
        if w > 0:
            points = range(min(self.threshold, self.high) - w, self.low - 1, -w)
            column = self.column
        else:
            total = self.column(self.high)
            points = range(max(self.threshold - w, self.low - w - 1), self.high, -w)

            def column(s: int) -> int:
                return total - self.column(s)
        acc = 0
        for s in reversed(points):
            acc = (column(s) - times * acc) // c0
        if w > 0:
            return acc
        return total // (d + (d << self.slot)) - acc


@lru_cache(maxsize=1)
def _agreement_table(p: Perceptron, x: Instance, dist: ProductDistribution) -> _AgreementTable:
    """Build G as one integer, cell (j, s) at bit ((s - low) (n + 1) + j) slot,
    so multiplying by a factor F_i is a few whole-integer operations.

    Cached so that shap_report reads its Shapley values and its expected
    value (through h_table_perceptron) from the same table.
    """
    ws, b, _ = p.scaled
    factors = []
    for i, w in enumerate(ws):
        q = dist.probs[i] if x[i] else 1 - dist.probs[i]
        factors.append((-w if x[i] else w, q.numerator, q.denominator))
    n = len(factors)
    common = prod(d for _, _, d in factors)
    slot = -(-(common << n).bit_length() // 8) * 8
    col = (n + 1) * slot
    g, low = 1, 0
    # small shifts first keep the early partial products short
    for w, a, d in sorted(factors, key=lambda f: abs(f[0])):
        moved = (a + (d << slot)) * g
        if w >= 0:
            g = (d - a) * g + (moved << w * col)
        else:
            g = ((d - a) * g << -w * col) + moved
            low += w
    width = sum(abs(w) for w, _, _ in factors) + 1
    step = 1
    while step < width:  # prefix sums along s by doubling
        g += g << step * col
        step *= 2
    cells = (g & ((1 << width * col) - 1)).to_bytes(width * col // 8, "little")
    threshold = b + sum(w for w, xi in zip(ws, x) if not xi)
    return _AgreementTable(tuple(factors), threshold, common, slot, low,
                           low + width - 1, cells)


def h_table_perceptron(p: Perceptron, x: Instance, dist: ProductDistribution) -> HTable:
    """All H(k) at once, from one subset-sum table.

    For the agreement set A = sim(z, x), f(z) = 1 iff sum over A of
    w''_i <= T with w''_i = -w_i when x_i = 1 else w_i and
    T = b + sum of w_i over x_i = 0. Each feature is either conditioned
    (in s, weight 1, counts toward k, adds w''), agrees by chance
    (probability q_i, adds w''), or disagrees (probability 1 - q_i): the
    factor F_i of _AgreementTable. D H(k) is the prefix sum of row k up
    to T.
    """
    x = _check_h_query(p, x, dist, "h_table_perceptron")
    table = _agreement_table(p, x, dist)
    sums = table.unpack(table.column(table.threshold), p.feature_count + 1)
    values = tuple(Fraction(c, table.common) for c in sums)
    return HTable(values)


def h_sum_perceptron(p: Perceptron, x: Instance, dist: ProductDistribution, k: int) -> Fraction:
    return h_table_perceptron(p, x, dist).values[k]


def shap_perceptron_pseudopoly(p: Perceptron, x: Instance,
                               dist: ProductDistribution) -> tuple[Fraction, ...]:
    """Exact Shapley attributions from one subset-sum table.

    phi_i combines the H table of the model with the H table of the model
    conditioned on feature i (taken over the remaining n-1 features):
    phi_i = sum_k k! (n-k-1)! / n! * (H_g(k) - H_f(k) + H_g(k-1)).
    The table of g is G / F_i with threshold T - w''_i, so
    D H_g(k) = d_i P_k with P = _AgreementTable.conditioned(F_i). When
    w''_i = 0 or q_i = 1, F_i = d_i u^{w''_i} (1 + t), hence
    H_g(k) + H_g(k-1) = H_f(k) and phi_i = 0.
    """
    n = p.feature_count
    x = _check_h_query(p, x, dist, "shap_perceptron_pseudopoly")
    table = _agreement_table(p, x, dist)
    h_f = table.unpack(table.column(table.threshold), n + 1)
    fact = [factorial(j) for j in range(n + 1)]
    coef = [fact[k] * fact[n - k - 1] for k in range(n)] + [0]
    # sum_k coef_k (P_k + P_{k-1}) = sum_k (coef_k + coef_{k+1}) P_k
    pair = [coef[k] + coef[k + 1] for k in range(n)]
    base = sum(c * h for c, h in zip(coef, h_f))
    scale = table.common * fact[n]
    phis = []
    for w, a, d in table.factors:
        if w == 0 or a == d:
            phis.append(Fraction(0))
            continue
        sums = table.unpack(table.conditioned(w, a, d), n)
        phis.append(Fraction(d * sum(c * v for c, v in zip(pair, sums)) - base, scale))
    return tuple(phis)
