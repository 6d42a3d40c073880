"""Exact explanation queries on a single perceptron.

Sufficiency and contrastiveness reduce to worst-case interval reasoning
on the weighted sum. Counting and Shapley attribution read one packed
subset-sum table on the integer-scaled weights: completion counts and
expected values are a single prefix of its t-free form, and Shapley
values are assembled from size-stratified conditional expectation sums
H(k), the prefix sums of its t^k rows up to the threshold. The tables
of the model conditioned on each feature follow from it by exact
division.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, prod
from typing import NamedTuple

from . import _config
from .errors import ResourceCapError
from .models import (
    ABSENT, Instance, Perceptron, ProductDistribution, Record, check_dist,
    check_instance, check_subset,
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
# smallest witnesses


def _lex_first_witness(gains: list[Fraction], passes):
    """(size, witness) of a smallest feature set whose gain sum passes, or
    ABSENT if even all features fail.

    `passes` is monotone in the gain sum, so the smallest size is the
    first r whose top-r gain sum passes, and a prefix of chosen features
    extends to a passing set of that size exactly when its sum plus the
    largest remaining gains passes. Scanning indices in order gives the
    lexicographically first witness.
    """
    n = len(gains)
    ranked = accumulate(sorted(gains, reverse=True), initial=Fraction(0))
    size = next((r for r, total in enumerate(ranked) if passes(total)), None)
    if size is None:
        return ABSENT
    chosen: list[int] = []
    acc = Fraction(0)
    start = 0
    while len(chosen) < size:
        for i in range(start, n):
            tail = sorted(gains[i + 1:], reverse=True)[:size - len(chosen) - 1]
            if passes(acc + gains[i] + sum(tail, Fraction(0))):
                chosen.append(i)
                acc += gains[i]
                start = i + 1
                break
        else:  # pragma: no cover
            raise AssertionError("feasible size must admit a witness")
    return size, tuple(chosen)


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
    its benefit sum crosses the score gap.
    """
    x = check_instance(x, p.feature_count)
    benefits, score, positive = _flip_benefits(p, x)
    return _lex_first_witness(benefits, lambda total: _crosses(score, total, positive))


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
    worst-case base, and the witness is the lexicographically first.
    """
    x = check_instance(x, p.feature_count)
    gains, base, positive = _fix_gains(p, x)
    found = _lex_first_witness(gains, lambda total: _gains_sufficient(base, total, positive))
    assert found is not ABSENT, "the full feature set is always sufficient"
    assert csr_perceptron(p, x, found[1])
    return found


# ---------------------------------------------------------------------------
# the packed subset-sum table


def _check_dp_budget(cells: int, what: str):
    budget = _config.pseudo_budget()
    if cells > budget:
        # an integer past the 4,300-digit str limit cannot be printed
        about = cells if cells < 10 ** 30 else f"2^{cells.bit_length() - 1}"
        raise ResourceCapError(
            f"{what} needs about {about} DP cells, over the budget {budget}; "
            f"raise {_config.PSEUDO_BUDGET_VAR} to allow it")


def _packed_product(factors, with_t: bool) -> tuple[int, int, int, int]:
    """(G, low, slot, D) for G = prod_i F_i over the factors (w_i, a_i, d_i),
    F_i = (d_i - a_i) + u^{w_i} (a_i + d_i t), or G(u, 0) without t.

    G is one integer, cell (j, s) at bit ((s - low) rows + j) slot with
    rows = n + 1 (1 without t), so multiplying by a factor is a few
    whole-integer operations. A slot holds D 2^(rows - 1) + 1, more than
    any prefix sum of a row.
    """
    rows = len(factors) + 1 if with_t else 1
    common = prod(d for _, _, d in factors)
    slot = -(-((common << rows - 1) + 1).bit_length() // 8) * 8
    col = rows * slot
    g, low = 1, 0
    # small shifts first keep the early partial products short
    for w, a, d in sorted(factors, key=lambda f: abs(f[0])):
        moved = (a + (d << slot) if with_t else a) * g
        if w >= 0:
            g = (d - a) * g + (moved << w * col)
        else:
            g = ((d - a) * g << -w * col) + moved
            low += w
    return g, low, slot, common


def _agreement_factors(p: Perceptron, x: Instance,
                       dist: ProductDistribution) -> tuple[list, int]:
    """The factors (w''_i, a_i, d_i) of G for instance x, and the threshold T."""
    ws, b, _ = p.scaled
    factors = []
    for i, w in enumerate(ws):
        q = dist.probs[i] if x[i] else 1 - dist.probs[i]
        factors.append((-w if x[i] else w, q.numerator, q.denominator))
    return factors, b + sum(w for w, xi in zip(ws, x) if not xi)


def _mass_up_to(factors, threshold: int) -> Fraction:
    """G(u, 0) / D summed over w'' sums up to the threshold.

    The cells up to the threshold, masked off as one integer, leave their
    sum as its remainder modulo 2^slot - 1: 2^slot is 1 modulo 2^slot - 1,
    and the sum is at most D < 2^slot - 1.
    """
    g, low, slot, common = _packed_product(factors, with_t=False)
    cells = min(max(threshold - low + 1, 0), sum(abs(w) for w, _, _ in factors) + 1)
    return Fraction((g & ((1 << cells * slot) - 1)) % ((1 << slot) - 1), common)


# ---------------------------------------------------------------------------
# pseudo-polynomial counting


def cc_perceptron_pseudopoly(p: Perceptron, x: Instance, s) -> Fraction:
    """Fraction of completions agreeing with x on s that keep the prediction.

    The free features are uniform, so this is the t-free agreement table
    over them at q_i = 1/2 and x_i = 0, with the fixed part of the score
    moved into the threshold; exact, with cost proportional to the span
    of the free integer-scaled weights.
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
    kept = _mass_up_to([(w, 1, 2) for w in free], fixed + sum(free))
    return kept if _score(p, x) >= 0 else 1 - kept


def expected_value_perceptron(p: Perceptron, dist: ProductDistribution) -> Fraction:
    """E[f(z)] under a product distribution: the t-free agreement table of
    the instance x = 0, read at its threshold b + sum of w."""
    n = p.feature_count
    check_dist(dist, n)
    span = sum(abs(w) for w in p.scaled[0]) + 1
    _check_dp_budget(span * max(1, n), "expected_value_perceptron")
    return _mass_up_to(*_agreement_factors(p, (0,) * n, dist))


# ---------------------------------------------------------------------------
# size-stratified conditional expectation sums and Shapley values


class HTable(Record):
    """H(k) = sum over size-k subsets of E[f | z_s = x_s], for k = 0..n."""

    values: tuple[Fraction, ...]

    def __init__(self, values: tuple[Fraction, ...]):
        self._set(values=values)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def _check_h_query(p: Perceptron, x: Instance, dist: ProductDistribution,
                   what: str) -> Instance:
    """Validate the inputs and charge one (span, count) table to the budget."""
    n = p.feature_count
    x = check_instance(x, n)
    check_dist(dist, n)
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
    """The table of G(u, t) for (p, x, dist).

    Cached so that shap_report reads its Shapley values and its expected
    value (through h_table_perceptron) from the same table.
    """
    factors, threshold = _agreement_factors(p, x, dist)
    g, low, slot, common = _packed_product(factors, with_t=True)
    col = (len(factors) + 1) * slot
    width = sum(abs(w) for w, _, _ in factors) + 1
    step = 1
    while step < width:  # prefix sums along s by doubling
        g += g << step * col
        step *= 2
    cells = (g & ((1 << width * col) - 1)).to_bytes(width * col // 8, "little")
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
