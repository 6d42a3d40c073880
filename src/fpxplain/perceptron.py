"""Exact explanation queries on a single perceptron.

Sufficiency and contrastiveness read one integer gain vector: how far
each feature can move the score toward the other side of the threshold,
against how far it must move. A set is contrastive iff its gains reach
that need, and sufficient iff its complement is not contrastive, so csr
is one sum and mcr and msr are each a smallest set whose gains reach a
target. Counting and Shapley attribution read one packed
subset-sum table on the integer-scaled weights: completion counts and
expected values are a single prefix of its t-free form, and Shapley
values are assembled from size-stratified conditional expectation sums
H(k), the prefix sums of its t^k rows up to the threshold, kept as one
packed integer per column. The tables of the model conditioned on each
feature follow from those columns by exact division.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, prod
from typing import NamedTuple

from . import _config
from .errors import ResourceCapError, UnsupportedModelError
from .models import (
    ABSENT, Instance, Perceptron, ProductDistribution, check_dist,
    check_instance, check_subset, eval_perceptron, packed_cells, packed_dot,
)


def _require_perceptron(p):
    if not isinstance(p, Perceptron):
        raise UnsupportedModelError(f"expected a perceptron, got {type(p).__name__}")


# ---------------------------------------------------------------------------
# sufficiency and smallest witnesses


def _gains(p: Perceptron, x: Instance) -> tuple[list[int], int]:
    """(gains, need) on the integer-scaled weights.

    gains[i] is how far reassigning feature i can move the score
    b + sum_{x_i = 1} w_i toward the other side of the threshold, and
    need how far it must move: score + 1 when f(x) = 1 (to go below 0),
    -score when f(x) = 0 (to reach 0). A set is contrastive iff its gains
    sum to at least need, and sufficient iff its complement is not
    contrastive.
    """
    ws, b, _ = p.scaled
    score = b + sum(w for w, xi in zip(ws, x) if xi)
    sign = 1 if score >= 0 else -1
    gains = [max(0, sign * w if xi else -sign * w) for w, xi in zip(ws, x)]
    return gains, score + 1 if score >= 0 else -score


def csr_perceptron(p: Perceptron, x: Instance, s) -> bool:
    """Is fixing x on s enough? Yes iff the free features' gains fall
    short of need."""
    _require_perceptron(p)
    n = p.feature_count
    x = check_instance(x, n)
    sset = set(check_subset(s, n))
    gains, need = _gains(p, x)
    return sum(g for i, g in enumerate(gains) if i not in sset) < need


def _lex_first_witness(gains: list[int], need: int):
    """(size, witness) of a smallest feature set whose gains sum to at
    least need, or ABSENT if even all features fall short.

    The smallest size is the first r whose top-r gain sum reaches need,
    and a prefix of chosen features extends to a set of that size exactly
    when its sum plus the largest remaining gains does. Scanning indices
    in order gives the lexicographically first witness. The gains after
    the index in hand are kept sorted, so each test sums a slice of them.
    """
    rest = sorted(gains)  # gains[i + 1:], ascending, once gains[i] is taken out
    ranked = accumulate(reversed(rest), initial=0)
    size = next((r for r, total in enumerate(ranked) if total >= need), None)
    if size is None:
        return ABSENT
    chosen: list[int] = []
    for i, gain in enumerate(gains):
        if len(chosen) == size:
            break
        del rest[bisect_left(rest, gain)]
        room = size - len(chosen) - 1  # at most len(rest) while a witness remains
        if gain + sum(rest[len(rest) - room:]) >= need:
            chosen.append(i)
            need -= gain
    assert len(chosen) == size, "a feasible size admits a witness"
    return size, tuple(chosen)


def min_contrastive_perceptron(p: Perceptron, x: Instance):
    """(size, witness) of a smallest contrastive set, or ABSENT if none;
    the witness is the lexicographically first of that size."""
    _require_perceptron(p)
    x = check_instance(x, p.feature_count)
    return _lex_first_witness(*_gains(p, x))


def min_sufficient_perceptron(p: Perceptron, x: Instance) -> tuple[int, tuple[int, ...]]:
    """(size, witness) of a minimum sufficient reason, the lexicographically
    first of that size.

    s is sufficient iff the gains outside it sum to less than need, that
    is, iff its own gains sum to at least sum(gains) - need + 1.
    """
    _require_perceptron(p)
    x = check_instance(x, p.feature_count)
    gains, need = _gains(p, x)
    found = _lex_first_witness(gains, sum(gains) - need + 1)
    assert found is not ABSENT, "the full feature set is always sufficient"
    assert csr_perceptron(p, x, found[1])
    return found


# ---------------------------------------------------------------------------
# the packed subset-sum table


def _packed_product(factors, with_t: bool) -> tuple[int, int, int, int, int]:
    """(G, low, width, slot, D) for G = prod_i F_i over the factors
    (w_i, a_i, d_i), F_i = (d_i - a_i) + u^{w_i} (a_i + d_i t), or G(u, 0)
    without t.

    G is one integer, cell (j, s) at bit ((s - low) rows + j) slot with
    rows = n + 1 (1 without t), so multiplying by a factor is one
    multiply-add of whole integers, head + (tail << |w| columns): head is
    (d - a) G and tail (a + d t) G for w >= 0, and the two swap for w < 0,
    where F = u^w ((a + d t) + u^{-w} (d - a)) moves low down by |w|. Its
    w sums span width = sum |w_i| + 1 columns from low. A slot holds
    D 2^(rows - 1) + 1, more than any prefix sum of a row.

    The table is charged width * max(1, n) * rows cells against
    FPXPLAIN_PSEUDO_BUDGET before it is built; over the budget raises
    ResourceCapError.
    """
    rows = len(factors) + 1 if with_t else 1
    width = sum(abs(w) for w, _, _ in factors) + 1
    cells, budget = width * max(1, len(factors)) * rows, _config.pseudo_budget()
    if cells > budget:
        # an integer past the 4,300-digit str limit cannot be printed
        about = cells if cells < 10 ** 30 else f"2^{cells.bit_length() - 1}"
        raise ResourceCapError(
            f"the subset-sum table needs about {about} DP cells, over the budget "
            f"{budget}; raise {_config.PSEUDO_BUDGET_VAR} to allow it")
    common = prod(d for _, _, d in factors)
    slot = -(-((common << rows - 1) + 1).bit_length() // 8) * 8
    col = rows * slot
    g, low = 1, 0
    # small shifts first keep the early partial products short
    for w, a, d in sorted(factors, key=lambda f: abs(f[0])):
        head, tail = (d - a) * g, (a + (d << slot) if with_t else a) * g
        if w < 0:
            head, tail = tail, head
            low += w
        g = head + (tail << abs(w) * col)
    return g, low, width, slot, common


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
    g, low, width, slot, common = _packed_product(factors, with_t=False)
    cells = min(max(threshold - low + 1, 0), width)
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
    _require_perceptron(p)
    n = p.feature_count
    x = check_instance(x, n)
    s = check_subset(s, n)
    sset = set(s)
    ws, b, _ = p.scaled
    fixed = b + sum(w for i, w in enumerate(ws) if i in sset and x[i])
    free = [ws[i] for i in range(n) if i not in sset]
    kept = _mass_up_to([(w, 1, 2) for w in free], fixed + sum(free))
    return kept if eval_perceptron(p, x) else 1 - kept


def expected_value_perceptron(p: Perceptron, dist: ProductDistribution) -> Fraction:
    """E[f(z)] under a product distribution: the t-free agreement table of
    the instance x = 0, read at its threshold b + sum of w."""
    _require_perceptron(p)
    n = p.feature_count
    check_dist(dist, n)
    return _mass_up_to(*_agreement_factors(p, (0,) * n, dist))


# ---------------------------------------------------------------------------
# size-stratified conditional expectation sums and Shapley values


def _check_h_query(p: Perceptron, x: Instance, dist: ProductDistribution) -> Instance:
    """x as a tuple, after checking the query's arguments."""
    _require_perceptron(p)
    n = p.feature_count
    x = check_instance(x, n)
    check_dist(dist, n)
    return x


class _AgreementTable(NamedTuple):
    """Prefix sums over s of the agreement generating function G(u, t).

    G = prod_i F_i with F_i = (d_i - a_i) + u^{w''_i} (a_i + d_i t), where
    q_i = a_i / d_i (see h_table_perceptron): G[j][s] / D, D = prod d_i,
    is the mass of conditioned count j and w'' sum s. cols[s - low] is
    the polynomial sum_j C_j(s) t^j at t = 2^slot, one `slot`-bit cell
    per j = 0..n, with C_j(s) = sum_{s' <= s} G[j][s']. Every cell is
    below D 2^n, so sums, differences and exact quotients of columns are
    taken cell by cell as long as every resulting cell stays in range.
    `column` reads one column at any s; the sweep of `conditioned` indexes
    the list.
    """

    factors: tuple[tuple[int, int, int], ...]  # (w''_i, a_i, d_i)
    threshold: int  # T: f(z) = 1 iff the w'' sum over sim(z, x) is <= T
    common: int  # D
    slot: int
    low: int
    high: int
    cols: list[int]

    def column(self, s: int) -> int:
        """C(s): 0 below low, the total above high."""
        return self.cols[min(s, self.high) - self.low] if s >= self.low else 0

    def conditioned(self, w: int, a: int, d: int) -> int:
        """Column T - w of the prefix sums P of Q = G / F, F = (w, a, d) a factor.

        Q is the table of f conditioned on that feature, over the others,
        with threshold T - w. Summing G = F Q over s' <= s gives
        C(s) = c0 P(s) + (a + d t) P(s - w) with c0 = d - a, which must be
        positive, so P(s) = (C(s) - (a + d t) P(s - w)) / c0 exactly, and
        P(T - w) needs only the points T - w - m w. The sweep starts on
        the side P(s - w) lies on: for w > 0 upward from P = 0 below
        Q's range [low, high - w], for w < 0 downward from Q's total
        D / d (1 + t)^(n-1) above Q's range [low - w, high]. So each step
        divides by the integer c0, not by the packed a + d t, and reads one
        of at most width / |w| columns, every |w|-th entry of `cols`; every
        point lies in [low, high), so none is clamped.
        """
        cols, low, high = self.cols, self.low, self.high
        c0, times = d - a, a + (d << self.slot)
        if w > 0:
            top = min(self.threshold, high) - w - low
            acc, points = 0, cols[top % w:max(top + 1, 0):w]
        else:
            acc = cols[-1] // (d + (d << self.slot))
            points = reversed(cols[max(self.threshold - w, low - w - 1) - low:high - low:-w])
        for c in points:
            acc = (c - times * acc) // c0
        return acc


@lru_cache(maxsize=1)
def _agreement_table(p: Perceptron, x: Instance, dist: ProductDistribution) -> _AgreementTable:
    """The table of G(u, t) for (p, x, dist): G's columns, read once from
    its bytes, summed along s in one pass.

    Cached so that shap_report reads its Shapley values and its expected
    value (through h_table_perceptron) from the same table.
    """
    factors, threshold = _agreement_factors(p, x, dist)
    g, low, width, slot, common = _packed_product(factors, with_t=True)
    cols = list(accumulate(packed_cells(g, (len(factors) + 1) * slot // 8, width)))
    return _AgreementTable(tuple(factors), threshold, common, slot, low,
                           low + width - 1, cols)


def h_table_perceptron(p: Perceptron, x: Instance,
                       dist: ProductDistribution) -> tuple[Fraction, ...]:
    """All H(k) at once, from one subset-sum table.

    For the agreement set A = sim(z, x), f(z) = 1 iff sum over A of
    w''_i <= T with w''_i = -w_i when x_i = 1 else w_i and
    T = b + sum of w_i over x_i = 0. Each feature is either conditioned
    (in s, weight 1, counts toward k, adds w''), agrees by chance
    (probability q_i, adds w''), or disagrees (probability 1 - q_i): the
    factor F_i of _AgreementTable. D H(k) is the prefix sum of row k up
    to T.
    """
    x = _check_h_query(p, x, dist)
    table = _agreement_table(p, x, dist)
    sums = packed_cells(table.column(table.threshold), table.slot // 8, p.feature_count + 1)
    return tuple(Fraction(c, table.common) for c in sums)


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
    x = _check_h_query(p, x, dist)
    table = _agreement_table(p, x, dist)
    size = table.slot // 8
    fact = [factorial(j) for j in range(n + 1)]
    coef = [fact[k] * fact[n - k - 1] for k in range(n)] + [0]
    # sum_k coef_k (P_k + P_{k-1}) = sum_k (coef_k + coef_{k+1}) P_k
    pair = [coef[k] + coef[k + 1] for k in range(n)]
    base = packed_dot(table.column(table.threshold), size, coef)
    scale = table.common * fact[n]
    phis = []
    for w, a, d in table.factors:
        if w == 0 or a == d:
            phis.append(Fraction(0))
            continue
        dot = packed_dot(table.conditioned(w, a, d), size, pair)
        phis.append(Fraction(d * dot - base, scale))
    return tuple(phis)
