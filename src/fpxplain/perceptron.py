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
from .errors import ResourceCapError, UnsupportedModelError
from .models import (
    ABSENT, HTable, Instance, Perceptron, ProductDistribution, check_dist,
    check_instance, check_subset, eval_perceptron, packed_dot,
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
    in order gives the lexicographically first witness.
    """
    n = len(gains)
    ranked = accumulate(sorted(gains, reverse=True), initial=0)
    size = next((r for r, total in enumerate(ranked) if total >= need), None)
    if size is None:
        return ABSENT
    chosen: list[int] = []
    start = 0
    while len(chosen) < size:
        for i in range(start, n):
            tail = sorted(gains[i + 1:], reverse=True)[:size - len(chosen) - 1]
            if gains[i] + sum(tail) >= need:
                chosen.append(i)
                need -= gains[i]
                start = i + 1
                break
        else:  # pragma: no cover
            raise AssertionError("feasible size must admit a witness")
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
    _require_perceptron(p)
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
    return kept if eval_perceptron(p, x) else 1 - kept


def expected_value_perceptron(p: Perceptron, dist: ProductDistribution) -> Fraction:
    """E[f(z)] under a product distribution: the t-free agreement table of
    the instance x = 0, read at its threshold b + sum of w."""
    _require_perceptron(p)
    n = p.feature_count
    check_dist(dist, n)
    span = sum(abs(w) for w in p.scaled[0]) + 1
    _check_dp_budget(span * n, "expected_value_perceptron")
    return _mass_up_to(*_agreement_factors(p, (0,) * n, dist))


# ---------------------------------------------------------------------------
# size-stratified conditional expectation sums and Shapley values


def _check_h_query(p: Perceptron, x: Instance, dist: ProductDistribution,
                   what: str) -> Instance:
    """Validate the inputs and charge one (span, count) table to the budget."""
    _require_perceptron(p)
    n = p.feature_count
    x = check_instance(x, n)
    check_dist(dist, n)
    span = sum(abs(w) for w in p.scaled[0]) + 1
    _check_dp_budget(span * n * (n + 1), what)
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
    `column` reads one column at the threshold; the sweeps of `conditioned`
    read the bytes of `cells` in place.
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
        total D / d (1 + t)^(n-1). Either sweep reads at most width / |w|
        columns in place, each one slice of `cells` at byte offset
        (s - low) size, stepping |w| columns at a time; every point lies in
        [low, high), so none is clamped.
        """
        cells, low, high, read = self.cells, self.low, self.high, int.from_bytes
        size = (len(self.factors) + 1) * self.slot // 8
        c0, times = d - a, a + (d << self.slot)
        acc = 0
        if w > 0:
            top = (min(self.threshold, high) - w - low) * size
            for at in range(top % (w * size), top + 1, w * size):
                acc = (read(cells[at:at + size], "little") - times * acc) // c0
            return acc
        last = (high - low) * size
        total = read(cells[last:], "little")
        start = (max(self.threshold - w, low - w - 1) - low) * size
        for at in reversed(range(start, last, -w * size)):
            acc = (total - read(cells[at:at + size], "little") - times * acc) // c0
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
