"""Exact explanation queries on ensembles of decision trees.

The engine behind every query is one generator, _selections, over joint
leaf selections: one root-to-leaf path per member tree, kept only when
the paths are pairwise non-conflicting. A full selection fixes a partial
assignment (the union of the path constraints) and determines the
ensemble vote exactly from the leaf labels. Votes are summed on the
integer view of the voting rule (majority is unit weights with threshold
ceil(k/2), rational weights are scaled to integers), which stays exact
for weighted voting with negative weights, and a branch is cut as soon
as the remaining trees cannot bring the sum to the wanted side. Distinct
selections conflict in at least one tree, so the accepted selections
partition the accepted instances into disjoint cylinders; expectation
and counting queries just add up cylinder masses as they stream by.
Expectation splits each cylinder's fixed features at the last tree's
features: the part the other trees fix repeats across consecutive
selections, the part inside is memoised for the call, so a cylinder
costs one big-integer division.

The contrastive queries read one set of flip masks, the features on
which a selection that overturns f(x) disagrees with x. The smallest
contrastive set is a smallest mask. Minimum sufficient reasons come from
the hitting-set duality (Ignatiev, Narodytska & Marques-Silva, AAAI
2019): a set is sufficient iff it meets every flip mask, and iff it
meets every inclusion-minimal one, so the family is reduced to those
before the search.

Cost is O(m^k) joint selections for k trees with at most m leaves each,
times cheap bitmask work, so everything here is exponential only in k.
The walk keeps an explicit stack, so k is not bounded by the recursion
limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Callable, NamedTuple

from .errors import InfeasibleError, UnsupportedModelError
from .models import (
    ABSENT, DecisionTree, Ensemble, Instance, ProductDistribution, bits_to_int,
    check_dist, check_instance, check_subset, eval_ensemble, eval_tree,
    integer_votes, subset_mask,
)


class Cylinder(NamedTuple):
    """A partial assignment whose every completion the ensemble accepts."""

    mask: int
    vals: int

    def fixed_features(self) -> tuple[int, ...]:
        return _members(self.mask)


def _require_trees(e: Ensemble):
    if not isinstance(e, Ensemble):
        raise UnsupportedModelError(f"expected an ensemble, got {type(e).__name__}")
    for t in e.members:
        if not isinstance(t, DecisionTree):
            raise UnsupportedModelError("ensemble member is not a decision tree")


def _raw_triples(e: Ensemble) -> list[tuple[tuple[int, int, int], ...]]:
    return [t.paths for t in e.members]


def _conditioned_triples(tree: DecisionTree, xbits: int, smask: int) -> list[tuple[int, int, int]]:
    """Paths consistent with x on s, with the s-constraints stripped.

    Equivalent to conditioning the tree and listing its paths, without
    rebuilding the arena.
    """
    out = []
    for mask, vals, label in tree.paths:
        if (vals ^ xbits) & (mask & smask):
            continue
        m2 = mask & ~smask
        out.append((m2, vals & m2, label))
    return out


# ---------------------------------------------------------------------------
# the joint selection scan


def _selections(lists, voting, want: int):
    """Yield every full joint selection with the given output, as (mask, vals).

    Full selections only (one path in every tree), in row-major order over
    the per-tree path lists, so the order is deterministic. The vote is
    kept on the integer view of the voting rule; for want = 0 the weights
    are negated, so "sum < threshold" becomes "sum >= 1 - threshold" and
    both sides prune alike. The walk keeps an explicit stack, so the number
    of trees is not bounded by the recursion limit.

    Since any partial assignment extends to a full instance, and a full
    instance follows some path in every tree, the scan yields a first
    selection exactly when some instance gets the wanted output.
    """
    k = len(lists)
    weights, threshold = integer_votes(voting, k)
    if not want:
        weights = [-w for w in weights]
        threshold = 1 - threshold
    # need[j]: the least vote sum over trees before j from which the
    # remaining trees, each voting its best leaf label, can still reach
    # the threshold
    need = [threshold] * (k + 1)
    for j in range(k - 1, -1, -1):
        need[j] = need[j + 1] - max(weights[j] * lab for _, _, lab in lists[j])
    stack = [(iter(lists[0]), 0, 0, 0)]
    while stack:
        paths, mask, vals, vote = stack[-1]
        j = len(stack)
        for m2, v2, lab in paths:
            if (vals ^ v2) & mask & m2:
                continue
            v = vote + weights[j - 1] if lab else vote
            if v < need[j]:
                continue
            if j == k:
                yield mask | m2, vals | v2
            else:
                stack.append((iter(lists[j]), mask | m2, vals | v2, v))
                break
        else:
            stack.pop()


# ---------------------------------------------------------------------------
# sufficiency


def csr_tree_ensemble(e: Ensemble, x: Instance, s) -> bool:
    """Is fixing x on s enough to force the ensemble's prediction?"""
    _require_trees(e)
    n = e.feature_count
    x = check_instance(x, n)
    s = check_subset(s, n)
    target = eval_ensemble(e, x)
    xbits = bits_to_int(x)
    smask = subset_mask(s)
    lists = [_conditioned_triples(t, xbits, smask) for t in e.members]
    return next(_selections(lists, e.voting, 1 - target), None) is None


def csr_single_tree(tree: DecisionTree, x: Instance, s) -> bool:
    """Single-tree sufficiency: every s-consistent path must keep the label."""
    if not isinstance(tree, DecisionTree):
        raise UnsupportedModelError(f"expected a decision tree, got {type(tree).__name__}")
    n = tree.feature_count
    x = check_instance(x, n)
    s = check_subset(s, n)
    target = eval_tree(tree, x)
    xbits = bits_to_int(x)
    smask = subset_mask(s)
    return all(label == target
               for _, _, label in _conditioned_triples(tree, xbits, smask))


def greedy_subset_minimal_sufficient(n: int, order, is_sufficient: Callable) -> tuple[int, ...]:
    """Shrink the full feature set to a subset-minimal sufficient reason.

    Walks the features in the given order and drops each one whose removal
    keeps sufficiency; makes exactly len(order) is_sufficient calls. With
    order a permutation of range(n) the result is subset-minimal.
    """
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of range(n)")
    current = set(range(n))
    for i in order:
        trial = tuple(sorted(current - {i}))
        if is_sufficient(trial):
            current.discard(i)
    return tuple(sorted(current))


# ---------------------------------------------------------------------------
# contrastive reasons and minimum sufficient reasons via hitting-set duality


def _flip_masks(e: Ensemble, x: Instance) -> set[int]:
    """Flip masks (vals ^ x) & mask of the selections that overturn f(x).

    Each one is contrastive, and every subset-minimal contrastive set is
    one of them.
    """
    _require_trees(e)
    x = check_instance(x, e.feature_count)
    xbits = bits_to_int(x)
    flips = {(vals ^ xbits) & mask for mask, vals
             in _selections(_raw_triples(e), e.voting, 1 - eval_ensemble(e, x))}
    assert 0 not in flips, "a selection consistent with x cannot overturn f(x)"
    return flips


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of mask, in increasing order."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _inclusion_minimal(masks) -> list[int]:
    """The members of a family of distinct masks that contain no other member.

    Sorted by popcount, every proper subset of a mask comes before it, so
    one pass that keeps a mask iff it contains no kept mask is exact.
    """
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        if all(k & m != k for k in kept):
            kept.append(m)
    return kept


def enumerate_candidate_contrastive(e: Ensemble, x: Instance,
                                    filter_minimal: bool = False) -> tuple[tuple[int, ...], ...]:
    """Flip sets extracted from joint selections that overturn f(x).

    Each returned set is contrastive (flipping it changes the prediction),
    and every subset-minimal contrastive set appears. Sorted by size then
    lexicographically. filter_minimal drops members that strictly contain
    another member.
    """
    flips = _flip_masks(e, x)
    if filter_minimal:
        flips = _inclusion_minimal(flips)
    return tuple(sorted(sorted(map(_members, flips)), key=len))  # by size, then lex


def min_contrastive_size(e: Ensemble, x: Instance):
    """(size, witness) of a smallest contrastive set, or ABSENT if none."""
    flips = _flip_masks(e, x)
    if not flips:
        return ABSENT
    size = min(map(int.bit_count, flips))
    return size, min(_members(m) for m in flips if m.bit_count() == size)


def _disjoint_packing(masks: list[int]) -> int:
    """Greedy count of pairwise-disjoint members; lower-bounds the hitting set."""
    used = 0
    count = 0
    for m in masks:
        if not (m & used):
            used |= m
            count += 1
    return count


def minimum_hitting_set(family, n: int) -> tuple[int, tuple[int, ...]]:
    """Smallest set meeting every member; lexicographically first on ties.

    The family is first reduced to its inclusion-minimal members: a set
    meets every member iff it meets every minimal one, so neither the size
    nor the witness changes, and the search sees far fewer sets. Then
    iterative deepening with a disjoint-packing lower bound; element
    candidates are taken in increasing order, so the first solution found
    at the optimal size is the lexicographically smallest one.
    """
    masks = {subset_mask(t) for t in family}
    if not masks:
        return 0, ()
    if 0 in masks:
        raise InfeasibleError("family contains the empty set; no hitting set exists")
    masks = sorted(_inclusion_minimal(masks), key=lambda m: (m.bit_count(), _members(m)))
    lower = _disjoint_packing(masks)

    def search(size: int, start: int, chosen: list[int], unhit: list[int]):
        if not unhit:
            return tuple(chosen)
        room = size - len(chosen)
        if room <= 0 or _disjoint_packing(unhit) > room:
            return None
        for el in range(start, n):
            bit = 1 << el
            rest = [u for u in unhit if not (u & bit)]
            if len(rest) == len(unhit):
                continue  # hits nothing new; never needed for a minimum
            chosen.append(el)
            res = search(size, el + 1, chosen, rest)
            chosen.pop()
            if res is not None:
                return res
        return None

    for size in range(lower, n + 1):
        res = search(size, 0, [], masks)
        if res is not None:
            return size, res
    raise InfeasibleError("no hitting set within the ground set")  # pragma: no cover


def min_sufficient_size(e: Ensemble, x: Instance) -> tuple[int, tuple[int, ...]]:
    """(size, witness) of a minimum sufficient reason, via hitting-set duality.

    A set is sufficient exactly when it meets every contrastive set, and
    it is enough to meet the flip masks, which contain all the
    subset-minimal contrastive sets, or just their inclusion-minimal
    members.
    """
    flips = _flip_masks(e, x)
    if not flips:
        return 0, ()
    # filtered here too, so only the minimal members make the trip through
    # index tuples; the second pass inside finds nothing to drop
    minimal = map(_members, _inclusion_minimal(flips))
    size, witness = minimum_hitting_set(minimal, e.feature_count)
    assert csr_tree_ensemble(e, x, witness), "duality witness must be sufficient"
    return size, witness


# ---------------------------------------------------------------------------
# counting and expectation over cylinders


def cylinder_decomposition(e: Ensemble) -> tuple[Cylinder, ...]:
    """Disjoint partial assignments covering exactly the accepted instances."""
    _require_trees(e)
    return tuple(Cylinder(m, v) for m, v in _selections(_raw_triples(e), e.voting, 1))


def _mass_factors(mask: int, vals: int, nums: list[int], dens: list[int]) -> tuple[int, int]:
    """(product of the numerators of Pr[z_i = vals_i], product of the
    denominators) over the features in mask."""
    q = d = 1
    while mask:
        b = mask & -mask
        i = b.bit_length() - 1
        mask ^= b
        q *= nums[i] if vals & b else dens[i] - nums[i]
        d *= dens[i]
    return q, d


def expected_value_tree_ensemble(e: Ensemble, dist: ProductDistribution) -> Fraction:
    """E[f(z)] under a product distribution, summed over disjoint cylinders.

    A cylinder's mass is the product over its fixed features of
    Pr[z_i = vals_i], kept as an integer over D, the product of all the
    denominators: D // (d_out * d_in) * (q_out * q_in), where q and d are
    the products of the numerator factors and of the denominators on the
    two parts of the fixed features split at U, the union of the last
    member tree's path masks. The part outside U is fixed by the other
    trees' paths and repeats across consecutive selections, so it is
    recomputed only when it changes; the part inside U is memoised for
    the call on its (mask, vals).
    """
    _require_trees(e)
    n = e.feature_count
    check_dist(dist, n)
    nums = [p.numerator for p in dist.probs]
    dens = [p.denominator for p in dist.probs]
    denom = prod(dens)
    lists = _raw_triples(e)
    inside = 0
    for m, _, _ in lists[-1]:
        inside |= m
    memo: dict[tuple[int, int], tuple[int, int]] = {}
    out_key = None
    acc = 0
    for mask, vals in _selections(lists, e.voting, 1):
        # vals lies inside mask: _selections only ORs path (mask, vals) pairs
        key = (mask & ~inside, vals & ~inside)
        if key != out_key:
            out_key = key
            q_out, d_out = _mass_factors(*key, nums, dens)
        key = (mask & inside, vals & inside)
        f = memo.get(key)
        if f is None:
            f = memo[key] = _mass_factors(*key, nums, dens)
        acc += denom // (d_out * f[1]) * (q_out * f[0])
    return Fraction(acc, denom)


def cc_tree_ensemble(e: Ensemble, x: Instance, s) -> Fraction:
    """Fraction of completions agreeing with x on s that keep the prediction."""
    _require_trees(e)
    n = e.feature_count
    x = check_instance(x, n)
    s = check_subset(s, n)
    target = eval_ensemble(e, x)
    xbits = bits_to_int(x)
    smask = subset_mask(s)
    lists = [_conditioned_triples(t, xbits, smask) for t in e.members]
    accepted = sum(1 << (n - mask.bit_count()) for mask, _ in _selections(lists, e.voting, 1))
    accept_mass = Fraction(accepted, 1 << n)
    return accept_mass if target else 1 - accept_mass
