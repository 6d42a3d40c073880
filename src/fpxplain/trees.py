"""Exact explanation queries on ensembles of decision trees.

The engine behind every query is one generator, _prefixes, over joint
leaf selections: one root-to-leaf path per member tree, kept only when
the paths are pairwise non-conflicting. A full selection fixes a partial
assignment (the union of the path constraints) and determines the
ensemble vote exactly from the leaf labels. Votes are summed on the
integer view of the voting rule (majority is unit weights with threshold
ceil(k/2), rational weights are scaled to integers), which stays exact
for weighted voting with negative weights, and a branch is cut as soon
as the remaining trees cannot bring the sum to the wanted side. Distinct
selections conflict in at least one tree, so the accepted selections
partition the accepted instances into disjoint cylinders.

The walk covers the first k - 1 trees; the last tree is read through a
table local to the call. Which last-tree paths complete a prefix depends
only on the prefix on U, the features the last tree tests, and on the
labels its vote accepts, so prefixes that agree there share one entry,
the list of completions in path order: the separator of bucket
elimination (Dechter, AIJ 1999) between the last tree and the others.
A prefix comes with its part outside U only, since its entry's rows
already hold its part inside U. Consumers that need every cylinder (the
decomposition, and cylinder_sums, the pass that gives the size-stratified
sums H(k) and every Shapley value) expand prefix x entry in row-major
order. The other consumers fold each entry's rows, given the prefix's
part inside U too. The flip masks keep each entry's row masks and join
the prefix's own. Counting and expectation keep one integer sum per
entry, so a prefix costs one lookup and one multiply-add. An entry's mass
factors at the prefix's part inside U: one factor for that part, times,
for each row, the factor of the row's features outside it, memoised per
call. Sufficiency runs the same walk and stops at the first prefix whose
entry is non-empty.

The contrastive queries read one set of flip masks, the features on
which a selection that overturns f(x) disagrees with x. The smallest
contrastive set is a smallest mask. Candidates come by size, then by
member tuple: the masks are sorted before any tuple is built, by a bytes
key under which equal-size masks compare as their tuples do (_lex_key),
and each tuple is then joined once from memoised tuples of its low and
high halves. Minimum sufficient reasons come from the hitting-set
duality (Ignatiev, Narodytska & Marques-Silva, AAAI 2019): a set is
sufficient iff it meets every flip mask, and iff it meets every
inclusion-minimal one, so the family is reduced to those before the
search.

Cost is O(m^(k-1)) prefixes for k trees with at most m leaves each,
each one table lookup, plus O(m) per distinct table entry; the
consumers that expand the entries add O(m^k) cheap bitmask steps, so
everything here is exponential only in k. The walk keeps an explicit
stack, so k is not bounded by the recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import factorial, prod
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import InfeasibleError, UnsupportedModelError
from .models import (
    ABSENT, DecisionTree, Ensemble, Instance, ProductDistribution, bits_to_int,
    check_dist, check_instance, check_subset, eval_ensemble, eval_tree,
    integer_votes, packed_dot, subset_mask,
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


def _prefixes(lists, voting, want: int, fold=None):
    """Yield (mask, vals, entry) for each selection of the first k - 1 trees
    that some path of the last tree completes to the given output, with
    (mask, vals) the selection's part outside U (see below).

    The prefixes come in row-major order over the per-tree path lists, the
    walk keeps an explicit stack, and the vote is kept on the integer view
    of the voting rule; for want = 0 the weights are negated, so "sum <
    threshold" becomes "sum >= 1 - threshold" and both sides prune alike.

    The last tree is read through a table local to the call. Its paths test
    only the features in U, the union of their masks, so which of them
    complete a prefix depends only on the prefix's (mask, vals) on U and
    on the labels its vote accepts. An entry lists those completions in
    path order as rows (mask, vals) on U: the prefix's part (mu, vu)
    inside U joined with the path. So a row holds the prefix's part inside
    U, the prefix is yielded by its part outside U, and its full selections
    are its (mask | row mask, vals | row vals) for the rows of its entry.
    The entry is fold(rows, mu, vu) when a fold is given, so a consumer
    can keep one sum per entry and factor it at (mu, vu). Entries are
    built on their first miss, and a prefix whose entry is empty is not
    yielded, so a consumer that stops at the first prefix (sufficiency)
    builds entries only for the prefixes the walk reaches.

    Since any partial assignment extends to a full instance, and a full
    instance follows some path in every tree, the scan yields a first
    prefix exactly when some instance gets the wanted output.
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
    last, w = lists[k - 1], weights[k - 1]
    inside = _support(last)
    # one tree: the only prefix is the empty selection, walked as a
    # dummy path that fixes nothing and is held to need[0]
    heads = lists[:k - 1] or [((0, 0, 0),)]
    floor = need[1:k] or need[:1]
    depth = len(heads)
    table: dict[tuple[int, int, bool, bool], object] = {}
    stack = [(iter(heads[0]), 0, 0, 0)]
    while stack:
        paths, mask, vals, vote = stack[-1]
        j = len(stack)
        for m2, v2, lab in paths:
            if (vals ^ v2) & mask & m2:
                continue
            v = vote + weights[j - 1] if lab else vote
            if v < floor[j - 1]:
                continue
            if j < depth:
                stack.append((iter(heads[j]), mask | m2, vals | v2, v))
                break
            pm, pv = mask | m2, vals | v2
            mu, vu = pm & inside, pv & inside
            take0, take1 = v >= threshold, v + w >= threshold
            key = (mu, vu, take0, take1)
            entry = table.get(key, table)
            if entry is table:
                rows = [(mu | lm, vu | lv) for lm, lv, ll in last
                        if (take1 if ll else take0) and not (vu ^ lv) & mu & lm]
                entry = table[key] = (fold(rows, mu, vu) if fold else rows) if rows else None
            if entry is not None:
                yield pm ^ mu, pv ^ vu, entry
        else:
            stack.pop()


def _support(paths) -> int:
    """The union of the path masks: the features a tree tests."""
    out = 0
    for m, _, _ in paths:
        out |= m
    return out


def _selections(lists, voting, want: int):
    """Every full joint selection with the given output, as (mask, vals),
    in row-major order over the per-tree path lists (see _prefixes)."""
    for mask, vals, rows in _prefixes(lists, voting, want):
        for rm, rv in rows:
            yield mask | rm, vals | rv


# ---------------------------------------------------------------------------
# sufficiency


def _conditioned(e: Ensemble, x: Instance, s) -> tuple[int, list]:
    """(f(x), each member's paths consistent with x on s), after checking
    the members, then x, then s."""
    _require_trees(e)
    n = e.feature_count
    x = check_instance(x, n)
    smask = subset_mask(check_subset(s, n))
    target = eval_ensemble(e, x)
    xbits = bits_to_int(x)
    return target, [_conditioned_triples(t, xbits, smask) for t in e.members]


def csr_tree_ensemble(e: Ensemble, x: Instance, s) -> bool:
    """Is fixing x on s enough to force the ensemble's prediction?"""
    target, lists = _conditioned(e, x, s)
    return next(_prefixes(lists, e.voting, 1 - target), None) is None


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
    flips: set[int] = set()

    def entry_flips(rows, mu, vu) -> set[int]:
        return {(rv ^ xbits) & rm for rm, rv in rows}

    # an entry holds the flip masks of its rows; a prefix adds its own part
    for mask, vals, row_flips in _prefixes(_raw_triples(e), e.voting, 1 - eval_ensemble(e, x),
                                           entry_flips):
        pf = (vals ^ xbits) & mask
        flips.update([pf | f for f in row_flips] if pf else row_flips)
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


def _byte_table() -> bytes:
    """Byte b -> 255 minus b with its bits reversed, which is ~b reversed:
    the bytes of ~b for every b, bit-reversed in three swaps of halves
    (nibbles, bit pairs, bits) on all 256 lanes at once."""
    lanes = int.from_bytes(bytes(range(255, -1, -1)), "little")
    for shift, pattern in ((4, b"\x0f"), (2, b"\x33"), (1, b"\x55")):
        low = int.from_bytes(pattern * 256, "little")
        lanes = (lanes >> shift) & low | (lanes & low) << shift
    return lanes.to_bytes(256, "little")


_LEX_TABLE = _byte_table()


def _lex_key(n: int) -> Callable[[int], bytes]:
    """A key under which masks over n features of one size sort as their
    member tuples do.

    Of two distinct sets of one size, the lexicographically first member
    tuple is the one holding the lowest feature of their symmetric
    difference. The key writes a mask in little-endian bytes, so that
    feature's byte is the first that differs, and maps each byte to 255
    minus its bit reversal, so within that byte the lower feature is the
    more significant bit and the set holding it gets the smaller byte.
    """
    width = (n + 7) // 8
    return lambda m: m.to_bytes(width, "little").translate(_LEX_TABLE)


def _lex_order(masks, n: int) -> list[int]:
    """The masks by size, then by member tuple (see _lex_key)."""
    out = sorted(masks, key=_lex_key(n))
    out.sort(key=int.bit_count)  # stable: each size keeps the key order
    return out


class _HalfMembers(dict):
    """Half mask -> its member tuple, the mask shifted up by shift bits;
    each tuple is built on its first lookup."""

    def __init__(self, shift: int):
        super().__init__()
        self.shift = shift

    def __missing__(self, half: int) -> tuple[int, ...]:
        got = self[half] = _members(half << self.shift)
        return got


def _member_tuples(masks, n: int) -> list[tuple[int, ...]]:
    """_members of each mask over n features, each joined from the tuples
    of its low and high halves, which repeat across a family."""
    h = n // 2
    low = (1 << h) - 1
    lows, highs = _HalfMembers(0), _HalfMembers(h)
    return [lows[m & low] + highs[m >> h] for m in masks]


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
    n = e.feature_count
    return tuple(_member_tuples(_lex_order(flips, n), n))


def min_contrastive_size(e: Ensemble, x: Instance):
    """(size, witness) of a smallest contrastive set, or ABSENT if none."""
    flips = _flip_masks(e, x)
    if not flips:
        return ABSENT
    size = min(map(int.bit_count, flips))
    witness = min((m for m in flips if m.bit_count() == size), key=_lex_key(e.feature_count))
    return size, _members(witness)


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
    denominators. The scan's prefixes fix the features outside U, the
    features the last tree tests, and its entries the ones inside (see
    _prefixes), so the mass splits at U: an entry keeps its rows' summed
    mass on U over D_U, the product of the denominators on U, and a prefix
    adds D // (D_U d_out) * q_out times it, where q_out and d_out are the
    products of the numerator factors and of the denominators on the
    prefix's part outside U, memoised per call.

    An entry's rows all hold the prefix's part (mu, vu) inside U, so its
    mass factors there: with head = D_U // d(mu) * q(mu, vu), a completing
    path adds head // d(S) * q(S), S the path's features outside mu, and
    (q(S), d(S)) is memoised per call by the row's part outside mu.
    """
    _require_trees(e)
    n = e.feature_count
    check_dist(dist, n)
    nums = [p.numerator for p in dist.probs]
    dens = [p.denominator for p in dist.probs]
    denom = prod(dens)
    lists = _raw_triples(e)
    inside = _support(lists[-1])
    d_in = prod(dens[i] for i in _members(inside))
    rest = denom // d_in
    tails: dict[tuple[int, int], tuple[int, int]] = {}  # (S, vals on S) -> (q, d) on S

    def mass(rows, mu, vu) -> int:
        q, d = _mass_factors(mu, vu, nums, dens)
        # exact: d is the product of the denominators on mu, inside U. So
        # head carries those on U minus mu, of which each d(S) below, a
        # product over S inside U minus mu, is a divisor
        head = d_in // d * q
        total = 0
        for rm, rv in rows:
            key = rm ^ mu, rv ^ vu  # the row minus the prefix's part
            got = tails.get(key)
            if got is None:
                got = tails[key] = _mass_factors(*key, nums, dens)
            total += head // got[1] * got[0]
        return total

    scales: dict[tuple[int, int], int] = {}  # a prefix part outside U -> its mass over D // D_U
    acc = 0
    for mask, vals, f in _prefixes(lists, e.voting, 1, mass):
        scale = scales.get((mask, vals))
        if scale is None:
            # exact: mask lies outside U, and rest is the product of the
            # denominators there
            q, d = _mass_factors(mask, vals, nums, dens)
            scale = scales[mask, vals] = rest // d * q
        acc += scale * f
    return Fraction(acc, denom)


def cylinder_sums(e: Ensemble, x: Instance,
                  dist: ProductDistribution) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(H, phi) of a tree ensemble at x, from one pass over the accepted
    cylinders: H[k] sums E[f | z_s = x_s] over the size-k subsets s, and
    phi[i] is the Shapley value of feature i. The caller checks the
    arguments: e is an ensemble of trees, x a tuple of n bits, dist over n.

    A cylinder (M, V) fixes the features in M to V and leaves the others
    free. Given z_s = x_s it has probability prod_{i in M} of [V_i = x_i]
    for i in s and p_i(V_i) otherwise, so its generating polynomial in t
    (t marking membership in s) is

        prod_{i in M} (p_i(V_i) + t [V_i = x_i]) * (1 + t)^(n - |M|),

    and the coefficients of the sum over cylinders are the H(k). phi_i
    takes from each cylinder fixing i the factor [V_i = x_i] - p_i(V_i)
    times the same polynomial without i's factor, with t^k weighted by
    k! (n-k-1)! / n!.

    The pass works over S, the s features some member tests: the others
    are free in every cylinder. With a_i = den_i p_i(V_i) and
    b_i = den_i [V_i = x_i], a cylinder's factor is a_i + b_i t for a fixed
    feature and 1 + t for a free one of S. Packed at t = 2^slot over D_S,
    the product of the denominators on S, its product is one integer. H is
    the total times (1 + t)^(n - s), over D_S. For phi,
    L_m(R) = sum_k R_k k! (m-1-k)! satisfies
    L_n(R (1 + t)^(n - s)) = (n! / s!) L_s(R), so phi is over D_S s!, and
    phi_i = 0 outside S.

    The product splits at U, the features the last tree tests (see
    _prefixes): a prefix factor over S minus U, computed once per run of
    consecutive equal prefixes, and a row factor over U, computed once per
    row and call. A cylinder costs their one product, added to the buckets
    (i, V_i) of its features in U; a run adds its summed products to the
    total and to the buckets of its features outside U once.

    Feature i has two buckets, and i's factor is the same throughout each.
    The one with V_i != x_i has b_i = 0, so its factor is the constant a_i
    and it adds -L_s(bucket). The other is divided exactly by
    a_i + b_i 2^slot into Q, and (b_i - a_i) Q minus the first bucket is
    read once, with 2^(slot-1) added to every cell. A bucket coefficient is
    below D_S 2^s, and so is (b_i - a_i) Q_k <= b_i Q_k, which is at most
    coefficient k + 1 of its bucket. The slot, sized for H, has
    2^(slot-1) > D_S 2^(n+1), so every biased cell lies in (0, 2^slot).
    """
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
    for (om, ov), run in groupby(_prefixes(lists, e.voting, 1), itemgetter(0, 1)):
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


def cc_tree_ensemble(e: Ensemble, x: Instance, s) -> Fraction:
    """Fraction of completions agreeing with x on s that keep the prediction.

    An entry of the scan keeps the completions over U, the features the
    last tree tests, that its rows leave free; a prefix multiplies them by
    the completions outside U that it leaves free (see _prefixes).
    """
    target, lists = _conditioned(e, x, s)
    n = e.feature_count
    width = _support(lists[-1]).bit_count()
    rest = n - width

    def count(rows, mu, vu) -> int:
        return sum(1 << (width - rm.bit_count()) for rm, _ in rows)

    accepted = sum(c << (rest - mask.bit_count())
                   for mask, _, c in _prefixes(lists, e.voting, 1, count))
    accept_mass = Fraction(accepted, 1 << n)
    return accept_mass if target else 1 - accept_mass
