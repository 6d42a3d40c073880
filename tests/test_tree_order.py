"""The tree engine's candidate order and its factored expectation, against
their plain references: the two tuple sorts of the flip masks, and the
oracle's expected value."""

from fractions import Fraction
from itertools import product

from fpxplain import trees
from fpxplain.generate import (
    random_instance_bits, random_tree, random_tree_exact, rng_from_seed,
)
from fpxplain.models import (
    DecisionTree, Ensemble, Majority, ProductDistribution, Weighted,
    constant_tree, leaf, split, votes_accept,
)
from fpxplain.oracle import oracle_expected_value, oracle_min_contrastive
from fpxplain.trees import (
    enumerate_candidate_contrastive, expected_value_tree_ensemble,
    min_contrastive_size,
)

WIDTHS = (1, 7, 8, 9, 16, 17, 40, 70)


def _reference(masks):
    """Member tuples by size, then lexicographically: the order the
    enumeration promises, by the plain two sorts."""
    return tuple(sorted(sorted(map(trees._members, masks)), key=len))


def _mask_family(rng, n):
    """Random masks over n features: sparse ones of a drawn size, dense
    ones, and the masks one bit apart at both ends and at the half split."""
    masks = set()
    for _ in range(rng.randint(0, 150)):
        size = rng.randint(0, min(n, rng.choice((3, 8, n))))
        masks.add(sum(1 << i for i in rng.sample(range(n), size)))
    for i in (0, n // 2 - 1, n // 2, n - 1):
        if 0 <= i < n:
            masks.add(1 << i)
            masks.add((1 << n) - 1 ^ 1 << i)
    return masks


def test_byte_table_is_the_reversed_complement():
    assert trees._LEX_TABLE == bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def test_lex_order_and_member_tuples_match_the_tuple_sorts():
    rng = rng_from_seed(91)
    for n in WIDTHS:
        for trial in range(40):
            masks = _mask_family(rng, n)
            order = trees._lex_order(masks, n)
            assert tuple(trees._member_tuples(order, n)) == _reference(masks), (n, trial)
            key = trees._lex_key(n)
            for size in {m.bit_count() for m in masks}:
                same = [m for m in masks if m.bit_count() == size]
                assert trees._members(min(same, key=key)) == min(map(trees._members, same))


def _ensemble(rng, n, k, voting_case):
    members = tuple(random_tree(rng, n, rng.choice((4, 8, 12))) for _ in range(k))
    if voting_case:
        weights = tuple(Fraction(rng.choice((-3, -1, 1, 2, 3)), rng.choice((1, 2)))
                        for _ in range(k))
        return Ensemble(members, Weighted(weights, Fraction(rng.randint(-2, 2), 2)))
    return Ensemble(members, Majority())


def test_enumeration_and_mcr_order_match_the_references():
    """enumerate_candidate_contrastive, both with and without the minimal
    filter, against the two tuple sorts of the flip masks, at widths that
    cross byte boundaries, the half split and 64 bits; the mcr witness
    against the oracle where it runs, and against the first reference
    candidate elsewhere."""
    rng = rng_from_seed(92)
    checked = dict.fromkeys(WIDTHS, 0)
    for n in WIDTHS:
        for trial in range(12):
            e = _ensemble(rng, n, rng.randint(1, 3), trial % 2)
            x = random_instance_bits(rng, n)
            flips = trees._flip_masks(e, x)
            family = enumerate_candidate_contrastive(e, x)
            assert family == _reference(flips), (n, trial)
            minimal = enumerate_candidate_contrastive(e, x, filter_minimal=True)
            assert minimal == _reference(trees._inclusion_minimal(flips)), (n, trial)
            got = min_contrastive_size(e, x)
            if n <= 9:
                assert got == oracle_min_contrastive(e, x), (n, trial)
            if family:
                assert got == (len(family[0]), family[0]), (n, trial)
                checked[n] += 1
            else:
                assert not got
    assert min(checked.values()) >= 3, checked


def test_seed_37_candidate_counts_keep_their_order():
    rng = rng_from_seed(37)
    e = Ensemble(tuple(random_tree_exact(rng, 30, 24) for _ in range(4)), Majority())
    x = random_instance_bits(rng, 30)
    flips = trees._flip_masks(e, x)
    assert enumerate_candidate_contrastive(e, x) == _reference(flips)
    minimal = enumerate_candidate_contrastive(e, x, filter_minimal=True)
    assert minimal == _reference(trees._inclusion_minimal(flips))
    assert (len(flips), len(minimal)) == (4960, 71)


def _entry_shapes(e):
    """Which shapes of the factored entry mass e reaches, from the accepted
    joint selections: a last-tree path that tests a feature the other
    paths fix (S smaller than the path's mask), and one that does not."""
    *heads, last = [t.paths for t in e.members]
    seen = set()
    for choice in product(*heads, last):
        mask = vals = 0
        for m, v, _ in choice:
            if (vals ^ v) & mask & m:
                break
            mask, vals = mask | m, vals | v
        else:
            if votes_accept(e.voting, [lab for _, _, lab in choice]):
                fixed = 0
                for m, _, _ in choice[:-1]:
                    fixed |= m
                seen.add("S < path" if choice[-1][0] & fixed else "S = path")
    return seen


def test_factored_expectation_matches_the_oracle():
    """expect's entry factorisation against the oracle at n <= 10, over
    probabilities 0 and 1 (entries of zero mass), mixed denominators,
    k = 1 (the dummy prefix only), weighted votes with negative weights,
    a constant last tree, and last trees that test features the other
    trees fix."""
    rng = rng_from_seed(93)
    probs = tuple(map(Fraction, ("0", "1", "1/2", "1/3", "2/5", "7/8", "5/12", "11/13")))
    seen = dict.fromkeys(("k=1", "negative weight", "p in {0, 1}", "mixed denominators",
                          "constant last", "S < path", "S = path", "zero"), 0)
    for case in range(240):
        n = rng.randint(1, 10)
        k = 1 if case % 4 == 0 else rng.randint(2, 4)
        members = [random_tree(rng, n, rng.choice((3, 6, 10))) for _ in range(k)]
        if case % 9 == 0:
            members[-1] = constant_tree(n, rng.randint(0, 1))
            seen["constant last"] += 1
        if case % 2:
            weights = tuple(Fraction(rng.choice((-5, -2, -1, 1, 3, 4)), rng.choice((1, 2, 3)))
                            for _ in range(k))
            voting = Weighted(weights, Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
            seen["negative weight"] += any(w < 0 for w in weights)
        else:
            voting = Majority()
        e = Ensemble(tuple(members), voting)
        d = ProductDistribution(tuple(rng.choice(probs) for _ in range(n)))
        got = expected_value_tree_ensemble(e, d)
        assert got == oracle_expected_value(e, d), case
        seen["k=1"] += k == 1
        seen["p in {0, 1}"] += any(p in (0, 1) for p in d.probs)
        seen["mixed denominators"] += len({p.denominator for p in d.probs}) >= 3
        seen["zero"] += got == 0
        for shape in _entry_shapes(e):
            seen[shape] += 1
    assert min(seen.values()) >= 10, seen


def test_factored_expectation_on_chosen_overlaps():
    """Two trees that both split on feature 0 and the last one also on 1,
    under every probability pair from {0, 1/3, 1}: each entry's prefix
    fixes feature 0 inside U, so every completing path's S drops it."""
    first = DecisionTree(2, (leaf(0), leaf(1), split(0, 0, 1)), 2)
    last = DecisionTree(2, (leaf(1), leaf(0), leaf(1), split(1, 0, 1), split(0, 2, 3)), 4)
    seen = set()
    for voting in (Majority(), Weighted((Fraction(-1, 2), Fraction(3)), Fraction(1, 3))):
        e = Ensemble((first, last), voting)
        seen |= _entry_shapes(e)
        for pair in product((Fraction(0), Fraction(1, 3), Fraction(1)), repeat=2):
            d = ProductDistribution(pair)
            assert expected_value_tree_ensemble(e, d) == oracle_expected_value(e, d)
    assert "S < path" in seen
