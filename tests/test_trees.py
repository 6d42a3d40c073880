"""Tree-ensemble engine: joint path scans, hitting sets, greedy, counting."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from fpxplain import trees
from fpxplain.errors import InfeasibleError, UnsupportedModelError
from fpxplain.generate import (
    random_instance_bits, random_product_distribution, random_tree,
    random_tree_ensemble, random_tree_exact, rng_from_seed,
)
from fpxplain.models import (
    ABSENT, DecisionTree, Ensemble, Majority, ProductDistribution, Weighted,
    constant_tree, eval_model, int_to_bits, leaf, majority_ensemble, split,
    votes_accept,
)
from fpxplain.oracle import (
    oracle_completion_count, oracle_expected_value, oracle_is_contrastive,
    oracle_is_sufficient, oracle_min_contrastive, oracle_min_sufficient,
)
from fpxplain.runner import run_query
from fpxplain.trees import (
    cc_tree_ensemble, csr_single_tree, csr_tree_ensemble,
    cylinder_decomposition, enumerate_candidate_contrastive,
    expected_value_tree_ensemble, greedy_subset_minimal_sufficient,
    min_contrastive_size, min_sufficient_size, minimum_hitting_set,
)


def or_tree():
    # x0 or x1
    return DecisionTree(2, (leaf(1), leaf(0), leaf(1), split(1, 1, 2),
                            split(0, 3, 0)), 4)


def single_split(n, feature):
    return DecisionTree(n, (leaf(0), leaf(1), split(feature, 0, 1)), 2)


def test_csr_single_tree_or():
    t = or_tree()
    assert csr_single_tree(t, (1, 1), (0,))
    assert csr_single_tree(t, (1, 1), (1,))
    assert not csr_single_tree(t, (1, 1), ())
    assert not csr_single_tree(t, (0, 0), (0,))
    assert csr_single_tree(t, (0, 0), (0, 1))


def test_random_agreement_with_oracle():
    rng = rng_from_seed(51)
    for _ in range(120):
        n = rng.randint(2, 7)
        e = random_tree_ensemble(rng, n, rng.randint(1, 4), 6)
        x = random_instance_bits(rng, n)
        s = tuple(i for i in range(n) if rng.random() < 0.4)
        assert csr_tree_ensemble(e, x, s) == oracle_is_sufficient(e, x, s)
        assert cc_tree_ensemble(e, x, s) == oracle_completion_count(e, x, s)
        assert min_sufficient_size(e, x) == oracle_min_sufficient(e, x)
        assert min_contrastive_size(e, x) == oracle_min_contrastive(e, x)
        d = random_product_distribution(rng, n)
        assert expected_value_tree_ensemble(e, d) == oracle_expected_value(e, d)


def test_negative_vote_weights_constant_ensemble():
    # with weights (1, -2) and threshold 1 this ensemble rejects everything,
    # so the empty set is sufficient and nothing is contrastive
    t = single_split(2, 0)
    e = Ensemble((t, t), Weighted((Fraction(1), Fraction(-2)), Fraction(1)))
    for z in range(4):
        assert eval_model(e, int_to_bits(z, 2)) == 0
    assert csr_tree_ensemble(e, (1, 0), ())
    assert min_contrastive_size(e, (1, 0)) is ABSENT
    assert not run_query(e, "mcr", (1, 0), bound=2)["answer"]
    assert min_sufficient_size(e, (1, 0)) == (0, ())
    assert run_query(e, "msr", (1, 0), bound=0)["answer"]


def test_hitting_set_basics():
    assert minimum_hitting_set((), 4) == (0, ())
    assert minimum_hitting_set(((0, 1), (1, 2)), 3) == (1, (1,))
    assert minimum_hitting_set(((0, 2), (1, 2)), 3) == (1, (2,))
    assert minimum_hitting_set(((0,), (1,)), 2) == (2, (0, 1))
    # ties break lexicographically
    assert minimum_hitting_set(((0, 1),), 2) == (1, (0,))
    with pytest.raises(InfeasibleError):
        minimum_hitting_set(((0, 1), ()), 2)


def test_hitting_set_matches_exhaustive():
    rng = rng_from_seed(52)
    for _ in range(60):
        n = rng.randint(1, 7)
        fam = tuple(tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                    for _ in range(rng.randint(0, 6)))
        size, wit = minimum_hitting_set(fam, n)
        # exhaustive lex-first minimum
        for k in range(n + 1):
            found = None
            for cand in combinations(range(n), k):
                cs = set(cand)
                if all(cs & set(member) for member in fam):
                    found = cand
                    break
            if found is not None:
                assert (size, wit) == (k, found)
                break


def test_candidates_are_contrastive_and_minimal_flip():
    rng = rng_from_seed(53)
    for _ in range(60):
        n = rng.randint(2, 6)
        e = random_tree_ensemble(rng, n, rng.randint(1, 3), 6)
        x = random_instance_bits(rng, n)
        fx = eval_model(e, x)
        for cand in enumerate_candidate_contrastive(e, x):
            assert len(cand) > 0
            assert oracle_is_contrastive(e, x, cand)
        for cand in enumerate_candidate_contrastive(e, x, filter_minimal=True):
            flipped = tuple(1 - b if i in cand else b for i, b in enumerate(x))
            assert eval_model(e, flipped) != fx


def test_mcr_msr_decisions():
    e = majority_ensemble((or_tree(),))
    assert run_query(e, "mcr", (1, 1), bound=2)["answer"]
    assert not run_query(e, "mcr", (1, 1), bound=1)["answer"]
    assert run_query(e, "msr", (1, 1), bound=1)["answer"]
    assert not run_query(e, "msr", (1, 1), bound=0)["answer"]


def test_greedy_or_example():
    t = or_tree()
    e = majority_ensemble((t,))
    x = (1, 1)

    def suff(s):
        return csr_tree_ensemble(e, x, s)

    assert greedy_subset_minimal_sufficient(2, (0, 1), suff) == (1,)
    assert greedy_subset_minimal_sufficient(2, (1, 0), suff) == (0,)


def test_greedy_counts_calls_and_checks_order():
    t = or_tree()
    e = majority_ensemble((t,))
    calls = []

    def suff(s):
        calls.append(tuple(s))
        return csr_tree_ensemble(e, (1, 1), s)

    greedy_subset_minimal_sufficient(2, (0, 1), suff)
    assert len(calls) == 2
    with pytest.raises(Exception):
        greedy_subset_minimal_sufficient(2, (0, 0), lambda s: True)


def test_cylinders_partition_the_cube():
    from fpxplain.trees import Cylinder, _raw_triples, _selections
    rng = rng_from_seed(54)
    cases = []
    for _ in range(30):
        n = rng.randint(2, 6)
        cases.append((n, random_tree_ensemble(rng, n, rng.randint(1, 3), 5)))
    # weighted rules over halves and thirds, one negative weight each, whose
    # vote sums can land exactly on the threshold: a tie must accept
    tie_rules = (
        Weighted((Fraction(1, 2), Fraction(1, 3), Fraction(-1, 3)), Fraction(1, 2)),
        Weighted((Fraction(2, 3), Fraction(1, 3), Fraction(-1, 2)), Fraction(1, 2)),
        Weighted((Fraction(1, 2), Fraction(-2, 3), Fraction(1, 6)), Fraction(0)),
    )
    for voting in tie_rules:
        for _ in range(10):
            n = rng.randint(2, 6)
            members = tuple(random_tree(rng, n, 5) for _ in range(3))
            cases.append((n, Ensemble(members, voting)))
    ties = dict.fromkeys(tie_rules, 0)
    for n, e in cases:
        accept = cylinder_decomposition(e)
        reject = tuple(Cylinder(m, v)
                       for m, v in _selections(_raw_triples(e), e.voting, 0))
        # every input matches exactly one cylinder, on the correct side
        for z in range(1 << n):
            zb = int_to_bits(z, n)
            hits = [(cyl, want) for cyls, want in ((accept, 1), (reject, 0))
                    for cyl in cyls if (z ^ cyl.vals) & cyl.mask == 0]
            assert len(hits) == 1
            assert hits[0][1] == eval_model(e, zb)
            if e.voting in ties:
                votes = [eval_model(t, zb) for t in e.members]
                if sum(w for w, v in zip(e.voting.weights, votes) if v) == e.voting.threshold:
                    ties[e.voting] += 1
                    assert hits[0][1] == 1
        mass = sum((Fraction(1, 1 << cyl.mask.bit_count())
                    for cyl in accept + reject), Fraction(0))
        assert mass == 1
    assert all(ties.values()), ties


def test_cc_complement():
    rng = rng_from_seed(55)
    for _ in range(30):
        n = rng.randint(2, 6)
        e = random_tree_ensemble(rng, n, rng.randint(1, 3), 5)
        x = random_instance_bits(rng, n)
        s = tuple(i for i in range(n) if rng.random() < 0.5)
        # completions preserving the prediction, all completions fixed on s
        cc = cc_tree_ensemble(e, x, s)
        assert 0 <= cc <= 1
        assert cc_tree_ensemble(e, x, tuple(range(n))) == 1


def test_tree_engine_rejects_perceptron_members():
    from fpxplain.models import Perceptron
    p = Perceptron((Fraction(1),), Fraction(0))
    e = Ensemble((p,), Majority())
    with pytest.raises(UnsupportedModelError):
        csr_tree_ensemble(e, (1,), ())


def test_expected_value_skewed_distribution():
    t = or_tree()
    e = majority_ensemble((t,))
    d = random_product_distribution(rng_from_seed(56), 2)
    assert expected_value_tree_ensemble(e, d) == oracle_expected_value(e, d)
    # hand value: Pr[x0=1 or x1=1] = 1 - (1-p0)(1-p1)
    p0, p1 = d.probs
    assert expected_value_tree_ensemble(e, d) == 1 - (1 - p0) * (1 - p1)


def test_mass_memo_and_minimal_filter_match_oracle():
    """expect against the oracle across the split of each cylinder at the
    last tree's features (both parts non-empty, a constant last tree with
    nothing inside, one tree with nothing outside), and the contrastive
    queries and the minimal filter against the oracles and the plain
    pairwise definition of inclusion-minimal."""
    rng = rng_from_seed(57)
    probs = tuple(Fraction(q) for q in ("0", "1", "1/2", "1/2", "1/3", "7/8", "2/9"))
    halves = tuple(Fraction(w, 2) for w in (-3, -2, -1, 1, 2, 3))
    seen = {"k=1": 0, "wrapped": 0, "constant last": 0, "weighted": 0,
            "tie": 0, "both parts": 0, "filter drops": 0, "no flip": 0}
    for case in range(300):
        n = rng.randint(1, 7)
        if case % 6 == 0:  # a single tree wrapped as the runner wraps it
            e = majority_ensemble((random_tree(rng, n, 8),))
            seen["wrapped"] += 1
        else:
            k = rng.randint(1, 4)
            # a small last tree leaves features outside it for the others
            members = [random_tree(rng, n, 8 if j < k - 1 else rng.choice((3, 8)))
                       for j in range(k)]
            if case % 5 == 0:
                members[-1] = constant_tree(n, rng.randint(0, 1))
                seen["constant last"] += 1
            if case % 2:  # half-integer weights of either sign; sums can tie
                voting = Weighted(tuple(rng.choice(halves) for _ in range(k)),
                                  Fraction(rng.randint(-4, 4), 2))
                seen["weighted"] += 1
            else:
                voting = Majority()
            e = Ensemble(tuple(members), voting)
        x = random_instance_bits(rng, n)
        d = ProductDistribution(tuple(rng.choice(probs) for _ in range(n)))
        assert expected_value_tree_ensemble(e, d) == oracle_expected_value(e, d), case
        assert min_contrastive_size(e, x) == oracle_min_contrastive(e, x), case
        assert min_sufficient_size(e, x) == oracle_min_sufficient(e, x), case
        family = enumerate_candidate_contrastive(e, x)
        assert list(family) == sorted(family, key=lambda t: (len(t), t)), case
        sets = [frozenset(t) for t in family]
        minimal = tuple(t for t, st in zip(family, sets)
                        if not any(other < st for other in sets))
        assert enumerate_candidate_contrastive(e, x, filter_minimal=True) == minimal, case
        inside = 0
        for mask, _, _ in e.members[-1].paths:
            inside |= mask
        seen["k=1"] += len(e.members) == 1
        if isinstance(e.voting, Weighted):
            w, t = e.voting.weights, e.voting.threshold
            seen["tie"] += any(
                sum(wi for wi, m in zip(w, e.members)
                    if eval_model(m, int_to_bits(z, n))) == t
                for z in range(1 << n))
        seen["both parts"] += any(c.mask & inside and c.mask & ~inside
                                  for c in cylinder_decomposition(e))
        seen["filter drops"] += len(minimal) < len(family)
        seen["no flip"] += not family
    assert min(seen.values()) >= 30, seen


def _naive_selections(e, want):
    """Full joint selections with the given output, as (mask, vals), from
    the row-major product of the members' path lists: no pruning, no
    table, the vote read from the leaf labels by the voting rule."""
    out = []
    for choice in product(*(t.paths for t in e.members)):
        mask = vals = 0
        for m, v, _ in choice:
            if (vals ^ v) & mask & m:
                break
            mask, vals = mask | m, vals | v
        else:
            if votes_accept(e.voting, [lab for _, _, lab in choice]) == want:
                out.append((mask, vals))
    return out


def test_table_scan_matches_its_oracle_twins():
    """The scan that reads the last tree through a table, against the
    oracles and a naive row-major product: csr and cc on every subset,
    expect, mcr, msr, and enumeration (its minimal filter is exactly the
    subset-minimal contrastive sets), on k = 1 to 4 trees under majority
    and weighted votes with negative weights and exact ties, a last tree
    that is a single leaf (U empty), and probabilities 0 and 1. The
    cylinders and the flip masks come in the naive product's order. csr
    answers both ways on one tree and on more: a yes runs the walk to its
    end, a no stops it at the first prefix with a non-empty entry."""
    rng = rng_from_seed(59)
    sixths = tuple(Fraction(w, 6) for w in (-4, -3, -2, 2, 3, 4))
    seen = dict.fromkeys(("k=1", "k=4", "weighted", "tie", "single-leaf last",
                          "p=0", "p=1", "no flip", "csr yes k=1", "csr no k=1",
                          "csr yes k>=2", "csr no k>=2"), 0)
    for case in range(160):
        n = rng.randint(2, 5)
        k = case % 4 + 1
        members = [random_tree(rng, n, 6) for _ in range(k)]
        if case % 5 == 0:
            members[-1] = constant_tree(n, rng.randint(0, 1))
            seen["single-leaf last"] += 1
        if case % 2:
            # a threshold equal to the sum of some weights ties exactly
            # when those members vote 1 and the others 0
            weights = tuple(rng.choice(sixths) for _ in range(k))
            voting = Weighted(weights, sum((w for w in weights if rng.random() < 0.5),
                                           Fraction(0)))
            seen["weighted"] += 1
        else:
            voting = Majority()
        e = Ensemble(tuple(members), voting)
        x = random_instance_bits(rng, n)
        probs = tuple(rng.choice((Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 4)))
                      for _ in range(n))
        d = ProductDistribution(probs)
        accept = _naive_selections(e, 1)
        assert cylinder_decomposition(e) == tuple(trees.Cylinder(m, v) for m, v in accept), case
        xbits = sum(b << i for i, b in enumerate(x))
        flips = {(v ^ xbits) & m for m, v in _naive_selections(e, 1 - eval_model(e, x))}
        family = enumerate_candidate_contrastive(e, x)
        assert family == tuple(sorted(sorted(map(trees._members, flips)), key=len)), case
        contrastive = [s for r in range(n + 1) for s in combinations(range(n), r)
                       if oracle_is_contrastive(e, x, s)]
        minimal = tuple(s for s in contrastive
                        if not any(set(t) < set(s) for t in contrastive))
        assert enumerate_candidate_contrastive(e, x, filter_minimal=True) == minimal, case
        for r in range(n + 1):
            for s in combinations(range(n), r):
                sufficient = csr_tree_ensemble(e, x, s)
                assert sufficient == oracle_is_sufficient(e, x, s), (case, s)
                seen[f"csr {'yes' if sufficient else 'no'} k{'=1' if k == 1 else '>=2'}"] += 1
                assert cc_tree_ensemble(e, x, s) == oracle_completion_count(e, x, s), (case, s)
        assert expected_value_tree_ensemble(e, d) == oracle_expected_value(e, d), case
        assert min_contrastive_size(e, x) == oracle_min_contrastive(e, x), case
        assert min_sufficient_size(e, x) == oracle_min_sufficient(e, x), case
        seen["k=1"] += k == 1
        seen["k=4"] += k == 4
        if isinstance(voting, Weighted):
            seen["tie"] += any(
                sum((w for w, t in zip(voting.weights, members)
                     if eval_model(t, int_to_bits(z, n))), Fraction(0)) == voting.threshold
                for z in range(1 << n))
        seen["p=0"] += Fraction(0) in probs
        seen["p=1"] += Fraction(1) in probs
        seen["no flip"] += not family
    assert min(seen.values()) >= 20, seen


def test_min_sufficient_on_the_hitting_set_hot_spot():
    """Four 24-leaf trees over 30 features whose 4,960 flip masks reduce to
    71 minimal ones; size and witness as the unfiltered search gave them."""
    rng = rng_from_seed(37)
    e = majority_ensemble(tuple(random_tree_exact(rng, 30, 24) for _ in range(4)))
    x = random_instance_bits(rng, 30)
    assert min_sufficient_size(e, x) == (10, (1, 3, 11, 14, 15, 21, 25, 26, 28, 29))
    assert len(enumerate_candidate_contrastive(e, x)) == 4960
    assert len(enumerate_candidate_contrastive(e, x, filter_minimal=True)) == 71


def _cylinder_mass(d, c):
    mass = Fraction(1)
    for i in c.fixed_features():
        mass *= d.bit_prob(i, (c.vals >> i) & 1)
    return mass


def test_expect_factors_each_part_once(monkeypatch):
    """expect factors each scan entry: one factor for the prefix's part
    inside the last tree's features per table entry, one per distinct
    part of a row outside that, and one per distinct prefix part outside
    the last tree's features, each once per call."""
    calls = []
    factors = trees._mass_factors
    monkeypatch.setattr(trees, "_mass_factors",
                        lambda *args: calls.append(args[:2]) or factors(*args))
    rng = rng_from_seed(58)
    for k in (1, 3):
        e = majority_ensemble(tuple(random_tree_exact(rng, 20, 10) for _ in range(k)))
        d = random_product_distribution(rng, 20)
        entries = []
        outside = {(mask, vals) for mask, vals, _ in trees._prefixes(
            [t.paths for t in e.members], e.voting, 1,
            lambda rows, mu, vu: entries.append((rows, mu, vu)) or len(entries))}
        tails = {(rm ^ mu, rv ^ vu) for rows, mu, vu in entries for rm, rv in rows}
        cylinders = cylinder_decomposition(e)
        calls.clear()
        assert expected_value_tree_ensemble(e, d) == sum(
            (_cylinder_mass(d, c) for c in cylinders), Fraction(0))
        assert len(calls) == len(entries) + len(tails) + len(outside), k
