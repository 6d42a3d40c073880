"""Tree-ensemble engine: joint path scans, hitting sets, greedy, counting."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from fpxplain import trees
from fpxplain.errors import InfeasibleError, InputShapeError, UnsupportedModelError
from fpxplain.generate import (
    random_instance_bits, random_product_distribution, random_tree,
    random_tree_ensemble, random_tree_exact, rng_from_seed,
)
from fpxplain.models import (
    ABSENT, DecisionTree, Ensemble, Majority, Perceptron, ProductDistribution, Weighted,
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
    # the order reads the bits the members use, however large n is
    assert minimum_hitting_set(((0, 5), (3,)), 10 ** 12) == (2, (0, 3))


def test_hitting_set_refuses_an_index_outside_the_ground_set():
    """A member index that is not an int in 0..n-1 is an input error: a
    negative one no longer raises "negative shift count", True is not read
    as 1, and one past n-1 is no longer reported as infeasible."""
    for family, index in ((((-1,),), "-1"), (((0, True),), "True"), (((1, 3),), "3"),
                          (((0,), (1.0,)), "1.0"), (((10 ** 5000,),), "<int too long to print>")):
        with pytest.raises(InputShapeError) as err:
            minimum_hitting_set(family, 3)
        assert str(err.value) == f"feature index {index} outside range 0..2", family


def test_tree_engines_refuse_a_model_of_the_wrong_type():
    p = Perceptron((Fraction(1),), Fraction(0))
    tree = DecisionTree(1, (split(0, 1, 2), leaf(0), leaf(1)))
    for engine, args in ((cc_tree_ensemble, ((1,), ())), (csr_tree_ensemble, ((1,), ())),
                         (expected_value_tree_ensemble, (ProductDistribution.uniform(1),)),
                         (cylinder_decomposition, ())):
        for model, message in ((p, "expected an ensemble, got Perceptron"),
                               (tree, "expected an ensemble, got DecisionTree"),
                               (Ensemble((tree, p), Majority()),
                                "ensemble member is not a decision tree")):
            with pytest.raises(UnsupportedModelError) as err:
                engine(model, *args)
            assert str(err.value) == message, (engine.__name__, message)
    with pytest.raises(UnsupportedModelError) as err:
        csr_single_tree(majority_ensemble((tree,)), (1,), ())
    assert str(err.value) == "expected a decision tree, got Ensemble"


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
    # repeats, a non-iterable and an entry that is not an index
    for n, order in ((2, (0, 0)), (3, (0, 1, 1)), (3, 3), (3, (0, 1, "2"))):
        with pytest.raises(InputShapeError):
            greedy_subset_minimal_sufficient(n, order, lambda s: True)


def test_cylinders_partition_the_cube():
    from fpxplain.trees import _raw_triples, _selections
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
        reject = tuple(_selections(_raw_triples(e), e.voting, 0))
        # every input matches exactly one cylinder, on the correct side
        for z in range(1 << n):
            zb = int_to_bits(z, n)
            hits = [(cyl, want) for cyls, want in ((accept, 1), (reject, 0))
                    for cyl in cyls if (z ^ cyl[1]) & cyl[0] == 0]
            assert len(hits) == 1
            assert hits[0][1] == eval_model(e, zb)
            if e.voting in ties:
                votes = [eval_model(t, zb) for t in e.members]
                if sum(w for w, v in zip(e.voting.weights, votes) if v) == e.voting.threshold:
                    ties[e.voting] += 1
                    assert hits[0][1] == 1
        mass = sum((Fraction(1, 1 << mask.bit_count())
                    for mask, _ in accept + reject), Fraction(0))
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
        seen["both parts"] += any(mask & inside and mask & ~inside
                                  for mask, _ in cylinder_decomposition(e))
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


def test_the_walk_carries_a_state_and_drops_where_its_step_says():
    """A step sees its parent's state and mask and returns the child's: a
    carry of the selection itself yields the walk's prefixes unchanged,
    each with its full selection as state, and a step that drops the
    selections fixing feature 0 to 1 yields exactly the other prefixes."""
    rng = rng_from_seed(61)
    dropped = 0
    for _ in range(40):
        e = random_tree_ensemble(rng, 8, rng.randint(1, 4), 8)
        lists = [t.paths for t in e.members]
        inside = trees._support(lists[-1])
        for want in (0, 1):
            plain = list(trees._prefixes(lists, e.voting, want))

            def carry(state, mask, m2, v2):
                assert state[0] == mask
                return state[0] | m2, state[1] | v2

            def drop(state, mask, m2, v2):
                child = carry(state, mask, m2, v2)
                return None if child[1] & 1 else child

            carried = list(trees._prefixes(lists, e.voting, want, step=carry, start=(0, 0)))
            assert [p[:3] for p in carried] == plain
            assert all((fm & ~inside, fv & ~inside) == (mask, vals)
                       for mask, vals, _, (fm, fv) in carried)
            kept = list(trees._prefixes(lists, e.voting, want, step=drop, start=(0, 0)))
            assert kept == [p for p in carried if not p[3][1] & 1]
            dropped += len(carried) - len(kept)
    assert dropped == 106, dropped


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
        assert cylinder_decomposition(e) == tuple(accept), case
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


def _cylinder_mass(d, mask, vals):
    mass = Fraction(1)
    for i in range(d.feature_count):
        if mask >> i & 1:
            mass *= d.probs[i] if vals >> i & 1 else 1 - d.probs[i]
    return mass


def test_expect_factors_each_part_once(monkeypatch):
    """expect factors each scan entry and carries each prefix's mass
    outside the last tree's features U down the walk: one factor for the
    prefix's part inside U per table entry, one per distinct part of a row
    outside that, and one per distinct part that a path of the walk newly
    fixes outside U, each once per call."""
    calls = []
    factors = trees._mass_factors
    monkeypatch.setattr(trees, "_mass_factors",
                        lambda *args: calls.append(args[:2]) or factors(*args))
    rng = rng_from_seed(58)
    for k in (1, 3):
        e = majority_ensemble(tuple(random_tree_exact(rng, 20, 10) for _ in range(k)))
        d = random_product_distribution(rng, 20)
        lists = [t.paths for t in e.members]
        inside = trees._support(lists[-1])
        entries, fixed = [], set()

        def record(state, mask, m2, v2):
            new = m2 & ~(mask | inside)
            if new:
                fixed.add((new, v2 & new))
            return state

        list(trees._prefixes(lists, e.voting, 1,
                             lambda rows, mu, vu: entries.append((rows, mu, vu)) or len(entries),
                             record, 0))
        tails = {(rm ^ mu, rv ^ vu) for rows, mu, vu in entries for rm, rv in rows}
        cylinders = cylinder_decomposition(e)
        calls.clear()
        assert expected_value_tree_ensemble(e, d) == sum(
            (_cylinder_mass(d, *c) for c in cylinders), Fraction(0))
        assert len(calls) == len(entries) + len(tails) + len(fixed), k
        assert bool(fixed) == (k > 1), k


def _scan_sized_ensembles():
    """Seeded ensembles of the decide-count shapes, past the oracle's cap:
    two draws of each of n in {30, 40}, k in {3, 4}, m in {12, 24} leaves
    per tree, under majority and under weighted votes with negative
    weights; with an instance each."""
    rng = rng_from_seed(27)
    for n, k, m, weighted in product((30, 40), (3, 4), (12, 24), (False, True)):
        for _ in range(2):
            members = tuple(random_tree_exact(rng, n, m) for _ in range(k))
            if weighted:
                voting = Weighted(tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                                 rng.choice((1, 2))) for _ in range(k)),
                                  Fraction(rng.randint(-4, 4), 2))
            else:
                voting = Majority()
            yield Ensemble(members, voting), random_instance_bits(rng, n)


def test_mcr_past_the_oracle_cap():
    """The bounded walk's (size, witness) is the family's first candidate,
    flipping the witness overturns f(x), and dropping any one of its
    features leaves a set whose complement is sufficient: the witness is
    subset-minimal as well as smallest."""
    seen = {"models": 0, "absent": 0, "sizes": set()}
    for e, x in _scan_sized_ensembles():
        seen["models"] += 1
        got = min_contrastive_size(e, x)
        family = enumerate_candidate_contrastive(e, x)
        if not family:
            assert got is ABSENT
            seen["absent"] += 1
            continue
        size, witness = got
        assert got == (len(family[0]), family[0])
        seen["sizes"].add(size)
        flipped = tuple(1 - b if i in witness else b for i, b in enumerate(x))
        assert eval_model(e, flipped) != eval_model(e, x)
        for i in witness:
            rest = set(witness) - {i}
            assert csr_tree_ensemble(e, x, [j for j in range(len(x)) if j not in rest])
    assert seen == {"models": 32, "absent": 7, "sizes": {1, 2, 3, 4}}


def test_mcr_does_not_build_the_flip_family(monkeypatch):
    """mcr answers through run_query with the family builder refusing to
    run: on the 32 scan-sized ensembles, and on one- and three-tree
    ensembles over two features."""
    cases = [*_scan_sized_ensembles(),
             (majority_ensemble((or_tree(),)), (1, 1)),
             (majority_ensemble((or_tree(), or_tree(), single_split(2, 0))), (0, 1))]
    answers = [run_query(e, "mcr", x, bound=2) for e, x in cases]
    assert sum(a["size"] is None for a in answers) == 7

    def refuse(*args):
        raise AssertionError("mcr built the flip-mask family")

    monkeypatch.setattr(trees, "_flip_masks", refuse)
    for (e, x), payload in zip(cases, answers):
        assert run_query(e, "mcr", x, bound=2) == payload


def test_msr_past_the_oracle_cap():
    """On the 32 scan-sized ensembles: msr's (size, witness) is the
    hitting-set search over the filtered full flip family, the witness is
    sufficient and no set one feature smaller inside it is, and the
    minimal-only enumeration is the filtered full family."""
    seen = {"models": 0, "empty": 0, "sizes": set(), "minimal": 0, "full": 0}
    for e, x in _scan_sized_ensembles():
        seen["models"] += 1
        n = e.feature_count
        flips = trees._flip_masks(e, x)
        minimal = trees._inclusion_minimal(flips)
        got = min_sufficient_size(e, x)
        assert got == minimum_hitting_set(map(trees._members, minimal), n)
        size, witness = got
        seen["sizes"].add(size)
        seen["empty"] += not flips
        assert csr_tree_ensemble(e, x, witness)
        for i in witness:
            assert not csr_tree_ensemble(e, x, [j for j in witness if j != i])
        assert enumerate_candidate_contrastive(e, x, filter_minimal=True) == \
            tuple(trees._member_tuples(trees._lex_order(minimal, n), n))
        seen["minimal"] += len(minimal)
        seen["full"] += len(flips)
    assert seen == {"models": 32, "empty": 7, "sizes": set(range(10)), "minimal": 353,
                    "full": 69983}


def test_msr_and_minimal_enumeration_do_not_build_the_flip_family(monkeypatch):
    """msr and minimal-only enumeration answer through run_query with the
    family builder refusing to run, on the 32 scan-sized ensembles."""
    cases = list(_scan_sized_ensembles())
    kinds = (("msr", {"bound": 3}), ("enumerate-contrastive", {"minimal_only": True}))
    answers = [run_query(e, kind, x, **options) for e, x in cases for kind, options in kinds]

    def refuse(*args):
        raise AssertionError("the flip-mask family was built")

    monkeypatch.setattr(trees, "_flip_masks", refuse)
    assert [run_query(e, kind, x, **options)
            for e, x in cases for kind, options in kinds] == answers
