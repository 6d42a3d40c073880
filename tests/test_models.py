"""Core model semantics: evaluation, paths, shape checks, validation."""

import signal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxplain import models
from fpxplain.errors import InputShapeError, InvalidInstanceError
from fpxplain.generate import random_instance_bits, random_tree, rng_from_seed
from fpxplain.models import (
    ABSENT, DecisionTree, Ensemble, Majority, Perceptron, ProductDistribution,
    Weighted, bits_to_int, check_instance, check_subset, constant_tree,
    eval_ensemble, eval_model, eval_perceptron, eval_tree, int_to_bits, integer_votes, leaf,
    majority_ensemble, majority_threshold, packed_dot, split, subset_mask,
    votes_accept,
)


def xor_tree():
    # x0 xor x1
    nodes = (leaf(0), leaf(1), split(1, 0, 1), leaf(1), leaf(0),
             split(1, 3, 4), split(0, 2, 5))
    return DecisionTree(2, nodes, root=6)


def test_eval_tree_xor():
    t = xor_tree()
    assert [eval_tree(t, x) for x in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 1, 1, 0]


def test_constant_tree():
    t = constant_tree(3, 1)
    assert all(eval_tree(t, int_to_bits(z, 3)) == 1 for z in range(8))
    assert t.leaf_count == 1


def test_paths_cover_inputs_exactly_once():
    rng = rng_from_seed(10)
    for _ in range(50):
        n = rng.randint(1, 6)
        t = random_tree(rng, n, 8)
        for z in range(1 << n):
            matches = [(mask, vals, lab) for mask, vals, lab in t.paths
                       if (z ^ vals) & mask == 0]
            assert len(matches) == 1
            assert matches[0][2] == eval_tree(t, int_to_bits(z, n))


def test_paths_are_dfs_zero_branch_first():
    t = xor_tree()
    # 0-branch of the root comes before the 1-branch
    assert t.paths == ((0b11, 0b00, 0), (0b11, 0b10, 1),
                       (0b11, 0b01, 1), (0b11, 0b11, 0))


def test_perceptron_eval_and_ties():
    p = Perceptron((Fraction(1), Fraction(1)), Fraction(-2))
    # 1 + 1 - 2 == 0 counts as firing
    assert eval_perceptron(p, (1, 1)) == 1
    assert eval_perceptron(p, (1, 0)) == 0
    assert eval_perceptron(p, (0, 0)) == 0


def test_perceptron_rejects_floats():
    with pytest.raises(InvalidInstanceError, match="floats are not exact"):
        Perceptron((0.5, 1), 0)


def test_perceptron_scaled_integer_view():
    p = Perceptron((Fraction(1, 2), Fraction(-3, 4)), Fraction(1, 3))
    ws, b, d = p.scaled
    assert d == 12 and ws == (6, -9) and b == 4


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.lists(st.fractions(max_denominator=10**30) | st.sampled_from(
           [Fraction(0), Fraction(-1, 3**40), Fraction(7, 2**61)]), min_size=1, max_size=6),
       st.fractions(max_denominator=10**30))
def test_integer_views_equal_the_fraction_formula(weights, last):
    """Both integer views read w * denom as numerator * (denom // denominator)."""
    p = Perceptron(weights, last)
    ws, b, d = p.scaled
    assert d == lcm(p.bias.denominator, *(w.denominator for w in p.weights))
    assert ws == tuple(int(w * d) for w in p.weights) and b == int(p.bias * d)
    voting = Weighted(weights, last)
    assert integer_votes(voting, len(weights)) == (ws, b)


def test_majority_threshold_values():
    assert [majority_threshold(k) for k in (1, 2, 3, 4, 5)] == [1, 1, 2, 2, 3]


def test_votes_accept_weighted():
    v = Weighted((Fraction(1), Fraction(-2)), Fraction(1))
    assert votes_accept(v, (1, 0)) == 1
    assert votes_accept(v, (1, 1)) == 0
    assert votes_accept(v, (0, 0)) == 0


def test_majority_ensemble_or_of_two():
    t0 = DecisionTree(2, (leaf(0), leaf(1), split(0, 0, 1)), 2)
    t1 = DecisionTree(2, (leaf(0), leaf(1), split(1, 0, 1)), 2)
    e = majority_ensemble((t0, t1))
    # majority of 2 needs only ceil(2/2) = 1 vote: this is an OR
    assert [eval_ensemble(e, x) for x in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 1, 1, 1]


def test_absent_is_falsy_singleton():
    assert not ABSENT
    assert repr(ABSENT) == "Absent"


def test_check_instance_errors():
    with pytest.raises(InputShapeError):
        check_instance((0, 1), 3)
    with pytest.raises(InputShapeError):
        check_instance((0, 2, 1), 3)
    assert check_instance([1, 0], 2) == (1, 0)


def test_check_subset_sorts_and_validates():
    assert check_subset([3, 1, 1], 5) == (1, 3)
    with pytest.raises(InputShapeError):
        check_subset([5], 5)
    with pytest.raises(InputShapeError):
        check_subset([-1], 5)
    for s in (5, None, 1.5):
        with pytest.raises(InputShapeError, match="subset must be an iterable"):
            check_subset(s, 3)


def test_bit_helpers_roundtrip():
    for z in range(16):
        assert bits_to_int(int_to_bits(z, 4)) == z
    assert subset_mask((0, 2)) == 0b101


def test_packed_dot_reads_every_cell_once():
    rng = rng_from_seed(5)
    for trial in range(200):
        size, count = rng.randint(1, 9), rng.randint(0, 12)
        top = (1 << 8 * size) - 1
        cells = [rng.choice((0, top, rng.randint(0, top))) for _ in range(count)]
        weights = [rng.randint(-10**6, 10**6) for _ in range(count)]
        packed = sum(c << 8 * size * k for k, c in enumerate(cells))
        assert packed_dot(packed, size, weights) == sum(map(int.__mul__, weights, cells)), trial
    with pytest.raises(OverflowError):
        packed_dot(1 << 16, 1, [1, 1])  # a cell past the last weight


def test_product_distribution_validation():
    with pytest.raises(InvalidInstanceError):
        ProductDistribution((Fraction(3, 2),))
    d = ProductDistribution.uniform(3)
    assert d.is_uniform() and d.bit_prob(0, 0) == Fraction(1, 2)
    d2 = ProductDistribution((Fraction(1, 4),))
    assert d2.bit_prob(0, 1) == Fraction(1, 4)
    assert d2.bit_prob(0, 0) == Fraction(3, 4)
    # the ends of [0, 1] are inside; the message names the first bad index
    assert ProductDistribution((0, 1, "1/1", Fraction(2, 2))).probs == (0, 1, 1, 1)
    for probs, message in (((Fraction(1, 2), Fraction(-1, 3)), "probs[1] = -1/3 outside [0, 1]"),
                           ((Fraction(1, 1000), Fraction(1001, 1000)),
                            "probs[1] = 1001/1000 outside [0, 1]"),
                           ((-1,), "probs[0] = -1 outside [0, 1]")):
        with pytest.raises(InvalidInstanceError) as err:
            ProductDistribution(probs)
        assert str(err.value) == message


def _problems(build) -> tuple[str, ...]:
    """The problems build() raises, () when it builds."""
    try:
        build()
    except InvalidInstanceError as exc:
        assert str(exc) == "invalid model: " + "; ".join(exc.problems)
        return exc.problems
    return ()


def test_validate_model_diagnostics():
    """The constructors list the problems validate_model used to."""
    assert _problems(xor_tree) == ()
    # feature read twice on one path
    bad = (leaf(0), leaf(1), split(0, 0, 1), split(0, 2, 1))
    assert any("twice" in p for p in _problems(lambda: DecisionTree(2, bad, 3)))
    # child index outside the arena
    assert any("outside" in p for p in _problems(lambda: DecisionTree(1, (split(0, 0, 5),), 0)))
    # label must be 0/1
    assert any("label" in p for p in _problems(lambda: DecisionTree(1, (leaf(7),), 0)))
    # member feature counts must agree
    problems = _problems(lambda: Ensemble((constant_tree(2, 1), constant_tree(3, 1)), Majority()))
    assert any("feature count" in p for p in problems)
    # weighted voting weight count must match member count
    problems = _problems(lambda: Ensemble(
        (constant_tree(2, 1),), Weighted((Fraction(1), Fraction(1)), Fraction(1))))
    assert any("weights" in p for p in problems)


def _within_a_second(fn):
    """fn(), failed with an AssertionError if it has not returned in 1 s."""
    def hang(signum, frame):
        raise AssertionError("did not return within a second")
    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_paths_raise_on_an_invalid_arena():
    """Building a tree on an invalid arena raises at once, naming its
    problem; no walk loops, indexes past the arena or yields a path that
    fixes a feature twice."""
    cases = [
        ((1, (leaf(7),), 0), "leaf 0 label 7 not 0/1"),
        ((1, (split(0, 1, 1), leaf(1)), 0), "node 1 reachable twice (arena must be a tree)"),
        ((1, (split(0, 1, 0), leaf(0)), 0),  # a cycle back to the root
         "node 0 reachable twice (arena must be a tree)"),
        ((1, (split(0, 1, 5), leaf(0)), 0), "child index 5 outside arena"),
        ((2, (split(0, 1, 2), split(0, 3, 4), leaf(1), leaf(0), leaf(1)), 0),
         "feature 0 tested twice on a path through node 1"),
    ]
    for fields, problem in cases:
        with pytest.raises(InvalidInstanceError) as err:
            _within_a_second(lambda: DecisionTree(*fields))
        assert err.value.problems == (problem,)
        assert str(err.value) == "invalid model: " + problem


def _assert_one_problem(nodes, problem, n=2):
    """Building the tree raises naming exactly `problem`."""
    with pytest.raises(InvalidInstanceError) as err:
        DecisionTree(n, nodes)
    assert err.value.problems == (problem,)
    assert str(err.value) == "invalid model: " + problem


def test_a_split_on_a_float_feature_is_a_listed_problem():
    _assert_one_problem((split(1.5, 1, 2), leaf(0), leaf(1)),
                        "node 0 tests feature 1.5, not an int")


def test_a_split_without_four_entries_is_a_listed_problem():
    _assert_one_problem((("split", 0, 1), leaf(0)),
                        "node 0 ('split', 0, 1) has 3 entries, not 4")


def test_a_float_child_index_is_a_listed_problem():
    _assert_one_problem((split(0, 1.0, 2), leaf(0), leaf(1)),
                        "child index 1.0 is not an int")


def test_a_bool_leaf_label_is_a_listed_problem():
    _assert_one_problem((split(0, 1, 2), leaf(True), leaf(0)),
                        "leaf 1 label True not 0/1", n=1)


def test_a_node_that_is_not_a_tagged_tuple_is_a_listed_problem():
    for node in ((), 5):
        _assert_one_problem((split(0, 1, 2), node, leaf(0)),
                            f"node 1 {node!r} is not a tagged tuple", n=1)


def _reference_paths(t):
    """Root-to-leaf (mask, vals, label) triples by recursion, 0-branch first."""
    def walk(idx, mask, vals):
        node = t.nodes[idx]
        if node[0] == "leaf":
            return [(mask, vals, node[1])]
        bit = 1 << node[1]
        return walk(node[2], mask | bit, vals) + walk(node[3], mask | bit, vals | bit)
    return tuple(walk(t.root, 0, 0))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**30), st.integers(1, 6))
def test_validated_tree_holds_the_paths_of_an_unvalidated_copy(seed, n):
    t = random_tree(rng_from_seed(seed), n, 8)
    copy = DecisionTree(t.feature_count, t.nodes, t.root)
    assert t.paths == copy.paths == _reference_paths(t)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**30), st.integers(1, 6))
def test_random_tree_is_valid_and_read_once(seed, n):
    rng = rng_from_seed(seed)
    t = random_tree(rng, n, 8)
    assert _problems(lambda: DecisionTree(t.feature_count, t.nodes, t.root)) == ()
    for mask, _, _ in t.paths:
        assert mask.bit_count() <= n


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**30))
def test_eval_model_dispatch_consistency(seed):
    rng = rng_from_seed(seed)
    n = rng.randint(1, 5)
    t = random_tree(rng, n, 6)
    e = majority_ensemble((t,))
    x = random_instance_bits(rng, n)
    assert eval_model(t, x) == eval_model(e, x)


def test_model_classes_are_records():
    """Equal fields give equal objects with equal hashes; a record equals
    no record of another class and no tuple; keyword construction and
    defaults work; repr names the fields."""
    t = DecisionTree(2, (split(0, 1, 2), leaf(0), leaf(1)))
    same = {
        DecisionTree(feature_count=2, nodes=(split(0, 1, 2), leaf(0), leaf(1)), root=0): t,
        Perceptron(weights=[1, "1/2"], bias=-1): Perceptron((Fraction(1), Fraction(1, 2)), "-1"),
        Weighted(weights=(1, 2), threshold="3/2"): Weighted([Fraction(1), 2], Fraction(3, 2)),
        Majority(): Majority(),
        Ensemble(members=(t,), voting=Majority()): majority_ensemble([t]),
        ProductDistribution(probs=("1/2", "1/2")): ProductDistribution.uniform(2),
    }
    for a, b in same.items():
        assert a == b and hash(a) == hash(b) and not a != b
    assert t.root == 0
    assert Majority() != Weighted((1,), 1)
    assert Perceptron((1,), 1) != Perceptron((1,), 2)
    assert Perceptron((1,), 1) != ((Fraction(1),), Fraction(1))
    assert ProductDistribution.uniform(1) != (Fraction(1, 2),)
    assert Majority() != ()
    assert repr(Perceptron((1, 2), 3)) == \
        "Perceptron(weights=(Fraction(1, 1), Fraction(2, 1)), bias=Fraction(3, 1))"
    assert repr(Majority()) == "Majority()"
    assert repr(DecisionTree(1, (leaf(1),))) == \
        "DecisionTree(feature_count=1, nodes=(('leaf', 1),), root=0)"


def test_record_keys_are_field_tuples_per_class():
    """Equality and hashing read one tuple of the field values, in field
    order, for classes with no, one and several fields; records of two
    classes with the same fields and values are never equal."""
    class Vote(models.Record):
        pass

    class Probs(models.Record):
        probs: tuple

        def __init__(self, probs):
            self._set(probs=probs)

    half = (Fraction(1, 2),) * 2
    cases = [(Majority(), (), Vote()),
             (ProductDistribution(half), (half,), Probs(half)),
             (Weighted((1, -2), 1), ((Fraction(1), Fraction(-2)), Fraction(1)), None)]
    for record, key, twin in cases:
        assert record._values(record) == key
        copy = type(record).__new__(type(record))
        copy._set(**dict(zip(record._fields, key)))
        assert copy == record and hash(copy) == hash(record) == hash(key)
        assert record != key
        if twin is not None:
            assert twin._values(twin) == key and hash(twin) == hash(key)
            assert twin != record and record != twin
            assert len({twin, record}) == 2
    assert ProductDistribution(half) != ProductDistribution((Fraction(1, 2), Fraction(1, 3)))
    assert Weighted((1, -2), 1) != Weighted((1, -2), 2)


def test_record_hash_is_computed_once(monkeypatch):
    """The first hash is the field tuple's and is kept; equal records hash
    alike; later calls do not read the fields again."""
    t = DecisionTree(2, (split(0, 1, 2), leaf(0), leaf(1)))
    probs = tuple(Fraction(j, 33) for j in range(33))
    for make in (lambda: ProductDistribution(probs), lambda: Perceptron((1, "1/2"), -1),
                 lambda: majority_ensemble([t]), Majority):
        record, twin = make(), make()
        assert hash(record) == hash(type(record)._values(record))
        assert record.__dict__["_hash"] == hash(record) == hash(twin)
        assert record == twin
        with monkeypatch.context() as m:
            m.setattr(type(record), "_values", staticmethod(lambda obj: 1 / 0))
            assert hash(record) == hash(twin)
        assert "_hash" not in repr(record)


def test_model_records_refuse_assignment_and_deletion():
    for obj, name in ((Perceptron((1,), 0), "bias"), (Majority(), "size"),
                      (DecisionTree(1, (leaf(1),)), "root"),
                      (ProductDistribution.uniform(1), "probs")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    p = Perceptron((1,), 0)
    with pytest.raises(AttributeError):
        del p.weights
    assert p.weights == (1,)


def test_cached_model_views_are_computed_once(monkeypatch):
    p = Perceptron(("1/2", "1/3"), "-1/6")
    assert p.scaled is p.scaled == ((3, 2), -1, 6)
    walks = []

    def walk(*fields):
        walks.append(fields)
        return real(*fields)
    real = models._walk_arena
    monkeypatch.setattr(models, "_walk_arena", walk)
    nodes = (split(0, 1, 2), leaf(0), leaf(1))
    t = DecisionTree(1, nodes)
    assert t.paths == ((1, 0, 0), (1, 1, 1))
    assert majority_ensemble((t, t)).members[0].paths == ((1, 0, 0), (1, 1, 1))
    assert walks == [(1, nodes, 0)]


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.lists(st.tuples(st.fractions(max_denominator=10**12), st.integers(0, 1)),
                min_size=1, max_size=6),
       st.fractions(max_denominator=10**12))
def test_weighted_votes_accept_reads_the_cached_integer_view(pairs, threshold):
    """votes_accept on Weighted equals the Fraction sum of the accepting
    members' weights against the threshold, read from the one cached
    integer view that integer_votes also returns."""
    voting = Weighted([w for w, _ in pairs], threshold)
    votes = [v for _, v in pairs]
    total = sum((w for w, v in pairs if v), Fraction(0))
    assert votes_accept(voting, votes) == (1 if total >= voting.threshold else 0)
    assert integer_votes(voting, len(pairs)) is voting.scaled is voting.scaled
