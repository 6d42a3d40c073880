"""Shapley attribution: interpolation route, route choice, identities."""

import time
from collections import Counter
from fractions import Fraction
from itertools import groupby

import pytest
from fpxplain import attribution, transforms
from fpxplain.attribution import (
    ShapReport, check_efficiency, check_model_count_identity,
    shap_interpolation, shap_report, size_stratified_sums,
)
from fpxplain.errors import InputShapeError, InvalidInstanceError, UnsupportedModelError
from fpxplain.generate import (
    random_instance_bits, random_perceptron, random_product_distribution,
    random_tree, random_tree_ensemble, rng_from_seed,
)
from fpxplain.models import (
    DecisionTree, Ensemble, Majority, Perceptron, ProductDistribution,
    Weighted, constant_tree, leaf, majority_ensemble, split,
)
from fpxplain.oracle import (
    oracle_expected_value, oracle_h_table, oracle_model_count, oracle_shap,
)
from fpxplain.trees import (
    _prefixes, _raw_triples, _selections, _support, cylinder_sums,
    expected_value_tree_ensemble,
)
from test_cli import _chain_tree

F = Fraction


def test_size_stratified_sums_match_oracle():
    rng = rng_from_seed(71)
    for _ in range(40):
        n = rng.randint(1, 6)
        e = random_tree_ensemble(rng, n, rng.randint(1, 3), 6)
        x = random_instance_bits(rng, n)
        d = random_product_distribution(rng, n)
        table = size_stratified_sums(e, x, d)
        want = oracle_h_table(e, x, d)
        assert table == want
        # a list instance is checked and made a tuple before the cache
        assert size_stratified_sums(e, list(x), d) == table


def test_interpolation_matches_oracle_shap():
    rng = rng_from_seed(72)
    for _ in range(30):
        n = rng.randint(1, 6)
        e = random_tree_ensemble(rng, n, rng.randint(1, 3), 6)
        x = random_instance_bits(rng, n)
        d = random_product_distribution(rng, n)
        want = oracle_shap(e, x, d)
        got = tuple(shap_interpolation(e, x, i, d) for i in range(n))
        assert got == tuple(want)


def test_shap_interpolation_refuses_a_feature_that_is_not_an_index():
    """A bool, a non-int or an index outside 0..n-1 is an input error, as
    in a subset: True is not feature 1."""
    e = majority_ensemble((random_tree(rng_from_seed(82), 3, 5),))
    x, d = (1, 0, 1), ProductDistribution.uniform(3)
    for i in (True, False, 1.0, "1", None, -1, 3):
        with pytest.raises(InputShapeError, match=r"outside range 0\.\.2"):
            shap_interpolation(e, x, i, d)


def test_report_auto_routes_and_identities():
    rng = rng_from_seed(74)
    for trial in range(30):
        n = rng.randint(1, 6)
        if trial % 2:
            m = random_tree_ensemble(rng, n, rng.randint(1, 3), 5)
            expect_method = "interpolation"
        else:
            m = random_perceptron(rng, n, 6)
            expect_method = "pseudopoly"
        x = random_instance_bits(rng, n)
        d = ProductDistribution.uniform(n)
        rep = shap_report(m, x, d)
        assert rep.method == expect_method
        assert tuple(rep.values) == tuple(oracle_shap(m, x, d))
        assert check_efficiency(rep)
        assert check_model_count_identity(rep, oracle_model_count(m), n)


def test_report_methods_agree():
    rng = rng_from_seed(75)
    e = random_tree_ensemble(rng, 5, 2, 5)
    x = random_instance_bits(rng, 5)
    d = random_product_distribution(rng, 5)
    a = shap_report(e, x, d, method="interpolation")
    b = shap_report(e, x, d, method="oracle")
    assert a.values == b.values and a.expected == b.expected
    assert a.method == "interpolation" and b.method == "oracle"


def test_report_refuses_an_unknown_method():
    """An unknown method is refused before the instance is checked, as
    run_query refuses an unknown algorithm."""
    e = majority_ensemble((random_tree(rng_from_seed(75), 3, 5),))
    d = ProductDistribution.uniform(3)
    for method in ("enum", "fpt", ""):
        for x in ((1, 0, 1), (1, 0)):
            with pytest.raises(InvalidInstanceError,
                               match=f"unknown attribution method {method!r}"):
                shap_report(e, x, d, method=method)


def test_report_total_is_the_sum_of_the_values():
    """total reduces once over the lcm of the denominators; it must equal
    the Fraction sum on values of either sign, zeros, unequal and shared
    denominators, and no values at all."""
    rng = rng_from_seed(79)
    dens = (1, 2, 3, 4, 6, 7, 12, 2 ** 40, 3 ** 25, 10 ** 12 + 39)
    for trial in range(300):
        values = tuple(F(0) if rng.random() < 0.2
                       else F(rng.randint(-10 ** 6, 10 ** 6), rng.choice(dens))
                       for _ in range(trial % 12))
        total = ShapReport(values, 1, F(1, 2), "oracle").total
        assert type(total) is F and total == sum(values, F(0)), values
    assert ShapReport((), 0, F(0), "oracle").total == 0


def test_single_tree_is_wrapped():
    rng = rng_from_seed(76)
    t = random_tree(rng, 4, 6)
    x = random_instance_bits(rng, 4)
    d = ProductDistribution.uniform(4)
    rep = shap_report(t, x, d)
    assert tuple(rep.values) == tuple(oracle_shap(t, x, d))


def test_interpolation_requires_tree_ensemble():
    p = Perceptron((F(1),), F(0))
    with pytest.raises(UnsupportedModelError):
        shap_report(p, (1,), ProductDistribution.uniform(1), method="interpolation")


@pytest.mark.parametrize("warm", (False, True))
def test_value_keyed_caches_do_not_answer_an_invalid_tree(warm):
    """A leaf label True equals 1, so a tree holding it would equal the
    valid one as a cache key; it raises at construction, cold or after
    its twin has warmed the caches."""
    good = majority_ensemble((DecisionTree(2, (leaf(0), leaf(1), split(0, 0, 1)), 2),))
    x, d = (1, 0), ProductDistribution.uniform(2)
    attribution._full_pass.cache_clear()
    size_stratified_sums.cache_clear()
    if warm:
        assert shap_interpolation(good, x, 0, d) == F(1, 2)
        size_stratified_sums(good, x, d)
    with pytest.raises(InvalidInstanceError) as err:
        DecisionTree(2, (leaf(0), leaf(True), split(0, 0, 1)), 2)
    assert str(err.value) == "invalid model: leaf 1 label True not 0/1"


def test_degenerate_probabilities():
    # deterministic features: interpolation grid must still be exact
    e = majority_ensemble(
        (DecisionTree(2, (leaf(0), leaf(1), split(0, 0, 1)), 2),))
    x = (1, 0)
    d = ProductDistribution((F(1), F(0)))
    assert tuple(shap_interpolation(e, x, i, d) for i in range(2)) == \
        tuple(oracle_shap(e, x, d))
    d2 = ProductDistribution((F(0), F(1)))
    assert tuple(shap_interpolation(e, x, i, d2) for i in range(2)) == \
        tuple(oracle_shap(e, x, d2))

def _battery_case(rng, trial):
    n = rng.randint(1, 7)
    k = rng.randint(1, 4)
    e = random_tree_ensemble(rng, n, k, 6)
    if trial % 3 == 1:
        e = Ensemble(e.members, Majority())
    elif trial % 3 == 2:
        # weighted votes with at least one negative weight
        weights = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(k)]
        weights[rng.randrange(k)] = F(-rng.randint(1, 3))
        e = Ensemble(e.members, Weighted(tuple(weights), F(rng.randint(-3, 3), 2)))
    x = random_instance_bits(rng, n)
    d = random_product_distribution(rng, n)
    if trial % 2:
        # force some deterministic features: probabilities exactly 0 and 1
        d = ProductDistribution(tuple(rng.choice((F(0), F(1), p)) for p in d.probs))
    return e, x, d


def test_cylinder_route_oracle_battery():
    rng = rng_from_seed(77)
    for trial in range(300):
        e, x, d = _battery_case(rng, trial)
        rep = shap_report(e, x, d)
        assert rep.method == "interpolation"
        assert tuple(rep.values) == tuple(oracle_shap(e, x, d)), trial
        assert rep.expected == oracle_expected_value(e, d), trial
        assert size_stratified_sums(e, x, d) == oracle_h_table(e, x, d), trial


def test_tree_shap_does_not_condition_the_model(monkeypatch):
    # the ROADMAP hot spot: n = 30, k = 3, m = 16
    rng = rng_from_seed(79)
    e = random_tree_ensemble(rng, 30, 3, 16)
    x = random_instance_bits(rng, 30)
    d = random_product_distribution(rng, 30)
    calls = []
    original = transforms.condition_model

    def counting(m, x, s):
        calls.append(s)
        return original(m, x, s)

    # a route that conditioned the model would call it from transforms
    monkeypatch.setattr(transforms, "condition_model", counting)
    rep = shap_report(e, x, d)
    assert calls == []
    assert rep.method == "interpolation"
    assert check_efficiency(rep)
    assert rep.expected == expected_value_tree_ensemble(e, d)


def _bucket_keys(e, x, d):
    """The (feature, value) keys of the non-empty buckets of the cylinder pass."""
    prob = [(1 - p, p) for p in d.probs]
    keys = set()
    for mask, vals in _selections(_raw_triples(e), e.voting, 1):
        fixed = [(i, (vals >> i) & 1) for i in range(e.feature_count) if (mask >> i) & 1]
        # a cylinder adds a zero polynomial when one of its factors is zero
        if not any(prob[i][v] == 0 and v != x[i] for i, v in fixed):
            keys.update(fixed)
    return keys


def _bucket_branches(e, x, d):
    """Count the non-empty (feature, value) buckets of the cylinder pass by
    the shape of their divisor a + b t: a = 0, b = 0, or neither zero."""
    prob = [(1 - p, p) for p in d.probs]
    keys = _bucket_keys(e, x, d)
    return Counter("a=0" if prob[i][v] == 0 else "b=0" if v != x[i] else "both"
                   for i, v in keys)


def test_bucket_division_branch_battery():
    rng = rng_from_seed(80)
    branches = Counter()
    for trial in range(200):
        e, x, d = _battery_case(rng, trial)
        want = (oracle_h_table(e, x, d), oracle_shap(e, x, d))
        assert cylinder_sums(e, x, d) == want, trial
        branches += _bucket_branches(e, x, d)
    assert min(branches[key] for key in ("a=0", "b=0", "both")) >= 30, branches


def _support_case(rng, trial):
    """A _battery_case ensemble spread over n >= its feature count features,
    each sent to a random position, so that its members test a random
    subset of them; on every sixth trial every member is a single leaf."""
    e, _, _ = _battery_case(rng, trial)
    m = e.feature_count
    n = m + rng.randint(0, 4)
    where = rng.sample(range(n), m)
    if trial % 6:
        members = tuple(
            DecisionTree(n, tuple(split(where[nd[1]], nd[2], nd[3]) if nd[0] == "split" else nd
                                  for nd in t.nodes), t.root)
            for t in e.members)
    else:
        members = tuple(constant_tree(n, rng.randint(0, 1)) for _ in e.members)
    x = random_instance_bits(rng, n)
    d = random_product_distribution(rng, n)
    if trial % 2:
        d = ProductDistribution(tuple(rng.choice((F(0), F(1), p)) for p in d.probs))
    return Ensemble(members, e.voting), x, d


def _pass_shapes(e, x, d):
    """The shapes of the cylinder pass that e, x, d reach: a support
    smaller than n, an empty support, a feature with both buckets
    non-empty (its read is signed), and a run of several prefixes that
    agree outside the last tree's features."""
    lists = _raw_triples(e)
    support = 0
    for paths in lists:
        support |= _support(paths)
    keys = _bucket_keys(e, x, d)
    runs = groupby(_prefixes(lists, e.voting, 1), lambda p: p[:2])
    return {
        "support < n": support.bit_count() < e.feature_count,
        "empty support": support == 0,
        "signed read": any((i, 1 - v) in keys for i, v in keys),
        "run of prefixes": any(len(list(run)) > 1 for _, run in runs),
    }, support


def test_support_and_run_battery():
    rng = rng_from_seed(81)
    shapes = Counter()
    for trial in range(240):
        e, x, d = _support_case(rng, trial)
        h, phi = cylinder_sums(e, x, d)
        assert h == oracle_h_table(e, x, d), trial
        assert phi == oracle_shap(e, x, d), trial
        assert h[0] == oracle_expected_value(e, d), trial
        seen, support = _pass_shapes(e, x, d)
        assert all(phi[i] == 0 for i in range(e.feature_count) if not (support >> i) & 1)
        shapes.update(key for key, hit in seen.items() if hit)
    assert len(shapes) == 4 and min(shapes.values()) >= 30, shapes


def test_deep_chain_tree_shap():
    depth = 200
    tree, d = _chain_tree(depth), ProductDistribution.uniform(depth)
    start = time.perf_counter()
    rep = shap_report(tree, (1,) * depth, d)
    assert time.perf_counter() - start < 0.7
    assert check_efficiency(rep)
    assert rep.expected == expected_value_tree_ensemble(Ensemble((tree,), Majority()), d)
