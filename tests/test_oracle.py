"""Brute-force oracle: frozen small-case values and structural properties.

The expected values here were derived by hand on tiny cases; the
oracle is the reference everything else is checked against, so these
stay independent of the fast algorithms.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxplain import oracle
from fpxplain.errors import InvalidInstanceError, ResourceCapError
from fpxplain.generate import (
    random_instance_bits, random_perceptron, random_product_distribution,
    random_tree_ensemble, rng_from_seed,
)
from fpxplain.models import (
    ABSENT, DecisionTree, Ensemble, Majority, Perceptron, ProductDistribution,
    constant_tree, eval_model, int_to_bits, leaf, majority_ensemble, split,
)
from fpxplain.oracle import (
    oracle_completion_count, oracle_expected_value, oracle_h_table,
    oracle_is_contrastive, oracle_is_sufficient, oracle_min_contrastive,
    oracle_min_sufficient, oracle_model_count, oracle_shap,
)
from fpxplain.runner import run_query
from fpxplain.transforms import indicator_tree, negate_model

HALF = Fraction(1, 2)


def conjunction2():
    # x0 and x1
    return indicator_tree((1, 1), (0, 1), 2)


def test_shap_conjunction_frozen():
    t = conjunction2()
    phi = oracle_shap(t, (1, 1), ProductDistribution.uniform(2))
    assert phi == (Fraction(3, 8), Fraction(3, 8))


def test_shap_single_relevant_feature_frozen():
    # f = x0 over two features: all credit on feature 0
    t = DecisionTree(2, (leaf(0), leaf(1), split(0, 0, 1)), 2)
    phi = oracle_shap(t, (1, 0), ProductDistribution.uniform(2))
    assert phi == (HALF, Fraction(0))


def test_expected_value_conjunction():
    t = conjunction2()
    assert oracle_expected_value(t, ProductDistribution.uniform(2)) == Fraction(1, 4)
    skew = ProductDistribution((Fraction(1, 3), Fraction(3, 4)))
    assert oracle_expected_value(t, skew) == Fraction(1, 4)


def test_model_count():
    assert oracle_model_count(conjunction2()) == 1
    assert oracle_model_count(constant_tree(3, 1)) == 8
    assert oracle_model_count(constant_tree(3, 0)) == 0


def test_sufficiency_basics():
    t = conjunction2()
    assert oracle_is_sufficient(t, (1, 1), (0, 1))
    assert not oracle_is_sufficient(t, (1, 1), (0,))
    assert oracle_is_sufficient(t, (0, 1), (0,))  # x0=0 forces reject
    assert oracle_is_sufficient(t, (0, 0), (0,))


def test_min_sufficient_lex_first_witness():
    t = conjunction2()
    assert oracle_min_sufficient(t, (1, 1)) == (2, (0, 1))
    assert oracle_min_sufficient(t, (0, 0)) == (1, (0,))
    assert oracle_min_sufficient(constant_tree(2, 1), (0, 0)) == (0, ())


def test_min_contrastive_and_absent():
    t = conjunction2()
    assert oracle_min_contrastive(t, (1, 1)) == (1, (0,))
    assert oracle_min_contrastive(t, (0, 0)) == (2, (0, 1))
    assert oracle_min_contrastive(constant_tree(2, 1), (1, 0)) is ABSENT


def test_is_contrastive():
    t = conjunction2()
    assert oracle_is_contrastive(t, (1, 1), (0,))
    assert not oracle_is_contrastive(t, (0, 0), (0,))
    assert oracle_is_contrastive(t, (0, 0), (0, 1))


def test_completion_count_conjunction():
    t = conjunction2()
    assert oracle_completion_count(t, (1, 1), ()) == Fraction(1, 4)
    assert oracle_completion_count(t, (1, 1), (0,)) == HALF
    assert oracle_completion_count(t, (1, 1), (0, 1)) == 1
    # rejected instance: completions preserving the 0 prediction
    assert oracle_completion_count(t, (0, 0), ()) == Fraction(3, 4)


def test_h_table_endpoints():
    rng = rng_from_seed(41)
    for _ in range(25):
        n = rng.randint(1, 6)
        p = random_perceptron(rng, n, 6)
        x = random_instance_bits(rng, n)
        d = random_product_distribution(rng, n)
        h = oracle_h_table(p, x, d)
        assert len(h) == n + 1
        assert h[0] == oracle_expected_value(p, d)
        assert h[n] == eval_model(p, x)


def test_oracle_respects_cap(monkeypatch):
    monkeypatch.setenv("FPXPLAIN_ORACLE_CAP", "4")
    p = Perceptron((Fraction(1),) * 5, Fraction(0))
    with pytest.raises(ResourceCapError, match=r"\(cap 4\); raise FPXPLAIN_ORACLE_CAP "):
        oracle_is_sufficient(p, (1,) * 5, ())


def test_shap_cap(monkeypatch):
    monkeypatch.setenv("FPXPLAIN_SHAP_ORACLE_CAP", "3")
    p = Perceptron((Fraction(1),) * 4, Fraction(0))
    with pytest.raises(ResourceCapError, match=r"\(cap 3\); raise FPXPLAIN_SHAP_ORACLE_CAP "):
        oracle_shap(p, (1,) * 4, ProductDistribution.uniform(4))


@pytest.mark.parametrize("warm", (False, True))
def test_oracle_refuses_an_invalid_model_its_caches_hold(warm):
    """A leaf label True equals 1, so the invalid tree and ensembles equal
    their valid twins as keys of _truth_table and _v_table; every oracle_*
    function and the oracle route must raise, cold or after the twin. The
    mixed ensemble reaches the oracle as auto's fallback."""
    def models(label):
        t = DecisionTree(2, (leaf(0), leaf(label), split(0, 0, 1)), 2)
        return t, majority_ensemble((t,)), Ensemble((t, Perceptron((1, 1), -1), t), Majority())
    x, s, d = (1, 0), (0,), ProductDistribution.uniform(2)
    calls = (lambda m: oracle_is_sufficient(m, x, s), lambda m: oracle_is_contrastive(m, x, s),
             lambda m: oracle_min_sufficient(m, x), lambda m: oracle_min_contrastive(m, x),
             lambda m: oracle_completion_count(m, x, s), lambda m: oracle_expected_value(m, d),
             oracle_model_count, lambda m: oracle_h_table(m, x, d),
             lambda m: oracle_shap(m, x, d))
    queries = [("csr", {"subset": s}), ("cc", {"subset": s}), ("mcr", {"bound": 1}),
               ("msr", {"bound": 1}), ("expect", {}), ("shap", {})]
    oracle._truth_table.cache_clear()
    oracle._v_table.cache_clear()
    if warm:
        for m in models(1):
            for call in calls:
                call(m)
    for j, m in enumerate(models(True)):
        assert m == models(1)[j]
        for call in calls:
            with pytest.raises(InvalidInstanceError, match="leaf 1 label True not 0/1"):
                call(m)
        for kind, args in queries:
            for algorithm in ("oracle", "auto") if j == 2 else ("oracle",):
                with pytest.raises(InvalidInstanceError, match="leaf 1 label True not 0/1"):
                    run_query(m, kind, x, algorithm=algorithm, **args)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**30))
def test_sufficiency_is_monotone(seed):
    rng = rng_from_seed(seed)
    n = rng.randint(1, 6)
    m = random_tree_ensemble(rng, n, rng.randint(1, 3), 5) if seed % 2 \
        else random_perceptron(rng, n, 6)
    x = random_instance_bits(rng, n)
    s = tuple(i for i in range(n) if rng.random() < 0.4)
    if oracle_is_sufficient(m, x, s):
        extra = rng.randrange(n)
        assert oracle_is_sufficient(m, x, tuple(sorted(set(s) | {extra})))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**30))
def test_negation_dualities(seed):
    rng = rng_from_seed(seed)
    n = rng.randint(1, 6)
    m = random_tree_ensemble(rng, n, rng.randint(1, 3), 5) if seed % 2 \
        else random_perceptron(rng, n, 6)
    neg = negate_model(m)
    x = random_instance_bits(rng, n)
    s = tuple(i for i in range(n) if rng.random() < 0.4)
    # sufficiency and completion fraction only depend on the level set of x
    assert oracle_is_sufficient(m, x, s) == oracle_is_sufficient(neg, x, s)
    assert oracle_completion_count(m, x, s) == oracle_completion_count(neg, x, s)
    assert oracle_model_count(neg) == (1 << n) - oracle_model_count(m)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**30))
def test_shap_efficiency_property(seed):
    rng = rng_from_seed(seed)
    n = rng.randint(1, 5)
    m = random_tree_ensemble(rng, n, rng.randint(1, 3), 5) if seed % 2 \
        else random_perceptron(rng, n, 6)
    x = random_instance_bits(rng, n)
    d = random_product_distribution(rng, n)
    phi = oracle_shap(m, x, d)
    assert sum(phi, Fraction(0)) == eval_model(m, x) - oracle_expected_value(m, d)


def test_min_sufficient_witness_is_lexicographically_first():
    # two disjoint minimum sufficient reasons: witness must be the lex-first
    rng = rng_from_seed(43)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = random_tree_ensemble(rng, n, rng.randint(1, 3), 5)
        x = random_instance_bits(rng, n)
        size, wit = oracle_min_sufficient(m, x)
        assert len(wit) == size
        assert oracle_is_sufficient(m, x, wit)
        # nothing of the same size earlier in lex order is sufficient
        from itertools import combinations
        for cand in combinations(range(n), size):
            if cand == wit:
                break
            assert not oracle_is_sufficient(m, x, cand)
