"""Every read-once tree over two features against the oracle: each tree
as a one-member ensemble on every query kind, then pairs of trees under
majority and weighted votes. Each test counts its checks, so that its
scope cannot shrink unnoticed."""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

from fpxplain.attribution import shap_report, size_stratified_sums
from fpxplain.models import (
    DecisionTree, Ensemble, ProductDistribution, Weighted, eval_tree, leaf,
    majority_ensemble, split,
)
from fpxplain.oracle import (
    oracle_completion_count, oracle_expected_value, oracle_h_table,
    oracle_is_contrastive, oracle_is_sufficient, oracle_min_contrastive,
    oracle_min_sufficient, oracle_shap,
)
from fpxplain.trees import (
    cc_tree_ensemble, csr_tree_ensemble, enumerate_candidate_contrastive,
    expected_value_tree_ensemble, min_contrastive_size, min_sufficient_size,
)

F = Fraction
N = 2
XS = tuple(product((0, 1), repeat=N))
SUBSETS = ((), (0,), (1,), (0, 1))  # by size, then lexicographically
DISTS = (ProductDistribution.uniform(N), ProductDistribution((F(1, 3), F(3, 4))))


def _shapes(free):
    """Every read-once tree over the features in free: a leaf label, or
    (feature, 0-branch, 1-branch)."""
    yield from (0, 1)
    for i in sorted(free):
        below = list(_shapes(free - {i}))
        for child0, child1 in product(below, repeat=2):
            yield i, child0, child1


def _tree(shape) -> DecisionTree:
    nodes = []

    def place(sh) -> int:
        at = len(nodes)
        if isinstance(sh, int):
            nodes.append(leaf(sh))
        else:
            nodes.append(None)
            i, child0, child1 = sh
            nodes[at] = split(i, place(child0), place(child1))
        return at

    place(shape)
    return DecisionTree(N, tuple(nodes), 0)


TREES = tuple(_tree(sh) for sh in _shapes(frozenset(range(N))))


def _minimal_contrastive(e, x) -> tuple:
    minimal = []
    for s in SUBSETS:
        if oracle_is_contrastive(e, x, s) and not any(set(m) <= set(s) for m in minimal):
            minimal.append(s)
    return tuple(minimal)


def _check_subsets(e, x, done: Counter):
    """csr and cc on every subset at x."""
    for s in SUBSETS:
        assert csr_tree_ensemble(e, x, s) == oracle_is_sufficient(e, x, s), (e, x, s)
        assert cc_tree_ensemble(e, x, s) == oracle_completion_count(e, x, s), (e, x, s)
    done["csr"] += len(SUBSETS)
    done["cc"] += len(SUBSETS)


def _check_decisions(e, x, done: Counter):
    """csr and cc on every subset, then mcr, msr and enumeration, at x."""
    _check_subsets(e, x, done)
    assert min_contrastive_size(e, x) == oracle_min_contrastive(e, x), (e, x)
    assert min_sufficient_size(e, x) == oracle_min_sufficient(e, x), (e, x)
    done["mcr"] += 1
    done["msr"] += 1
    minimal = _minimal_contrastive(e, x)
    candidates = enumerate_candidate_contrastive(e, x)
    assert all(oracle_is_contrastive(e, x, c) for c in candidates), (e, x)
    assert set(minimal) <= set(candidates), (e, x)
    assert enumerate_candidate_contrastive(e, x, filter_minimal=True) == minimal, (e, x)
    done["enumerate"] += 1


def _check_attributions(e, x, d, done: Counter):
    rep = shap_report(e, x, d)
    assert rep.method == "interpolation"
    assert tuple(rep.values) == tuple(oracle_shap(e, x, d)), (e, x, d)
    assert rep.expected == oracle_expected_value(e, d), (e, x, d)
    done["shap"] += 1
    assert tuple(size_stratified_sums(e, x, d).values) == tuple(oracle_h_table(e, x, d)), \
        (e, x, d)
    done["sums"] += 1


def test_every_read_once_tree_over_two_features():
    assert len(TREES) == 74
    done = Counter()
    for t in TREES:
        e = majority_ensemble((t,))
        for d in DISTS:
            assert expected_value_tree_ensemble(e, d) == oracle_expected_value(e, d), (t, d)
            done["expect"] += 1
        for x in XS:
            _check_decisions(e, x, done)
            for d in DISTS:
                _check_attributions(e, x, d, done)
    assert done == {"csr": 1184, "cc": 1184, "mcr": 296, "msr": 296, "enumerate": 296,
                    "expect": 148, "shap": 592, "sums": 592}


# a negative weight in each, and some votes land exactly on the threshold:
# both trees voting 1 (the first two rules), or the second alone (the third)
RULES = (Weighted((1, -1), 0), Weighted((F(1, 2), F(-3, 2)), -1), Weighted((-2, 1), 1))


def test_pairs_of_read_once_trees():
    """Every unordered pair of the trees (a tree with itself included)
    under majority: expect under both distributions, and at one instance,
    cycling through the four by pair index, every other kind under the
    skewed one. Each pair also gets one of the weighted rules, cycling,
    and expect under the skewed distribution, and csr and cc at that
    instance."""
    pairs = list(combinations_with_replacement(TREES, 2))
    assert len(pairs) == 2775
    done, weighted, on_threshold = Counter(), Counter(), 0
    for index, members in enumerate(pairs):
        x = XS[index % len(XS)]
        e = majority_ensemble(members)
        for d in DISTS:
            assert expected_value_tree_ensemble(e, d) == oracle_expected_value(e, d), (e, d)
            done["expect"] += 1
        _check_decisions(e, x, done)
        _check_attributions(e, x, DISTS[1], done)
        rule = RULES[index % len(RULES)]
        w = Ensemble(members, rule)
        assert expected_value_tree_ensemble(w, DISTS[1]) == oracle_expected_value(w, DISTS[1])
        weighted["expect"] += 1
        _check_subsets(w, x, weighted)
        on_threshold += sum(sum(wi * eval_tree(t, z) for wi, t in zip(rule.weights, members))
                            == rule.threshold for z in XS)
    assert done == {"expect": 5550, "csr": 11100, "cc": 11100, "mcr": 2775, "msr": 2775,
                    "enumerate": 2775, "shap": 2775, "sums": 2775}
    assert weighted == {"expect": 2775, "csr": 11100, "cc": 11100}
    assert on_threshold == 4030
