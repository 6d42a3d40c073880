"""Conditioning, negation, indicators, formula compilation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxplain.generate import (
    random_instance_bits, random_perceptron, random_tree,
    random_tree_ensemble, rng_from_seed,
)
from fpxplain.models import (
    DecisionTree, Ensemble, Majority, Perceptron, Weighted, eval_model,
    eval_perceptron, eval_tree, int_to_bits, leaf, majority_ensemble, split,
)
from fpxplain.transforms import (
    CnfFormula, DnfFormula, cnf_to_ensemble, condition_model,
    condition_perceptron, condition_tree, dnf_to_ensemble, eval_cnf,
    eval_dnf, indicator_perceptron, indicator_tree, negate_ensemble,
    negate_model, negate_perceptron, negate_tree, project_out_feature,
)


def override(z, x, s):
    return tuple(x[i] if i in s else z[i] for i in range(len(z)))


def test_condition_perceptron_folds_bias():
    # fixing feature 0 at value 1 moves its weight into the bias
    p = Perceptron((Fraction(1), Fraction(1)), Fraction(-2))
    q = condition_perceptron(p, (1, 1), (0,))
    assert q.weights == (Fraction(0), Fraction(1))
    assert q.bias == Fraction(-1)


def test_condition_tree_drops_fixed_features():
    rng = rng_from_seed(21)
    for _ in range(60):
        n = rng.randint(1, 6)
        t = random_tree(rng, n, 8)
        x = random_instance_bits(rng, n)
        s = tuple(i for i in range(n) if rng.random() < 0.5)
        c = condition_tree(t, x, s)  # built, so its arena is valid
        assert type(c) is DecisionTree
        smask = sum(1 << i for i in s)
        for mask, _, _ in c.paths:
            assert mask & smask == 0
        for z in range(1 << n):
            zb = int_to_bits(z, n)
            assert eval_tree(c, zb) == eval_tree(t, override(zb, x, s))


def test_condition_model_on_ensembles():
    rng = rng_from_seed(22)
    for _ in range(30):
        n = rng.randint(2, 6)
        e = random_tree_ensemble(rng, n, rng.randint(1, 3), 6)
        x = random_instance_bits(rng, n)
        s = tuple(i for i in range(n) if rng.random() < 0.5)
        c = condition_model(e, x, s)
        for z in range(1 << n):
            zb = int_to_bits(z, n)
            assert eval_model(c, zb) == eval_model(e, override(zb, x, s))


def test_negate_tree_truth_table():
    rng = rng_from_seed(23)
    for _ in range(40):
        n = rng.randint(1, 6)
        t = random_tree(rng, n, 8)
        nt = negate_tree(t)
        for z in range(1 << n):
            zb = int_to_bits(z, n)
            assert eval_tree(nt, zb) == 1 - eval_tree(t, zb)


def test_negate_perceptron_handles_exact_tie():
    # score exactly 0 fires; its negation must not
    p = Perceptron((Fraction(1), Fraction(1)), Fraction(-2))
    q = negate_perceptron(p)
    assert eval_perceptron(p, (1, 1)) == 1
    assert eval_perceptron(q, (1, 1)) == 0
    for z in range(4):
        zb = int_to_bits(z, 2)
        assert eval_perceptron(q, zb) == 1 - eval_perceptron(p, zb)


def test_negate_perceptron_random_and_involution():
    rng = rng_from_seed(24)
    for _ in range(50):
        n = rng.randint(1, 6)
        p = random_perceptron(rng, n, 6)
        x = random_instance_bits(rng, n)
        # engineer an exact tie at x
        p = Perceptron(p.weights, -sum(w for w, b in zip(p.weights, x) if b))
        q = negate_perceptron(p)
        qq = negate_perceptron(q)
        for z in range(1 << n):
            zb = int_to_bits(z, n)
            assert eval_perceptron(q, zb) == 1 - eval_perceptron(p, zb)
            assert eval_perceptron(qq, zb) == eval_perceptron(p, zb)


def test_negate_weighted_ensemble_with_vote_tie():
    rng = rng_from_seed(25)
    for _ in range(40):
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        members = tuple(random_tree(rng, n, 6) for _ in range(k))
        vw = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(k))
        x = random_instance_bits(rng, n)
        # threshold set to the exact achieved sum at x: a tie input
        achieved = sum((w for w, m in zip(vw, members) if eval_tree(m, x)),
                       Fraction(0))
        e = Ensemble(members, Weighted(vw, achieved))
        assert eval_model(e, x) == 1
        ne = negate_model(e)
        nne = negate_model(ne)
        for z in range(1 << n):
            zb = int_to_bits(z, n)
            assert eval_model(ne, zb) == 1 - eval_model(e, zb)
            assert eval_model(nne, zb) == eval_model(e, zb)


def test_negate_majority_ensembles_both_parities():
    rng = rng_from_seed(26)
    for k in (1, 2, 3, 4, 5):
        for _ in range(10):
            n = rng.randint(2, 5)
            e = majority_ensemble(tuple(random_tree(rng, n, 6) for _ in range(k)))
            ne = negate_ensemble(e)
            for z in range(1 << n):
                zb = int_to_bits(z, n)
                assert eval_model(ne, zb) == 1 - eval_model(e, zb)
            # odd majorities stay majorities; negation never changes arity
            assert ne.size == e.size


def test_indicator_perceptron_example():
    p = indicator_perceptron((0, 0), (0,), 2)
    assert p.weights == (Fraction(-1), Fraction(0))
    assert p.bias == Fraction(1, 2)
    assert [eval_perceptron(p, x) for x in ((0, 0), (0, 1), (1, 0), (1, 1))] == [1, 1, 0, 0]


def test_indicators_match_partial_assignment():
    rng = rng_from_seed(27)
    for _ in range(60):
        n = rng.randint(1, 6)
        x = random_instance_bits(rng, n)
        s = tuple(i for i in range(n) if rng.random() < 0.5)
        t = indicator_tree(x, s, n)  # built, so its arena is valid
        p = indicator_perceptron(x, s, n)
        assert type(t) is DecisionTree
        for z in range(1 << n):
            zb = int_to_bits(z, n)
            want = 1 if all(zb[i] == x[i] for i in s) else 0
            assert eval_tree(t, zb) == want
            assert eval_perceptron(p, zb) == want


def test_indicator_tree_is_a_chain():
    t = indicator_tree((1, 0, 1), (0, 2), 3)
    # one split per fixed feature
    assert sum(1 for nd in t.nodes if nd[0] == "split") == 2


def test_dnf_member_count_and_truth():
    f = DnfFormula(4, (((0, 1), (2, 0)), ((1, 1), (3, 1)), ((0, 0),)))
    e = dnf_to_ensemble(f)
    assert e.size == 2 * 3 - 1 == 5
    for z in range(16):
        zb = int_to_bits(z, 4)
        assert eval_model(e, zb) == eval_dnf(f, zb)


def test_empty_dnf_is_constant_false():
    f = DnfFormula(3, ())
    e = dnf_to_ensemble(f)
    for z in range(8):
        assert eval_model(e, int_to_bits(z, 3)) == 0


def test_cnf_compilation_truth():
    f = CnfFormula(3, (((0, 1), (1, 1)), ((2, 0),)))
    e = cnf_to_ensemble(f)
    for z in range(8):
        zb = int_to_bits(z, 3)
        assert eval_model(e, zb) == eval_cnf(f, zb)


def test_empty_cnf_is_constant_true():
    e = cnf_to_ensemble(CnfFormula(2, ()))
    for z in range(4):
        assert eval_model(e, int_to_bits(z, 2)) == 1


def test_formula_rejects_contradictory_term():
    with pytest.raises(Exception):
        DnfFormula(2, (((0, 0), (0, 1)),))


def test_project_out_feature():
    p = Perceptron((Fraction(2), Fraction(-3), Fraction(1)), Fraction(1, 2))
    q = project_out_feature(p, 1, 1)
    assert q.weights == (Fraction(2), Fraction(1))
    assert q.bias == Fraction(1, 2) + Fraction(-3)
    for z in range(4):
        zb = int_to_bits(z, 2)
        full = (zb[0], 1, zb[1])
        assert eval_perceptron(q, zb) == eval_perceptron(p, full)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**30))
def test_negation_is_involution_on_random_models(seed):
    rng = rng_from_seed(seed)
    n = rng.randint(1, 5)
    m = random_tree_ensemble(rng, n, rng.randint(1, 3), 5) if seed % 2 \
        else random_perceptron(rng, n, 6)
    nn = negate_model(negate_model(m))
    for z in range(1 << n):
        zb = int_to_bits(z, n)
        assert eval_model(nn, zb) == eval_model(m, zb)
