"""Perceptron query algorithms: frozen examples and oracle agreement."""

from fractions import Fraction

import pytest

from fpxplain import perceptron, transforms
from fpxplain.attribution import check_efficiency, shap_report
from fpxplain.errors import ResourceCapError
from fpxplain.generate import (
    random_instance_bits, random_perceptron, random_product_distribution,
    rng_from_seed,
)
from fpxplain.models import ABSENT, Perceptron, ProductDistribution
from fpxplain.oracle import (
    oracle_completion_count, oracle_expected_value, oracle_h_table,
    oracle_is_sufficient, oracle_min_contrastive, oracle_min_sufficient,
    oracle_shap,
)
from fpxplain.perceptron import (
    cc_perceptron_pseudopoly, csr_perceptron, expected_value_perceptron,
    h_table_perceptron, min_contrastive_perceptron, min_sufficient_perceptron,
    shap_perceptron_pseudopoly,
)
from fpxplain.runner import run_query
from fpxplain.serialize import dumps_model

from cli_runner import run

F = Fraction


def P(weights, bias):
    return Perceptron(tuple(F(w) for w in weights), F(bias))


def test_csr_example():
    # fixing the big positive weight alone already forces acceptance
    p = P((5, 1), -3)
    assert csr_perceptron(p, (1, 0), (0,))
    assert not csr_perceptron(p, (1, 0), (1,))
    assert csr_perceptron(p, (1, 0), (0, 1))


def test_mcr_example():
    p = P((3, 1, 1), F(-5, 2))
    assert min_contrastive_perceptron(p, (1, 1, 1)) == (1, (0,))
    assert run_query(p, "mcr", (1, 1, 1), bound=1)["answer"]
    assert not run_query(p, "mcr", (1, 1, 1), bound=0)["answer"]


def test_msr_example():
    p = P((4, 1, 1, 1), F(-7, 2))
    assert min_sufficient_perceptron(p, (1, 1, 1, 1)) == (1, (0,))
    assert run_query(p, "msr", (1, 1, 1, 1), bound=1)["answer"]
    assert not run_query(p, "msr", (1, 1, 1, 1), bound=0)["answer"]


def test_cc_examples():
    p = P((1, 2, 3), -3)
    x = (1, 1, 1)
    assert cc_perceptron_pseudopoly(p, x, (1,)) == F(3, 4)
    assert cc_perceptron_pseudopoly(p, x, (2,)) == 1
    assert cc_perceptron_pseudopoly(p, x, ()) == F(5, 8)


def test_expect_when_the_common_denominator_fills_a_slot():
    # 15 * 17 = 2^8 - 1: the t-free table's slot must still hold the total mass
    d = ProductDistribution((F(1, 15), F(1, 17)))
    for bias in (5, -5, 0, F(-1, 2), F(-3, 2)):
        p = P((1, 1), bias)
        assert expected_value_perceptron(p, d) == oracle_expected_value(p, d), bias
    assert expected_value_perceptron(P((1, 1), 5), d) == 1


def test_h_sum_example():
    # H(1) sums E[f | z_i = x_i] over both singletons
    p = P((1, 1), -2)
    x = (1, 1)
    d = ProductDistribution.uniform(2)
    assert h_table_perceptron(p, x, d).values == (F(1, 4), 1, 1)


def test_mcr_absent_on_constant():
    p = P((0, 0), 1)
    assert min_contrastive_perceptron(p, (0, 1)) is ABSENT
    assert not run_query(p, "mcr", (0, 1), bound=2)["answer"]


def test_msr_zero_on_constant():
    p = P((0, 0), -1)
    assert min_sufficient_perceptron(p, (1, 1)) == (0, ())
    assert run_query(p, "msr", (1, 1), bound=0)["answer"]


def test_random_agreement_with_oracle():
    rng = rng_from_seed(61)
    for _ in range(150):
        n = rng.randint(1, 7)
        p = random_perceptron(rng, n, 8)
        x = random_instance_bits(rng, n)
        s = tuple(i for i in range(n) if rng.random() < 0.4)
        assert csr_perceptron(p, x, s) == oracle_is_sufficient(p, x, s)
        assert cc_perceptron_pseudopoly(p, x, s) == oracle_completion_count(p, x, s)
        assert min_sufficient_perceptron(p, x) == oracle_min_sufficient(p, x)
        assert min_contrastive_perceptron(p, x) == oracle_min_contrastive(p, x)
        d = random_product_distribution(rng, n)
        assert expected_value_perceptron(p, d) == oracle_expected_value(p, d)


def test_h_table_matches_oracle_nonuniform():
    rng = rng_from_seed(62)
    for _ in range(60):
        n = rng.randint(1, 7)
        p = random_perceptron(rng, n, 8)
        x = random_instance_bits(rng, n)
        d = random_product_distribution(rng, n)
        table = h_table_perceptron(p, x, d)
        want = oracle_h_table(p, x, d)
        assert tuple(table.values) == tuple(want)


def test_shap_matches_oracle():
    rng = rng_from_seed(63)
    for _ in range(50):
        n = rng.randint(1, 6)
        p = random_perceptron(rng, n, 8)
        x = random_instance_bits(rng, n)
        d = random_product_distribution(rng, n)
        assert tuple(shap_perceptron_pseudopoly(p, x, d)) == tuple(oracle_shap(p, x, d))


def test_fractional_weights_agree_with_oracle():
    rng = rng_from_seed(64)
    for _ in range(40):
        n = rng.randint(1, 6)
        weights = tuple(F(rng.randint(-8, 8), rng.choice((2, 3, 4))) for _ in range(n))
        p = Perceptron(weights, F(rng.randint(-6, 6), rng.choice((1, 2, 3))))
        x = random_instance_bits(rng, n)
        s = tuple(i for i in range(n) if rng.random() < 0.4)
        assert csr_perceptron(p, x, s) == oracle_is_sufficient(p, x, s)
        assert cc_perceptron_pseudopoly(p, x, s) == oracle_completion_count(p, x, s)


def test_pseudo_budget_cap(monkeypatch):
    monkeypatch.setenv("FPXPLAIN_PSEUDO_BUDGET", "10")
    p = P(tuple(range(1, 25)), -100)
    with pytest.raises(ResourceCapError):
        cc_perceptron_pseudopoly(p, (1,) * 24, ())


def test_pseudo_budget_cap_shap(monkeypatch, tmp_path):
    # integer view (6, -4, 5), bias 2: span 16, one table of 16 * 3 * 4 cells
    p = P((3, -2, F(5, 2)), 1)
    x = (1, 0, 1)
    d = ProductDistribution.uniform(3)
    cells = 16 * 3 * 4
    path = tmp_path / "p.json"
    path.write_text(dumps_model(p))
    args = ["query", "--model", str(path), "--kind", "shap", "--instance", "101"]
    monkeypatch.setenv("FPXPLAIN_PSEUDO_BUDGET", str(cells - 1))
    with pytest.raises(ResourceCapError):
        shap_report(p, x, d)
    r = run(args)
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: ") and len(r.output.splitlines()) == 1
    monkeypatch.setenv("FPXPLAIN_PSEUDO_BUDGET", str(cells))
    assert shap_report(p, x, d).values == oracle_shap(p, x, d)
    r = run(args)
    assert r.exit_code == 0, r.output


def test_shap_division_branches_match_oracle():
    """Every branch of the exact division: w'' of either sign or 0, q_i of
    0 and 1, fractional weights and biases, n = 1. The t-free tables of cc
    and expect run on the same cases, with no free features for cc and
    with thresholds below and above the range of the weight sums."""
    rng = rng_from_seed(65)
    probs = tuple(F(q) for q in ("0", "1", "1/2", "1/3", "2/3", "1/8", "7/8"))
    seen = {"n=1": 0, "w''=0": 0, "w''>0": 0, "w''<0": 0, "q=0": 0, "q=1": 0,
            "s=all": 0, "f=0": 0, "f=1": 0}
    for case in range(320):
        n = 1 if case % 8 == 0 else rng.randint(2, 7)
        weights = tuple(F(0) if rng.random() < 0.2
                        else F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
                        for _ in range(n))
        bias = F(rng.randint(-12, 12), rng.choice((1, 2, 3)))
        if case % 8 in (3, 6):  # the threshold below or above every weight sum
            reach = sum(abs(w) for w in weights) + F(1, 2)
            bias = -reach if case % 8 == 3 else reach
        p = Perceptron(weights, bias)
        x = random_instance_bits(rng, n)
        d = ProductDistribution(tuple(rng.choice(probs) for _ in range(n)))
        s = tuple(range(n)) if case % 4 == 1 else tuple(
            i for i in range(n) if rng.random() < 0.4)
        assert shap_perceptron_pseudopoly(p, x, d) == oracle_shap(p, x, d), case
        assert h_table_perceptron(p, x, d).values == oracle_h_table(p, x, d), case
        assert shap_report(p, x, d).expected == oracle_expected_value(p, d), case
        assert expected_value_perceptron(p, d) == oracle_expected_value(p, d), case
        assert cc_perceptron_pseudopoly(p, x, s) == oracle_completion_count(p, x, s), case
        seen["n=1"] += n == 1
        seen["s=all"] += len(s) == n
        seen["f=0"] += bias < -sum(abs(w) for w in weights)
        seen["f=1"] += bias > sum(abs(w) for w in weights)
        for w, xi, q in zip(weights, x, d.probs):
            w2 = -w if xi else w
            seen["w''=0" if w2 == 0 else "w''>0" if w2 > 0 else "w''<0"] += 1
            agree = q if xi else 1 - q
            seen["q=0"] += w2 != 0 and agree == 0
            seen["q=1"] += w2 != 0 and agree == 1
    assert min(seen.values()) >= 30, seen


def test_shap_report_builds_one_table(monkeypatch):
    """Shapley values and the expected value come from one table, with no
    per-feature projected models."""
    projected, built = [], []
    project, table = transforms.project_out_feature, perceptron._AgreementTable
    for module in (transforms, perceptron):
        monkeypatch.setattr(module, "project_out_feature", raising=False,
                            value=lambda *args: projected.append(args) or project(*args))
    monkeypatch.setattr(perceptron, "_AgreementTable",
                        lambda *args: built.append(args) or table(*args))
    rng = rng_from_seed(66)
    p = random_perceptron(rng, 16, 32)
    x = random_instance_bits(rng, 16)
    d = random_product_distribution(rng, 16)
    report = shap_report(p, x, d)
    assert report.method == "pseudopoly"
    assert projected == [] and len(built) == 1
    assert check_efficiency(report)
    assert report.expected == expected_value_perceptron(p, d)


def test_lex_first_witnesses():
    # 1 and 2 tie in weight: witnesses must prefer the smaller index
    p = P((2, 2, 5), -2)
    x = (1, 1, 0)
    size, wit = min_sufficient_perceptron(p, x)
    assert (size, wit) == (1, (0,))
    p2 = P((2, 2, 2), -6)
    x2 = (1, 1, 1)
    assert min_contrastive_perceptron(p2, x2) == (1, (0,))