"""Perceptron query algorithms: frozen examples and oracle agreement."""

import ast
import importlib.util
import io
import tokenize
from fractions import Fraction
from itertools import accumulate, combinations
from pathlib import Path

import pytest

from fpxplain import perceptron, transforms
from fpxplain.attribution import check_efficiency, shap_report
from fpxplain.errors import ResourceCapError, UnsupportedModelError
from fpxplain.generate import (
    random_instance_bits, random_perceptron, random_product_distribution,
    rng_from_seed,
)
from fpxplain.models import (
    ABSENT, DecisionTree, Perceptron, ProductDistribution, eval_model, leaf,
    majority_ensemble, packed_cells, split,
)
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
    assert h_table_perceptron(p, x, d) == (F(1, 4), 1, 1)


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
        assert table == want


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


def _perfbench_dp_cells():
    """perfbench/spans.py's _dp_cells, perfbench's own copy of the charge."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._dp_cells


def test_perfbench_books_the_cells_the_table_builder_charges(monkeypatch):
    """perfbench books perceptron.dp_cells by its own copy of the charge
    that _packed_product makes: each kind refuses at one cell below that
    count and answers at it, so a change to the charge flags the copy."""
    dp_cells = _perfbench_dp_cells()
    rng = rng_from_seed(67)
    for case in range(16):
        n = rng.randint(1, 6)
        p = Perceptron(tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)),
                       F(rng.randint(-9, 9), rng.choice((1, 2))))
        x = random_instance_bits(rng, n)
        s = tuple(i for i in range(n) if rng.random() < 0.4)
        d = random_product_distribution(rng, n)
        for name, args, call in (
                ("cc_perceptron_pseudopoly", (p, x, s), lambda: cc_perceptron_pseudopoly(p, x, s)),
                ("expected_value_perceptron", (p, d), lambda: expected_value_perceptron(p, d)),
                ("h_table_perceptron", (p, x, d), lambda: shap_report(p, x, d))):
            cells = dp_cells(name, args)
            perceptron._agreement_table.cache_clear()  # a cached table is not charged
            monkeypatch.setenv("FPXPLAIN_PSEUDO_BUDGET", str(cells - 1))
            with pytest.raises(ResourceCapError) as err:
                call()
            assert str(err.value) == (
                f"the subset-sum table needs about {cells} DP cells, over the budget "
                f"{cells - 1}; raise FPXPLAIN_PSEUDO_BUDGET to allow it"), (case, name)
            monkeypatch.setenv("FPXPLAIN_PSEUDO_BUDGET", str(cells))
            call()


def test_shap_division_branches_match_oracle():
    """Every branch of the exact division: w'' of either sign or 0, q_i of
    0 and 1, fractional weights and biases, n = 1. The t-free tables of cc
    and expect run on the same cases, with no free features for cc and
    with thresholds below and above the range of the weight sums. A second
    set, on integer weights, starts the sweeps at every residue."""
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
        assert h_table_perceptron(p, x, d) == oracle_h_table(p, x, d), case
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
    # integer weights up to 20 in size, n <= 10, and thresholds T at the
    # ends of the range [low, high] of the w'' sums, just outside it, and
    # inside it: the sweep of each w'' starts at every residue of
    # (min(T, high) - w'' - low) modulo |w''|
    residues = set()
    for case in range(560):
        n = rng.randint(1, 10)
        weights = tuple(0 if rng.random() < 0.1 else rng.randint(-20, 20)
                        for _ in range(n))
        x = random_instance_bits(rng, n)
        w2s = [-w if xi else w for w, xi in zip(weights, x)]
        low, high = sum(w for w in w2s if w < 0), sum(w for w in w2s if w > 0)
        if case % 8 < 4:
            where = ("T=low-1", "T=low", "T=high", "T=high+1")[case % 8]
            threshold = (low - 1, low, high, high + 1)[case % 8]
        else:
            where, threshold = "low<=T<=high", rng.randint(low, high)
        p = Perceptron(weights, threshold - sum(w for w, xi in zip(weights, x) if not xi))
        d = ProductDistribution(tuple(rng.choice(probs) for _ in range(n)))
        assert shap_perceptron_pseudopoly(p, x, d) == oracle_shap(p, x, d), case
        assert h_table_perceptron(p, x, d) == oracle_h_table(p, x, d), case
        table = perceptron._agreement_table(p, x, d)
        assert (table.threshold, table.low, table.high) == (threshold, low, high), case
        seen[where] = seen.get(where, 0) + 1
        residues.update((abs(w), (min(threshold, high) - w - low) % abs(w))
                        for w in w2s if w)
    assert residues == {(m, r) for m in range(1, 21) for r in range(m)}
    assert min(seen.values()) >= 30, seen


def test_division_past_the_shap_oracle_cap():
    """The division for each feature, past FPXPLAIN_SHAP_ORACLE_CAP (14),
    where no oracle twin answers: 40 seeded perceptrons at n = 16..30 with
    integer weights of both signs and zeros, under the pseudo budget,
    probabilities that include 0 and 1, and thresholds T below low, inside
    [low, high], within max |w''| of high and above high, 10 of each. For
    each of the 601 features with w'' != 0 and q_i != 1, d_i P / D, P the
    conditioned column read with packed_cells, is the H table of the
    model with feature i fixed to x_i, over the other features. And
    shap_report's values sum to f(x) - E[f], with its E[f] the t-free
    table's expected_value_perceptron."""
    from fpxplain import _config
    rng = rng_from_seed(69)
    probs = tuple(F(q) for q in ("0", "1", "1/2", "1/3", "2/3", "1/8", "7/8"))
    seen = {"T<low": 0, "low<=T<=high": 0, "high-|w''|<=T<=high": 0, "T>high": 0,
            "w''>0": 0, "w''<0": 0, "q=0": 0}
    for case in range(40):
        n = rng.randint(_config.SHAP_ORACLE_CAP_DEFAULT + 2, 30)
        bound = rng.choice((1, 3, 9, 20))
        weights = tuple(0 if rng.random() < 0.1 else rng.randint(-bound, bound)
                        for _ in range(n))
        x = random_instance_bits(rng, n)
        w2s = [-w if xi else w for w, xi in zip(weights, x)]
        low, high = sum(w for w in w2s if w < 0), sum(w for w in w2s if w > 0)
        assert (high - low + 1) * n * (n + 1) <= _config.PSEUDO_BUDGET_DEFAULT, case
        where = tuple(seen)[case % 4]
        if where == "T<low":
            threshold = low - rng.randint(1, 3)
        elif where == "low<=T<=high":
            threshold = rng.randint(low, high)
        elif where == "T>high":
            threshold = high + rng.randint(1, 3)
        else:
            threshold = high - rng.randint(0, max(map(abs, w2s)))
        seen[where] += 1
        p = Perceptron(tuple(map(F, weights)),
                       F(threshold - sum(w for w, xi in zip(weights, x) if not xi)))
        d = ProductDistribution(tuple(rng.choice(probs) for _ in range(n)))
        report = shap_report(p, x, d)
        assert report.method == "pseudopoly" and check_efficiency(report), case
        assert report.expected == expected_value_perceptron(p, d), case
        table = perceptron._agreement_table(p, x, d)  # the cache holds one table
        assert (table.threshold, table.low, table.high) == (threshold, low, high), case
        for i, (w, a, den) in enumerate(table.factors):
            if w == 0 or a == den:
                continue
            cells = packed_cells(table.conditioned(w, a, den), table.slot // 8, n)
            g = transforms.project_out_feature(p, i, x[i])
            rest = ProductDistribution(d.probs[:i] + d.probs[i + 1:])
            assert tuple(F(den * c, table.common) for c in cells) == \
                h_table_perceptron(g, x[:i] + x[i + 1:], rest), (case, i)
            seen["w''>0" if w > 0 else "w''<0"] += 1
            seen["q=0"] += a == 0
    assert seen == {"T<low": 10, "low<=T<=high": 10, "high-|w''|<=T<=high": 10,
                    "T>high": 10, "w''>0": 302, "w''<0": 299, "q=0": 99}, seen


def test_table_columns_are_running_sums_of_g():
    """column(s) is the running sum of G's columns, each cell of G read on
    its own with packed_cells, for every s from low - 2 to high + 2: 0
    below low and the total above high."""
    rng = rng_from_seed(68)
    for case in range(60):
        n = rng.randint(1, 7)
        p = Perceptron(tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)),
                       F(rng.randint(-12, 12), rng.choice((1, 2))))
        x = random_instance_bits(rng, n)
        d = random_product_distribution(rng, n)
        table = perceptron._agreement_table(p, x, d)
        g, low, width, slot, _ = perceptron._packed_product(table.factors, with_t=True)
        assert (low, low + width - 1) == (table.low, table.high), case
        cells = packed_cells(g, slot // 8, width * (n + 1))
        sums = [0] * (n + 1)
        for s in range(low - 2, table.high + 3):
            if low <= s <= table.high:
                at = (s - low) * (n + 1)
                sums = [c + cell for c, cell in zip(sums, cells[at:at + n + 1])]
            assert packed_cells(table.column(s), slot // 8, n + 1) == sums, (case, s)


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


def _lex_first_witness_reference(gains, need):
    """The witness search that sorts the gains after every candidate."""
    ranked = accumulate(sorted(gains, reverse=True), initial=0)
    size = next((r for r, total in enumerate(ranked) if total >= need), None)
    if size is None:
        return ABSENT
    chosen, start = [], 0
    while len(chosen) < size:
        for i in range(start, len(gains)):
            tail = sorted(gains[i + 1:], reverse=True)[:size - len(chosen) - 1]
            if gains[i] + sum(tail) >= need:
                chosen.append(i)
                need -= gains[i]
                start = i + 1
                break
    return size, tuple(chosen)


def test_lex_first_witness_matches_its_reference():
    """Random gains with ties and zeros, n up to 40, and needs at 0, at the
    total, past it and in between."""
    rng = rng_from_seed(69)
    for case in range(2000):
        n = rng.randint(0, 40)
        gains = [rng.choice((0, 0, rng.randint(1, 4), rng.randint(1, 100))) for _ in range(n)]
        total = sum(gains)
        for need in (0, total, total + 1, rng.randint(1, total + 1)):
            assert perceptron._lex_first_witness(gains, need) == \
                _lex_first_witness_reference(gains, need), (case, gains, need)


def test_engines_refuse_trees_and_ensembles():
    """Every perceptron engine names the model it cannot take, before it
    looks at the instance, subset or distribution (all wrong-sized here)."""
    tree = DecisionTree(2, (split(0, 1, 2), leaf(0), leaf(1)))
    ensemble = majority_ensemble([tree, P((1, 1), -1), tree])
    x, d = (1,) * 5, ProductDistribution.uniform(5)
    calls = {
        csr_perceptron: (x, (7,)),
        min_contrastive_perceptron: (x,),
        min_sufficient_perceptron: (x,),
        cc_perceptron_pseudopoly: (x, (7,)),
        expected_value_perceptron: (d,),
        h_table_perceptron: (x, d),
        shap_perceptron_pseudopoly: (x, d),
    }
    for model in (tree, ensemble):
        for engine, args in calls.items():
            with pytest.raises(UnsupportedModelError, match="expected a perceptron, got "
                               + type(model).__name__):
                engine(model, *args)


def _tie_perceptron(rng, n):
    """Half- and third-integer weights, bias = -(sum of a subset of them),
    so the subset's indicator scores exactly 0."""
    weights = [F(rng.randint(-9, 9), rng.choice((2, 3))) for _ in range(n)]
    tie = [int(rng.random() < 0.5) for _ in range(n)]
    bias = -sum((w for w, t in zip(weights, tie) if t), F(0))
    return Perceptron(weights, bias), tuple(tie)


def _near(rng, tie):
    """The tie point itself, a neighbour of it, or a random instance."""
    x = list(tie)
    roll = rng.random()
    if roll < 0.3:
        return tuple(x)
    if roll < 0.7:
        i = rng.randrange(len(x))
        x[i] = 1 - x[i]
        return tuple(x)
    return tuple(rng.randint(0, 1) for _ in x)


def test_exact_ties_match_oracle():
    """At an exact tie a set of gains reaches need with nothing to spare:
    csr on every subset, mcr and msr equal their oracles on both sides."""
    rng = rng_from_seed(65)
    sides = {0: 0, 1: 0}
    at_tie = below_tie = 0  # score exactly 0; one flip short of exactly 0
    for _ in range(500):
        n = rng.randint(1, 8)
        p, tie = _tie_perceptron(rng, n)
        x = _near(rng, tie)
        sides[eval_model(p, x)] += 1
        distance = sum(a != b for a, b in zip(x, tie))
        at_tie += distance == 0
        below_tie += distance == 1 and eval_model(p, x) == 0
        for r in range(n + 1):
            for s in combinations(range(n), r):
                assert csr_perceptron(p, x, s) == oracle_is_sufficient(p, x, s), (p, x, s)
        assert min_contrastive_perceptron(p, x) == oracle_min_contrastive(p, x), (p, x)
        assert min_sufficient_perceptron(p, x) == oracle_min_sufficient(p, x), (p, x)
    assert min(sides.values()) >= 150 and min(at_tie, below_tie) >= 60, \
        (sides, at_tie, below_tie)


def test_witnesses_past_the_oracle_cap():
    """n = 24..40: reassigning the mcr witness flips f(x) and no smaller
    part of it does; the msr witness is sufficient and no smaller part of
    it is."""
    rng = rng_from_seed(66)
    for _ in range(300):
        n = rng.randint(24, 40)
        p, tie = _tie_perceptron(rng, n)
        x = _near(rng, tie)
        fx = eval_model(p, x)

        def flipped(c):
            return tuple(1 - v if i in c else v for i, v in enumerate(x))
        found = min_contrastive_perceptron(p, x)
        if found is not ABSENT:
            size, c = found
            assert size == len(c) and eval_model(p, flipped(c)) != fx, (p, x, c)
            for i in c:
                assert eval_model(p, flipped(set(c) - {i})) == fx, (p, x, c, i)
        size, s = min_sufficient_perceptron(p, x)
        assert size == len(s) and csr_perceptron(p, x, s), (p, x, s)
        for i in s:
            assert not csr_perceptron(p, x, tuple(j for j in s if j != i)), (p, x, s, i)


def test_readme_library_example():
    """Each `# result` comment in the README's Library block is the repr
    of the expression it annotates: on the same line, or alone on the
    next line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(code).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            continue
        want = comments.get(stmt.end_lineno, comments.get(stmt.end_lineno + 1))
        assert want is not None, ast.unparse(stmt)
        got = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        assert repr(got) == want, (ast.unparse(stmt), got)
        checked += 1
    assert checked >= 3
