"""Acceptance battery: the guarantees this package ships with.

Eight checks, each one test function so the run prints one pass/fail
line per guarantee. Everything is exact rational equality (tolerance
zero); the only timing assertions are the tractability-boundary ones,
which have wide margins. Instance streams are deterministic and shared
so the "every instance" batteries really range over the same instances.
"""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from fpxplain import (
    ABSENT, Ensemble, Majority, Perceptron, ProductDistribution,
    ResourceCapError,
    Weighted, cc_perceptron_pseudopoly, cc_tree_ensemble, check_efficiency,
    check_model_count_identity, cnf_to_ensemble, condition_model,
    csr_perceptron, csr_single_tree, csr_tree_ensemble, dnf_to_ensemble,
    enumerate_candidate_contrastive, eval_model, expected_value_perceptron,
    expected_value_tree_ensemble, greedy_subset_minimal_sufficient,
    h_table_perceptron, indicator_perceptron, indicator_tree,
    min_contrastive_perceptron, min_contrastive_size,
    min_sufficient_perceptron, min_sufficient_size, minimum_hitting_set,
    negate_model, oracle_completion_count,
    oracle_expected_value, oracle_is_contrastive,
    oracle_is_sufficient, oracle_min_contrastive, oracle_min_sufficient,
    oracle_model_count, oracle_shap, run_query, shap_interpolation,
    shap_perceptron_pseudopoly, shap_report,
)
from fpxplain.bench import bench_instances, run_bench
from fpxplain.gadgets import (
    gssp_msr_gadget, kgssp_star_msr_gadget, kssp_mcr_gadget,
    multicolored_clique_csr_gadget, solve_gssp_brute, solve_kgssp_star_brute,
    solve_kssp_brute, solve_multicolored_clique_brute, solve_ssp_brute,
    ssp_csr_gadget,
)
from fpxplain.generate import (
    random_instance_bits, random_perceptron, random_product_distribution,
    random_tree, random_tree_ensemble, random_tree_exact,
    sample_colored_graph, sample_gssp, sample_kgssp_star,
    sample_kssp_filtered, sample_ssp,
)
from fpxplain.models import int_to_bits
from fpxplain.oracle import oracle_h_table
from fpxplain.serialize import canonical_dumps, dumps_model
from fpxplain.transforms import CnfFormula, DnfFormula

TREE_COUNT = 500
PERCEPTRON_COUNT = 500


@lru_cache(maxsize=1)
def tree_cases():
    """(ensemble, x, subset, dist) stream shared by batteries 1, 2, 3, 7."""
    rng = random.Random("fpxplain-acceptance:trees")
    cases = []
    for idx in range(TREE_COUNT):
        n = rng.randint(4, 10)
        k = rng.randint(1, 4)
        e = random_tree_ensemble(rng, n, k, max_leaves=8)
        x = random_instance_bits(rng, n)
        s = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        dist = (ProductDistribution.uniform(n) if idx % 2 == 0
                else random_product_distribution(rng, n))
        cases.append((e, x, s, dist))
    return tuple(cases)


@lru_cache(maxsize=1)
def perceptron_cases():
    rng = random.Random("fpxplain-acceptance:perceptrons")
    cases = []
    for idx in range(PERCEPTRON_COUNT):
        n = rng.randint(4, 10)
        p = random_perceptron(rng, n, weight_bound=8)
        x = random_instance_bits(rng, n)
        s = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        dist = (ProductDistribution.uniform(n) if idx % 2 == 0
                else random_product_distribution(rng, n))
        cases.append((p, x, s, dist))
    return tuple(cases)


def test_acceptance_1_fast_paths_equal_oracle():
    started = time.perf_counter()

    for e, x, s, dist in tree_cases():
        n = e.feature_count
        assert csr_tree_ensemble(e, x, s) == oracle_is_sufficient(e, x, s)
        first = e.members[0]
        assert csr_single_tree(first, x, s) == oracle_is_sufficient(first, x, s)
        assert cc_tree_ensemble(e, x, s) == oracle_completion_count(e, x, s)
        assert (expected_value_tree_ensemble(e, dist)
                == oracle_expected_value(e, dist))

        assert min_sufficient_size(e, x) == oracle_min_sufficient(e, x)
        assert min_contrastive_size(e, x) == oracle_min_contrastive(e, x)

        want_phi = oracle_shap(e, x, dist)
        assert tuple(shap_interpolation(e, x, i, dist)
                     for i in range(n)) == want_phi

    for p, x, s, dist in perceptron_cases():
        assert csr_perceptron(p, x, s) == oracle_is_sufficient(p, x, s)
        assert (cc_perceptron_pseudopoly(p, x, s)
                == oracle_completion_count(p, x, s))
        assert (expected_value_perceptron(p, dist)
                == oracle_expected_value(p, dist))

        assert min_sufficient_perceptron(p, x) == oracle_min_sufficient(p, x)
        assert min_contrastive_perceptron(p, x) == oracle_min_contrastive(p, x)

        assert h_table_perceptron(p, x, dist).values == oracle_h_table(p, x, dist)
        assert shap_perceptron_pseudopoly(p, x, dist) == oracle_shap(p, x, dist)

    assert time.perf_counter() - started < 600.0


def test_acceptance_2_shapley_identities():
    for m, x, s, dist in tree_cases() + perceptron_cases():
        n = m.feature_count
        report = shap_report(m, x, dist)
        assert check_efficiency(report)
        uniform = ProductDistribution.uniform(n)
        report_u = report if dist == uniform else shap_report(m, x, uniform)
        assert check_model_count_identity(report_u, oracle_model_count(m), n)


def test_acceptance_3_hitting_set_duality():
    cases = tree_cases()[:200]
    assert len(cases) >= 200
    for e, x, _, _ in cases:
        n = e.feature_count
        family = enumerate_candidate_contrastive(e, x)
        size, witness = minimum_hitting_set(family, n)
        assert size == oracle_min_sufficient(e, x)[0]
        assert oracle_is_sufficient(e, x, witness)
        for member in family:
            assert oracle_is_contrastive(e, x, member)
        flipped_base = eval_model(e, x)
        for member in enumerate_candidate_contrastive(e, x, filter_minimal=True):
            inside = set(member)
            z = tuple(1 - b if i in inside else b for i, b in enumerate(x))
            assert eval_model(e, z) != flipped_base


def _force_truth_equal(got, want, n: int):
    for zint in range(1 << n):
        z = int_to_bits(zint, n)
        assert got(z) == want(z)


def test_acceptance_4_transform_truth_tables():
    rng = random.Random("fpxplain-acceptance:transforms")

    # conditioning: the conditioned model must behave like the original
    # with the chosen coordinates overwritten by x
    for idx in range(200):
        n = rng.randint(2, 12)
        if idx % 3 == 0:
            m = random_perceptron(rng, n, weight_bound=6)
        else:
            m = random_tree_ensemble(rng, n, rng.randint(1, 3), max_leaves=6)
        x = random_instance_bits(rng, n)
        s = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        cond = condition_model(m, x, s)
        inside = set(s)
        _force_truth_equal(
            lambda z: eval_model(cond, z),
            lambda z: eval_model(m, tuple(x[i] if i in inside else z[i]
                                          for i in range(n))),
            n)

    # negation, with every third instance engineered to sit exactly on a
    # decision boundary (score or weighted vote equal to the threshold)
    for idx in range(200):
        n = rng.randint(2, 12)
        kind = idx % 3
        if kind == 0:
            w = tuple(Fraction(rng.randint(-6, 6)) for _ in range(n))
            z = random_instance_bits(rng, n)
            bias = -sum((wi for wi, zi in zip(w, z) if zi), Fraction(0))
            m = Perceptron(w, bias)
            assert eval_model(m, z) == 1  # exact tie fires
        elif kind == 1:
            k = rng.randint(1, 4)
            members = tuple(random_tree(rng, n, 6) for _ in range(k))
            votes = tuple(Fraction(rng.choice((-2, -1, 1, 2, 3)))
                          for _ in range(k))
            z = random_instance_bits(rng, n)
            theta = sum((v for v, t in zip(votes, members)
                         if eval_model(t, z)), Fraction(0))
            m = Ensemble(members, Weighted(votes, theta))
            assert eval_model(m, z) == 1  # exact vote tie fires
        else:
            m = random_tree_ensemble(rng, n, rng.randint(1, 4), max_leaves=6)
        neg = negate_model(m)
        _force_truth_equal(lambda z: eval_model(neg, z),
                           lambda z: 1 - eval_model(m, z), n)

    # indicators, both shapes, against the agreement predicate
    for _ in range(200):
        n = rng.randint(1, 12)
        x = random_instance_bits(rng, n)
        s = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        tree_ind = indicator_tree(x, s, n)
        perc_ind = indicator_perceptron(x, s, n)
        want = lambda z: int(all(z[i] == x[i] for i in s))  # noqa: E731
        _force_truth_equal(lambda z: eval_model(tree_ind, z), want, n)
        _force_truth_equal(lambda z: eval_model(perc_ind, z), want, n)

    # DNF and CNF compilation against direct formula evaluation
    for _ in range(200):
        n = rng.randint(1, 10)
        t = rng.randint(1, 4)
        terms = []
        for _ in range(t):
            feats = rng.sample(range(n), rng.randint(1, min(4, n)))
            terms.append(tuple((f, rng.randint(0, 1)) for f in feats))
        dnf = DnfFormula(n, tuple(terms))
        compiled = dnf_to_ensemble(dnf)
        assert len(compiled.members) == 2 * t - 1
        _force_truth_equal(
            lambda z: eval_model(compiled, z),
            lambda z: int(any(all(z[f] == b for f, b in term)
                              for term in dnf.terms)), n)

        cnf = CnfFormula(n, tuple(terms))
        compiled_cnf = cnf_to_ensemble(cnf)
        _force_truth_equal(
            lambda z: eval_model(compiled_cnf, z),
            lambda z: int(all(any(z[f] == b for f, b in clause)
                              for clause in cnf.clauses)), n)


def test_acceptance_5_gadget_reductions_sound():
    rng = random.Random("fpxplain-acceptance:gadgets")

    for _ in range(200):
        inst = sample_ssp(rng, rng.randint(4, 14))
        g = ssp_csr_gadget(inst)
        sufficient = oracle_is_sufficient(g.model, g.x, g.subset)
        assert sufficient == (not solve_ssp_brute(inst))

    for _ in range(200):
        inst = sample_kssp_filtered(rng, rng.randint(4, 10))
        g = kssp_mcr_gadget(inst)
        found = oracle_min_contrastive(g.model, g.x)
        answer = found is not ABSENT and found[0] <= g.bound
        assert answer == solve_kssp_brute(inst)

    for _ in range(200):
        inst = sample_kgssp_star(rng, rng.randint(3, 8))
        g = kgssp_star_msr_gadget(inst)
        size, _ = oracle_min_sufficient(g.model, g.x)
        assert (size <= g.bound) == solve_kgssp_star_brute(inst)
    # plus composed instances arriving through the generalized chain
    for _ in range(40):
        inst = sample_gssp(rng, rng.randint(1, 2), rng.randint(1, 4))
        g = gssp_msr_gadget(inst)
        size, _ = oracle_min_sufficient(g.model, g.x)
        assert (size <= g.bound) == solve_gssp_brute(inst)

    for _ in range(200):
        graph = sample_colored_graph(rng, rng.randint(2, 3), rng.randint(1, 4))
        g = multicolored_clique_csr_gadget(graph)
        sufficient = oracle_is_sufficient(g.model, g.x, g.subset)
        assert sufficient == (not solve_multicolored_clique_brute(graph))


def test_acceptance_6_tractability_boundary():
    rng = random.Random("fpxplain-acceptance:boundary")
    members = tuple(random_tree_exact(rng, 30, 16) for _ in range(2))
    e = Ensemble(members, Majority())
    x = random_instance_bits(rng, 30)
    started = time.perf_counter()
    value = cc_tree_ensemble(e, x, ())
    elapsed = time.perf_counter() - started
    assert 0 <= value <= 1
    assert elapsed < 10.0
    with pytest.raises(ResourceCapError):
        oracle_completion_count(e, x, ())

    rows = run_bench("scaling-m", seed=7)
    assert [r["m"] for r in rows] == [4, 8, 16, 32]
    xs = [math.log(r["m"]) for r in rows]
    ys = [math.log(float(r["wall_seconds"])) for r in rows]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys))
             / sum((a - mean_x) ** 2 for a in xs))
    assert slope <= 3.0  # k + 1 with k = 2

    rows = run_bench("oracle-doubling", seed=7)
    assert [r["n"] for r in rows] == [16, 18, 20]
    times = [float(r["wall_seconds"]) for r in rows]
    assert times[1] >= 2.0 * times[0]
    assert times[2] >= 2.0 * times[1]


def test_acceptance_7_greedy_subset_minimality():
    rng = random.Random("fpxplain-acceptance:greedy")

    def battery(m, x, fast_csr):
        n = m.feature_count
        base = list(range(n))
        for _ in range(5):
            order = base[:]
            rng.shuffle(order)
            calls = 0

            def is_sufficient(sub):
                nonlocal calls
                calls += 1
                return fast_csr(m, x, sub)

            got = greedy_subset_minimal_sufficient(n, order, is_sufficient)
            assert calls == n
            assert oracle_is_sufficient(m, x, got)
            for i in got:
                trial = tuple(v for v in got if v != i)
                assert not oracle_is_sufficient(m, x, trial)

    for e, x, _, _ in tree_cases():
        battery(e, x, csr_tree_ensemble)
    for p, x, _, _ in perceptron_cases():
        battery(p, x, csr_perceptron)


def _query_payload_blobs() -> list[bytes]:
    rng = random.Random("fpxplain-acceptance:determinism")
    blobs = []
    for idx in range(8):
        n = rng.randint(6, 12)
        k = rng.randint(2, 4)
        members = tuple(random_tree_exact(rng, n, rng.randint(4, 8))
                        for _ in range(k))
        if idx % 2 == 0:
            voting = Majority()
        else:
            voting = Weighted(tuple(Fraction(1) for _ in members),
                              Fraction((k + 1) // 2))
        e = Ensemble(members, voting)
        x = random_instance_bits(rng, n)
        s = tuple(sorted(rng.sample(range(n), n // 3)))
        dist = random_product_distribution(rng, n)
        for kind, kwargs in (
                ("csr", {"subset": s}),
                ("cc", {"subset": ()}),
                ("msr", {"bound": n // 2}),
                ("expect", {"dist": dist}),
                ("shap", {"dist": dist}),
                ("enumerate-contrastive", {"minimal_only": True})):
            payload = run_query(e, kind, x, **kwargs)
            blobs.append(canonical_dumps(payload).encode("utf-8"))
    return blobs


def _bench_stream_blob(suite: str, seed: int) -> bytes:
    items = []
    for meta, model, kind, kwargs, policy in bench_instances(suite, seed):
        safe_kwargs = {key: (list(v) if isinstance(v, tuple) else v)
                       for key, v in kwargs.items()}
        items.append({"meta": meta, "model": dumps_model(model),
                      "kind": kind, "kwargs": safe_kwargs, "policy": policy})
    return canonical_dumps(items).encode("utf-8")


def test_acceptance_8_determinism():
    first = _query_payload_blobs()
    second = _query_payload_blobs()
    third = _query_payload_blobs()
    assert first == second == third

    for suite in ("scaling-m", "scaling-k", "pseudopoly-w", "oracle-doubling"):
        assert _bench_stream_blob(suite, 3) == _bench_stream_blob(suite, 3)
