"""Hardness gadgets: brute solvers, constructions, documented corners."""

import pytest
from fpxplain.errors import InvalidInstanceError
from fpxplain.gadgets import (
    ColoredGraph, GsspInstance, KgsspInstance, KgsspStarInstance, KsspInstance, SspInstance,
    gssp_msr_gadget, gssp_to_kgssp, kgssp_star_msr_gadget,
    kgssp_to_kgssp_star, kssp_mcr_gadget, multicolored_clique_csr_gadget,
    solve_gssp_brute, solve_kgssp_brute, solve_kgssp_star_brute,
    solve_kssp_brute, solve_multicolored_clique_brute, solve_ssp_brute,
    ssp_csr_gadget,
)
from fpxplain.generate import (
    kssp_matches_at_most, rng_from_seed, sample_colored_graph, sample_gssp,
    sample_kgssp_star, sample_kssp_filtered, sample_ssp,
)
from fpxplain.models import ABSENT, eval_model
from fpxplain.oracle import (
    oracle_is_sufficient, oracle_min_contrastive, oracle_min_sufficient,
)


def test_brute_solvers_basics():
    assert solve_ssp_brute(SspInstance((3, 5, 7), 12))
    assert not solve_ssp_brute(SspInstance((3, 5, 7), 11))
    assert solve_kssp_brute(KsspInstance((3, 5, 7), 2, 8))
    assert not solve_kssp_brute(KsspInstance((3, 5, 7), 2, 7))
    # u-subset {2} cannot be completed by v-subsets to 3: {2, 2+5} miss it
    assert solve_gssp_brute(GsspInstance((2,), (5,), 3))
    # every u-choice of (1,) with v (1, 2) reaches 2: {}+2 or {1}+1
    assert not solve_gssp_brute(GsspInstance((1,), (1, 2), 2))
    assert solve_kgssp_brute(
        gssp_to_kgssp(GsspInstance((2,), (5,), 3))) == True  # noqa: E712


def test_ssp_gadget_matches_source():
    rng = rng_from_seed(81)
    for _ in range(60):
        inst = sample_ssp(rng, rng.randint(1, 10))
        g = ssp_csr_gadget(inst)
        assert g.kind == "csr" and g.subset == ()
        assert eval_model(g.model, g.x) == 1
        assert oracle_is_sufficient(g.model, g.x, ()) == (not solve_ssp_brute(inst))


def test_kssp_gadget_matches_source_on_filtered_instances():
    rng = rng_from_seed(82)
    for _ in range(60):
        inst = sample_kssp_filtered(rng, rng.randint(1, 10))
        g = kssp_mcr_gadget(inst)
        found = oracle_min_contrastive(g.model, g.x)
        answer = False if found is ABSENT else found[0] <= g.bound
        assert answer == solve_kssp_brute(inst)


def test_kssp_divergence_example_is_filtered():
    # a size-1 subset hits the target but no size-2 subset does: the
    # at-most-k query says yes while the exact-size source says no
    inst = KsspInstance((1, 2, 3), 2, 1)
    assert not solve_kssp_brute(inst)
    assert not kssp_matches_at_most(inst)
    g = kssp_mcr_gadget(inst)
    found = oracle_min_contrastive(g.model, g.x)
    assert found is not ABSENT and found[0] <= g.bound
    # the sampler never emits such instances
    rng = rng_from_seed(83)
    for _ in range(40):
        assert kssp_matches_at_most(sample_kssp_filtered(rng, 6))


def test_kgssp_star_gadget_matches_source():
    rng = rng_from_seed(84)
    for _ in range(50):
        inst = sample_kgssp_star(rng, rng.randint(1, 9))
        g = kgssp_star_msr_gadget(inst)
        size, _ = oracle_min_sufficient(g.model, g.x)
        assert (size <= g.bound) == solve_kgssp_star_brute(inst)


def test_kgssp_star_sum_equals_target_corner():
    # sum(z) == target: the construction documents the mismatch and emits
    # a constant-true ensemble; the source answer here is no
    inst = KgsspStarInstance((1, 2), (0,), 1, 3)
    assert not solve_kgssp_star_brute(inst)
    g = kgssp_star_msr_gadget(inst)
    assert g.info["branch"] == "sum-equals-target"
    size, _ = oracle_min_sufficient(g.model, g.x)
    assert size == 0  # constant model: query answers yes, source says no
    # samplers exclude the corner
    rng = rng_from_seed(85)
    for _ in range(40):
        s = sample_kgssp_star(rng, 6)
        assert sum(s.z) != s.target


def test_gssp_chain_never_hits_the_corner():
    rng = rng_from_seed(86)
    for _ in range(60):
        inst = sample_gssp(rng, rng.randint(1, 3), rng.randint(1, 4))
        star = kgssp_to_kgssp_star(gssp_to_kgssp(inst))
        assert sum(star.z) != star.target
        assert 1 <= star.k <= len(star.s0)


def test_gssp_chain_preserves_answers():
    rng = rng_from_seed(87)
    for _ in range(50):
        inst = sample_gssp(rng, rng.randint(1, 3), rng.randint(1, 4))
        kg = gssp_to_kgssp(inst)
        star = kgssp_to_kgssp_star(kg)
        want = solve_gssp_brute(inst)
        assert solve_kgssp_brute(kg) == want
        assert solve_kgssp_star_brute(star) == want
        g = gssp_msr_gadget(inst)
        size, _ = oracle_min_sufficient(g.model, g.x)
        assert (size <= g.bound) == want


def test_kgssp_star_rejects_oversized_k():
    with pytest.raises(InvalidInstanceError):
        kgssp_star_msr_gadget(KgsspStarInstance((1, 2, 3), (0,), 2, 4))


def test_clique_gadget_matches_source():
    rng = rng_from_seed(88)
    for _ in range(60):
        graph = sample_colored_graph(rng, rng.randint(2, 3), rng.randint(1, 4))
        g = multicolored_clique_csr_gadget(graph)
        assert eval_model(g.model, g.x) == 0
        assert oracle_is_sufficient(g.model, g.x, ()) == \
            (not solve_multicolored_clique_brute(graph))


def test_clique_force_padding_when_complete():
    # complete bipartite graph on two classes of two: no non-edge exists
    # until padding adds isolated slots; the clique answer is yes
    graph = ColoredGraph((0, 0, 1, 1),
                         frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}))
    assert solve_multicolored_clique_brute(graph)
    g = multicolored_clique_csr_gadget(graph)
    assert g.info["padded_size"] == 4  # bumped from 2
    assert eval_model(g.model, g.x) == 0
    assert not oracle_is_sufficient(g.model, g.x, ())


def test_clique_needs_two_colors():
    with pytest.raises(InvalidInstanceError):
        multicolored_clique_csr_gadget(ColoredGraph((0, 0), frozenset()))


def test_instance_validation():
    with pytest.raises(InvalidInstanceError):
        SspInstance((0, 3), 2)
    with pytest.raises(InvalidInstanceError):
        SspInstance((1, 2), 0)
    with pytest.raises(InvalidInstanceError):
        KsspInstance((1, 2), 3, 2)
    with pytest.raises(InvalidInstanceError):
        KgsspStarInstance((1, 2), (1, 0), 1, 2)
    with pytest.raises(InvalidInstanceError):
        ColoredGraph((0, 2), frozenset())
    with pytest.raises(InvalidInstanceError):
        ColoredGraph((0, 1), frozenset({(1, 1)}))


def test_kgssp_instance_checks_name_the_broken_field():
    cases = ((lambda: KgsspInstance((1, 0), (2,), 1, 3), "u must be positive integers, got 0"),
             (lambda: KgsspInstance((1,), (True,), 1, 3), "v must be positive integers, got True"),
             (lambda: KgsspInstance((1,), (2,), 1, -3),
              "target must be positive integers, got -3"),
             (lambda: KgsspInstance((1, 2), (2,), 3, 3), "k=3 outside 1..2"),
             (lambda: KgsspInstance((1, 2), (2,), 0, 3), "k=0 outside 1..2"),
             (lambda: KgsspStarInstance((1, 0), (0,), 1, 3), "z must be positive integers, got 0"),
             (lambda: KgsspStarInstance((1, 2), (0,), 1, 0),
              "target must be positive integers, got 0"),
             (lambda: KgsspStarInstance((1, 2), (0, 0), 1, 3), "s0 must be strictly increasing"),
             (lambda: KgsspStarInstance((1, 2), (1, 0), 1, 3), "s0 must be strictly increasing"),
             (lambda: KgsspStarInstance((1, 2), (0, 2), 1, 3), "s0 index 2 outside 0..1"),
             (lambda: KgsspStarInstance((1, 2), (-1, 0), 1, 3), "s0 index -1 outside 0..1"),
             (lambda: KgsspStarInstance((1, 2), (0,), 0, 3), "k=0 must be at least 1"))
    for build, message in cases:
        with pytest.raises(InvalidInstanceError) as err:
            build()
        assert str(err.value) == message
