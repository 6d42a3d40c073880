"""Query routing: every (kind, model family, algorithm) answers with the
listed algorithm label or refuses with the listed error.

A row is either the payload's `algorithm` label, followed by "warned"
when the payload carries a warning, or the error class and its message.
"""

from fractions import Fraction

import pytest

from fpxplain.errors import InvalidInstanceError
from fpxplain.generate import (
    random_instance_bits, random_perceptron, random_product_distribution, random_tree,
    rng_from_seed,
)
from fpxplain.models import (
    DecisionTree, Ensemble, Majority, Perceptron, Weighted, leaf, majority_ensemble, split,
)
from fpxplain.oracle import oracle_expected_value, oracle_shap
from fpxplain.runner import ALGORITHMS, QUERY_KINDS, run_query

T0 = DecisionTree(3, (split(0, 1, 2), leaf(0), split(2, 3, 4), leaf(0), leaf(1)), 0)
T1 = DecisionTree(3, (split(1, 1, 2), leaf(1), leaf(0)), 0)
P0 = Perceptron((Fraction(2), Fraction(-1), Fraction(3)), Fraction(-2))
P1 = Perceptron((Fraction(1), Fraction(1), Fraction(-1)), Fraction(0))
FAMILIES = {"tree": T0, "tree-ensemble": Ensemble((T0, T1, T1), Majority()),
            "perceptron": P0, "perceptron-ensemble": Ensemble((P0, P1, P1), Majority()),
            "mixed-ensemble": Ensemble((T0, P1, T1), Majority())}
X = (1, 0, 1)

ROUTES = """
csr tree
    auto          tree-direct
    oracle        oracle
    fpt           UnsupportedModelError: algorithm 'fpt' does not apply to csr on this model (would use tree-direct)
    direct        tree-direct
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to csr on this model (would use tree-direct)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to csr on this model (would use tree-direct)
csr tree-ensemble
    auto          tree-fpt
    oracle        oracle
    fpt           tree-fpt
    direct        UnsupportedModelError: algorithm 'direct' does not apply to csr on this model (would use tree-fpt)
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to csr on this model (would use tree-fpt)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to csr on this model (would use tree-fpt)
csr perceptron
    auto          perceptron-direct
    oracle        oracle
    fpt           UnsupportedModelError: algorithm 'fpt' does not apply to csr on this model (would use perceptron-direct)
    direct        perceptron-direct
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to csr on this model (would use perceptron-direct)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to csr on this model (would use perceptron-direct)
csr perceptron-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: no fpt algorithm for csr on this model
    direct        UnsupportedModelError: no direct algorithm for csr on this model
    pseudopoly    UnsupportedModelError: no pseudopoly algorithm for csr on this model
    interpolation UnsupportedModelError: no interpolation algorithm for csr on this model
csr mixed-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: no fpt algorithm for csr on this model
    direct        UnsupportedModelError: no direct algorithm for csr on this model
    pseudopoly    UnsupportedModelError: no pseudopoly algorithm for csr on this model
    interpolation UnsupportedModelError: no interpolation algorithm for csr on this model
mcr tree
    auto          tree-fpt
    oracle        oracle
    fpt           tree-fpt
    direct        UnsupportedModelError: algorithm 'direct' does not apply to mcr on this model (would use tree-fpt)
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to mcr on this model (would use tree-fpt)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to mcr on this model (would use tree-fpt)
mcr tree-ensemble
    auto          tree-fpt
    oracle        oracle
    fpt           tree-fpt
    direct        UnsupportedModelError: algorithm 'direct' does not apply to mcr on this model (would use tree-fpt)
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to mcr on this model (would use tree-fpt)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to mcr on this model (would use tree-fpt)
mcr perceptron
    auto          perceptron-direct
    oracle        oracle
    fpt           UnsupportedModelError: algorithm 'fpt' does not apply to mcr on this model (would use perceptron-direct)
    direct        perceptron-direct
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to mcr on this model (would use perceptron-direct)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to mcr on this model (would use perceptron-direct)
mcr perceptron-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: no fpt algorithm for mcr on this model
    direct        UnsupportedModelError: no direct algorithm for mcr on this model
    pseudopoly    UnsupportedModelError: no pseudopoly algorithm for mcr on this model
    interpolation UnsupportedModelError: no interpolation algorithm for mcr on this model
mcr mixed-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: no fpt algorithm for mcr on this model
    direct        UnsupportedModelError: no direct algorithm for mcr on this model
    pseudopoly    UnsupportedModelError: no pseudopoly algorithm for mcr on this model
    interpolation UnsupportedModelError: no interpolation algorithm for mcr on this model
msr tree
    auto          tree-fpt
    oracle        oracle
    fpt           tree-fpt
    direct        UnsupportedModelError: algorithm 'direct' does not apply to msr on this model (would use tree-fpt)
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to msr on this model (would use tree-fpt)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to msr on this model (would use tree-fpt)
msr tree-ensemble
    auto          tree-fpt
    oracle        oracle
    fpt           tree-fpt
    direct        UnsupportedModelError: algorithm 'direct' does not apply to msr on this model (would use tree-fpt)
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to msr on this model (would use tree-fpt)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to msr on this model (would use tree-fpt)
msr perceptron
    auto          perceptron-direct
    oracle        oracle
    fpt           UnsupportedModelError: algorithm 'fpt' does not apply to msr on this model (would use perceptron-direct)
    direct        perceptron-direct
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to msr on this model (would use perceptron-direct)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to msr on this model (would use perceptron-direct)
msr perceptron-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: no fpt algorithm for msr on this model
    direct        UnsupportedModelError: no direct algorithm for msr on this model
    pseudopoly    UnsupportedModelError: no pseudopoly algorithm for msr on this model
    interpolation UnsupportedModelError: no interpolation algorithm for msr on this model
msr mixed-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: no fpt algorithm for msr on this model
    direct        UnsupportedModelError: no direct algorithm for msr on this model
    pseudopoly    UnsupportedModelError: no pseudopoly algorithm for msr on this model
    interpolation UnsupportedModelError: no interpolation algorithm for msr on this model
cc tree
    auto          tree-fpt
    oracle        oracle
    fpt           tree-fpt
    direct        UnsupportedModelError: algorithm 'direct' does not apply to cc on this model (would use tree-fpt)
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to cc on this model (would use tree-fpt)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to cc on this model (would use tree-fpt)
cc tree-ensemble
    auto          tree-fpt
    oracle        oracle
    fpt           tree-fpt
    direct        UnsupportedModelError: algorithm 'direct' does not apply to cc on this model (would use tree-fpt)
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to cc on this model (would use tree-fpt)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to cc on this model (would use tree-fpt)
cc perceptron
    auto          perceptron-pseudopoly
    oracle        oracle
    fpt           UnsupportedModelError: algorithm 'fpt' does not apply to cc on this model (would use perceptron-pseudopoly)
    direct        UnsupportedModelError: algorithm 'direct' does not apply to cc on this model (would use perceptron-pseudopoly)
    pseudopoly    perceptron-pseudopoly
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to cc on this model (would use perceptron-pseudopoly)
cc perceptron-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: no fpt algorithm for cc on this model
    direct        UnsupportedModelError: no direct algorithm for cc on this model
    pseudopoly    UnsupportedModelError: no pseudopoly algorithm for cc on this model
    interpolation UnsupportedModelError: no interpolation algorithm for cc on this model
cc mixed-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: no fpt algorithm for cc on this model
    direct        UnsupportedModelError: no direct algorithm for cc on this model
    pseudopoly    UnsupportedModelError: no pseudopoly algorithm for cc on this model
    interpolation UnsupportedModelError: no interpolation algorithm for cc on this model
shap tree
    auto          interpolation
    oracle        oracle
    fpt           interpolation
    direct        UnsupportedModelError: pseudopoly attribution is for perceptrons
    pseudopoly    UnsupportedModelError: pseudopoly attribution is for perceptrons
    interpolation interpolation
shap tree-ensemble
    auto          interpolation
    oracle        oracle
    fpt           interpolation
    direct        UnsupportedModelError: pseudopoly attribution is for perceptrons
    pseudopoly    UnsupportedModelError: pseudopoly attribution is for perceptrons
    interpolation interpolation
shap perceptron
    auto          pseudopoly
    oracle        oracle
    fpt           UnsupportedModelError: tree Shapley and H tables expect an ensemble of trees
    direct        pseudopoly
    pseudopoly    pseudopoly
    interpolation UnsupportedModelError: tree Shapley and H tables expect an ensemble of trees
shap perceptron-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: tree Shapley and H tables expect an ensemble of trees
    direct        UnsupportedModelError: pseudopoly attribution is for perceptrons
    pseudopoly    UnsupportedModelError: pseudopoly attribution is for perceptrons
    interpolation UnsupportedModelError: tree Shapley and H tables expect an ensemble of trees
shap mixed-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: tree Shapley and H tables expect an ensemble of trees
    direct        UnsupportedModelError: pseudopoly attribution is for perceptrons
    pseudopoly    UnsupportedModelError: pseudopoly attribution is for perceptrons
    interpolation UnsupportedModelError: tree Shapley and H tables expect an ensemble of trees
expect tree
    auto          tree-fpt
    oracle        oracle
    fpt           tree-fpt
    direct        UnsupportedModelError: algorithm 'direct' does not apply to expect on this model (would use tree-fpt)
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to expect on this model (would use tree-fpt)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to expect on this model (would use tree-fpt)
expect tree-ensemble
    auto          tree-fpt
    oracle        oracle
    fpt           tree-fpt
    direct        UnsupportedModelError: algorithm 'direct' does not apply to expect on this model (would use tree-fpt)
    pseudopoly    UnsupportedModelError: algorithm 'pseudopoly' does not apply to expect on this model (would use tree-fpt)
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to expect on this model (would use tree-fpt)
expect perceptron
    auto          perceptron-pseudopoly
    oracle        oracle
    fpt           UnsupportedModelError: algorithm 'fpt' does not apply to expect on this model (would use perceptron-pseudopoly)
    direct        UnsupportedModelError: algorithm 'direct' does not apply to expect on this model (would use perceptron-pseudopoly)
    pseudopoly    perceptron-pseudopoly
    interpolation UnsupportedModelError: algorithm 'interpolation' does not apply to expect on this model (would use perceptron-pseudopoly)
expect perceptron-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: no fpt algorithm for expect on this model
    direct        UnsupportedModelError: no direct algorithm for expect on this model
    pseudopoly    UnsupportedModelError: no pseudopoly algorithm for expect on this model
    interpolation UnsupportedModelError: no interpolation algorithm for expect on this model
expect mixed-ensemble
    auto          oracle warned
    oracle        oracle
    fpt           UnsupportedModelError: no fpt algorithm for expect on this model
    direct        UnsupportedModelError: no direct algorithm for expect on this model
    pseudopoly    UnsupportedModelError: no pseudopoly algorithm for expect on this model
    interpolation UnsupportedModelError: no interpolation algorithm for expect on this model
enumerate-contrastive tree
    auto          tree-fpt
    oracle        InvalidInstanceError: algorithm 'oracle' does not apply to enumeration
    fpt           tree-fpt
    direct        InvalidInstanceError: algorithm 'direct' does not apply to enumeration
    pseudopoly    InvalidInstanceError: algorithm 'pseudopoly' does not apply to enumeration
    interpolation InvalidInstanceError: algorithm 'interpolation' does not apply to enumeration
enumerate-contrastive tree-ensemble
    auto          tree-fpt
    oracle        InvalidInstanceError: algorithm 'oracle' does not apply to enumeration
    fpt           tree-fpt
    direct        InvalidInstanceError: algorithm 'direct' does not apply to enumeration
    pseudopoly    InvalidInstanceError: algorithm 'pseudopoly' does not apply to enumeration
    interpolation InvalidInstanceError: algorithm 'interpolation' does not apply to enumeration
enumerate-contrastive perceptron
    auto          UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    oracle        UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    fpt           UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    direct        UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    pseudopoly    UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    interpolation UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
enumerate-contrastive perceptron-ensemble
    auto          UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    oracle        UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    fpt           UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    direct        UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    pseudopoly    UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    interpolation UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
enumerate-contrastive mixed-ensemble
    auto          UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    oracle        UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    fpt           UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    direct        UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    pseudopoly    UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
    interpolation UnsupportedModelError: contrastive-candidate enumeration is a tree-ensemble algorithm
"""


def _outcome(kind, family, **kwargs) -> str:
    """The outcome of a query on a family, or on a model given as family."""
    try:
        model = FAMILIES[family] if type(family) is str and family in FAMILIES else family
        payload = run_query(model, kind, kwargs.pop("x", X), **kwargs)
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    return payload["algorithm"] + (" warned" if payload["warnings"] else "")


def _expected_routes() -> dict:
    table, group = {}, None
    for line in ROUTES.strip().splitlines():
        if line.startswith(" "):
            algorithm, outcome = line.split(maxsplit=1)
            table[(*group, algorithm)] = outcome
        else:
            group = tuple(line.split())
    return table


def test_every_route_answers_or_refuses_as_listed():
    expected = _expected_routes()
    assert sorted(expected) == sorted((k, f, a) for k in QUERY_KINDS
                                      for f in FAMILIES for a in ALGORITHMS)
    wrong = []
    for (kind, family, algorithm), outcome in expected.items():
        got = _outcome(kind, family, subset=(0,), bound=1, algorithm=algorithm)
        if got != outcome:
            wrong.append((kind, family, algorithm, got))
    assert wrong == []


def test_shap_auto_falls_back_to_the_oracle_without_a_fast_route():
    """Ensembles of perceptrons, and ensembles mixing trees and
    perceptrons, have no polynomial Shapley route: auto runs the oracle
    with the warning every other kind gives, and answers what it does."""
    rng = rng_from_seed(81)
    for case in range(48):
        n = rng.randint(1, 8)
        if case % 2:  # mixed: at least one tree and one perceptron
            members = [random_tree(rng, n, 6), random_perceptron(rng, n, 6)]
            members += [rng.choice((random_tree, random_perceptron))(rng, n, 6)
                        for _ in range(rng.randint(0, 2))]
            rng.shuffle(members)
        else:
            members = [random_perceptron(rng, n, 6) for _ in range(rng.randint(1, 4))]
        m = majority_ensemble(members)
        if case % 4 >= 2:
            m = Ensemble(m.members, Weighted(
                tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in members),
                Fraction(rng.randint(-3, 3), 2)))
        x = random_instance_bits(rng, n)
        d = random_product_distribution(rng, n)
        payload = run_query(m, "shap", x, dist=d)
        assert payload["algorithm"] == payload["method"] == "oracle", case
        assert payload["warnings"] == [
            "no fast algorithm for shap on this model; "
            "falling back to the exponential oracle"], case
        values = [Fraction(v) for v in payload["values"]]
        expected = Fraction(payload["expected"])
        assert tuple(values) == oracle_shap(m, x, d), case
        assert expected == oracle_expected_value(m, d), case
        assert sum(values) == payload["prediction"] - expected, case


def test_arguments_are_checked_before_the_route():
    """Kind and algorithm names first, then that the model is one (a
    model is valid by construction), then the instance, then the subset,
    bound or feature, then (for enumeration) the model family; a refused
    route comes last."""
    cases = [
        (("csr", None), {"algorithm": "fast"},
         "InvalidInstanceError: unknown algorithm 'fast'"),
        (("cc", None), {"x": (1, 0), "subset": (7,)},
         "InvalidInstanceError: invalid model: unsupported model type NoneType"),
        (("csr", "tree"), {"x": (1, 0), "algorithm": "fast"},
         "InvalidInstanceError: unknown algorithm 'fast'"),
        (("shap", "tree"), {"x": (1, 0), "algorithm": "enum"},
         "InvalidInstanceError: unknown algorithm 'enum'"),
        (("expect", "tree"), {"x": (1, 0), "algorithm": "pseudopoly"},
         "InputShapeError: instance has 2 features, model expects 3"),
        (("csr", "perceptron-ensemble"), {"subset": (7,), "algorithm": "fpt"},
         "InputShapeError: feature index 7 outside range 0..2"),
        (("cc", "tree"), {"subset": (-1,), "algorithm": "interpolation"},
         "InputShapeError: feature index -1 outside range 0..2"),
        (("mcr", "perceptron-ensemble"), {"bound": -1, "algorithm": "fpt"},
         "InvalidInstanceError: mcr needs a bound of at least 0"),
        (("msr", "mixed-ensemble"), {"algorithm": "direct"},
         "InvalidInstanceError: msr needs a bound of at least 0"),
        (("shap", "perceptron"), {"feature": 3, "algorithm": "fpt"},
         "InvalidInstanceError: feature 3 outside 0..2"),
        (("enumerate-contrastive", "perceptron"), {"algorithm": "oracle"},
         "UnsupportedModelError: contrastive-candidate enumeration is a "
         "tree-ensemble algorithm"),
    ]
    for (kind, family), kwargs, outcome in cases:
        assert _outcome(kind, family, **kwargs) == outcome, (kind, family, kwargs)


def test_library_arguments_the_cli_cannot_send():
    """csr and cc read a missing subset as the empty one, the CLI default;
    a bool, float or string where a feature index, bound or flag belongs,
    or a float instance bit, is an input error, not an echo in the payload
    or a TypeError."""
    for family, model in FAMILIES.items():
        for kind in ("csr", "cc"):
            assert run_query(model, kind, X) == run_query(model, kind, X, subset=()), family
    cases = [
        ("csr", {"subset": (True,)},
         "InputShapeError: feature index True outside range 0..2"),
        ("cc", {"subset": (1, True)},
         "InputShapeError: feature index True outside range 0..2"),
        ("csr", {"subset": (0, "a")},
         "InputShapeError: feature index 'a' outside range 0..2"),
        ("mcr", {"bound": 1.5}, "InvalidInstanceError: mcr needs an integer bound, got 1.5"),
        ("msr", {"bound": True}, "InvalidInstanceError: msr needs an integer bound, got True"),
        ("shap", {"feature": True}, "InvalidInstanceError: feature True outside 0..2"),
        ("shap", {"feature": 1.0}, "InvalidInstanceError: feature 1.0 outside 0..2"),
        ("enumerate-contrastive", {"minimal_only": "yes"},
         "InvalidInstanceError: minimal_only must be true or false, got 'yes'"),
        ("csr", {"x": (1.0, 0, 1)}, "InputShapeError: instance bit 0 is 1.0, expected 0 or 1"),
    ]
    for kind, kwargs, outcome in cases:
        assert _outcome(kind, "tree", **kwargs) == outcome, (kind, kwargs)


def test_a_dist_or_subset_of_the_wrong_type_is_an_input_error():
    """A dist that is not a ProductDistribution, or a subset that is not
    iterable, is refused on every family before any engine runs."""
    for family in FAMILIES:
        for algorithm in ("auto", "oracle"):
            for kind in ("expect", "shap"):
                assert _outcome(kind, family, dist=[Fraction(1, 2)] * 3,
                                algorithm=algorithm) == (
                    "InputShapeError: distribution must be a ProductDistribution, got list"), \
                    (kind, family, algorithm)
            for kind in ("csr", "cc"):
                assert _outcome(kind, family, subset=5, algorithm=algorithm) == (
                    "InputShapeError: subset must be an iterable of feature indices, got 5"), \
                    (kind, family, algorithm)


def test_an_instance_that_is_not_a_sequence_is_an_input_error():
    """None, an int, a bool or a float where the instance belongs is
    refused for every kind on every family, not a bare TypeError."""
    for x in (None, 5, True, 1.5):
        want = f"InputShapeError: instance must be a sequence of 0/1 bits, got {x!r}"
        for family in FAMILIES:
            for kind in QUERY_KINDS:
                assert _outcome(kind, family, x=x, subset=(), bound=1) == want, (x, family, kind)


def _invalid_models():
    """(build, problem): build() constructs a model with that one problem."""
    return (
        (lambda: Ensemble((T0, DecisionTree(4, (leaf(1),), 0)), Majority()),
         "member 1: feature count 4 differs from member 0 (3)"),
        (lambda: Ensemble((), Majority()), "ensemble has no members"),
        (lambda: Ensemble(5, Majority()), "members of type int are not a tuple"),
        (lambda: Ensemble([T0], Majority()), "members of type list are not a tuple"),
        (lambda: Ensemble((None, T1), Majority()), "member 0: unsupported type NoneType"),
        (lambda: Ensemble((T0, T1), Weighted((Fraction(1),), Fraction(1))),
         "voting has 1 weights for 2 members"),
        (lambda: Ensemble((T0, T1), None), "unknown voting rule NoneType"),
        (lambda: DecisionTree(3, None, 0), "nodes of type NoneType are not a sequence"),
        (lambda: DecisionTree(True, (leaf(1),), 0),
         "feature count True is not a non-negative int"),
        (lambda: DecisionTree(-1, (leaf(1),), 0), "feature count -1 is not a non-negative int"),
        (lambda: DecisionTree(3, list(T0.nodes), 0),
         "nodes are not hashable (unhashable type: 'list')"),
        (lambda: DecisionTree(3, (leaf(1), ("leaf", [1])), 0),
         "nodes are not hashable (unhashable type: 'list')"),
        (lambda: DecisionTree(3, (leaf(0), {}), 1), "node 1 {} is not a tagged tuple"),
        (lambda: Perceptron((), Fraction(0)), "perceptron has no features"),
    )


def test_an_invalid_library_model_is_refused_on_every_kind():
    """An invalid library-built model raises at construction, naming its
    problem, where it used to be answered on one route (mixed feature
    counts) or raise IndexError, AttributeError or TypeError; an object
    that is not a model is refused by every kind, on auto and on the
    oracle alike."""
    for build, problem in _invalid_models():
        with pytest.raises(InvalidInstanceError) as err:
            build()
        assert str(err.value) == f"invalid model: {problem}", problem
        assert err.value.problems == (problem,), problem
    for model, problem in ((None, "unsupported model type NoneType"),
                           ("x", "unsupported model type str")):
        for kind in QUERY_KINDS:
            for algorithm in ("auto", "oracle"):
                assert _outcome(kind, model, x=(1, 0, 1), bound=1, algorithm=algorithm) == (
                    f"InvalidInstanceError: invalid model: {problem}"), (problem, kind, algorithm)
