"""Mutation fuzz of the library boundary and of `fpxplain query`.

Each library example changes one field of a valid library-built tree,
ensemble or voting rule, or one run_query argument, to a wrong type, a
bool, a huge int, a non-sequence or None, and runs one query kind on the
auto or the oracle route: only FpxError subclasses may escape. Weighted
and Perceptron build their numbers with as_fraction, which refuses a
non-number at construction with TypeError or ValueError, so their fields
take the values the constructors accept. Each CLI example changes one
argument of a valid `fpxplain query` command and runs cli.main in this
process: the exit code is 0, 1 or 2, 1 only with a false answer, and no
`error:` line names a builtin exception, as the catch-all would.
"""

import builtins
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fpxplain.errors import FpxError
from fpxplain.generate import (
    random_instance_bits, random_perceptron, random_tree, rng_from_seed,
)
from fpxplain.models import (
    DecisionTree, Ensemble, Majority, ProductDistribution, Weighted,
    majority_ensemble,
)
from fpxplain.runner import QUERY_KINDS, run_query
from fpxplain.serialize import dumps_model

from cli_runner import run

HUGE = 10 ** 30
_AS_LIST = object()  # stands for the field's own value as a list
BAD = (None, True, False, HUGE, -HUGE, -1, "x", 1.5, {}, _AS_LIST)
VOTE_BAD = (True, False, HUGE, -HUGE, "drop one", "add one")
TREE_FIELDS = ("feature_count", "nodes", "root", "node", "node entry")
ENSEMBLE_FIELDS = ("members", "member", "voting", "weights", "threshold")
ARGUMENTS = ("kind", "x", "subset", "bound", "feature", "dist", "algorithm",
             "minimal_only")


def _base(seed: int):
    """A valid model and instance: a tree, a majority or weighted tree
    ensemble, or an ensemble of a tree and a perceptron."""
    rng = rng_from_seed(seed)
    n = rng.randint(1, 4)
    family = seed % 4
    if family == 0:
        model = random_tree(rng, n, 5)
    else:
        members = [random_tree(rng, n, 5) for _ in range(rng.randint(1, 3))]
        if family == 3:
            members.append(random_perceptron(rng, n, 4))
        if family == 2:
            voting = Weighted(tuple(Fraction(rng.choice((-3, -1, 1, 2)), 2) for _ in members),
                              Fraction(rng.randint(-2, 2), 2))
        else:
            voting = Majority()
        model = Ensemble(tuple(members), voting)
    return model, random_instance_bits(rng, n)


def _bad(value, old):
    return list(old) if value is _AS_LIST and isinstance(old, tuple) else value


def _mutate_tree(t: DecisionTree, field: str, value, where: int) -> DecisionTree:
    fields = {"feature_count": t.feature_count, "nodes": t.nodes, "root": t.root}
    if field in fields:
        fields[field] = _bad(value, fields[field])
    else:
        nodes = list(t.nodes)
        i = where % len(nodes)
        if field == "node":
            nodes[i] = _bad(value, nodes[i])
        else:  # "node entry"
            node = list(nodes[i])
            node[where % len(node)] = value
            nodes[i] = tuple(node)
        fields["nodes"] = tuple(nodes)
    return DecisionTree(fields["feature_count"], fields["nodes"], fields["root"])


def _mutate_voting(voting, field: str, value, k: int):
    weights, threshold = (voting.weights, voting.threshold) if isinstance(voting, Weighted) \
        else ((Fraction(1),) * k, Fraction((k + 1) // 2))
    if value == "drop one":
        weights = weights[1:]
    elif value == "add one":
        weights += (Fraction(1),)
    elif field == "weights":
        weights = weights[:-1] + (value,)
    else:
        threshold = value
    return Weighted(weights, threshold)


def _mutate_model(model, field: str, value, where: int):
    if field in TREE_FIELDS:
        if isinstance(model, DecisionTree):
            return _mutate_tree(model, field, value, where)
        members = list(model.members)
        trees = [j for j, m in enumerate(members) if isinstance(m, DecisionTree)]
        j = trees[where % len(trees)]
        members[j] = _mutate_tree(members[j], field, value, where // 7)
        return Ensemble(tuple(members), model.voting)
    if isinstance(model, DecisionTree):
        model = majority_ensemble((model,))
    members, voting = model.members, model.voting
    if field == "members":
        members = _bad(value, members)
    elif field == "member":
        members = list(members)
        members[where % len(members)] = value
        members = tuple(members)
    elif field == "voting":
        voting = value
    else:
        voting = _mutate_voting(voting, field, VOTE_BAD[where % len(VOTE_BAD)], len(members))
    return Ensemble(members, voting)


def _query(model, x, field, value, where, kind, algorithm):
    n = len(x)
    args = {"kind": kind, "x": x, "subset": (where % n,), "bound": 1,
            "feature": where % n if where % 2 else None,
            "dist": ProductDistribution.uniform(n), "algorithm": algorithm,
            "minimal_only": False}
    if field in ARGUMENTS:
        args[field] = _bad(value, args[field])
    else:
        model = _mutate_model(model, field, value, where)
    kind, x = args.pop("kind"), args.pop("x")
    try:
        payload = run_query(model, kind, x, **args)
    except FpxError:
        return
    assert isinstance(payload, dict) and payload["query"] == kind


@settings(deadline=None, max_examples=400, derandomize=True)
@given(st.integers(0, 39), st.sampled_from(TREE_FIELDS + ENSEMBLE_FIELDS + ARGUMENTS),
       st.integers(0, 2 ** 20), st.sampled_from(QUERY_KINDS),
       st.sampled_from(("auto", "oracle")))
def test_a_mutated_model_or_argument_raises_only_package_errors(
        seed, field, where, kind, algorithm):
    """Every bad value in turn, so each drawn field meets all of them."""
    model, x = _base(seed)
    for value in BAD:
        _query(model, x, field, value, where, kind, algorithm)


# ---------------------------------------------------------------------------
# the command line


CLI_BAD = ("", " ", "-1", "9" * 30, "9" * 5000, "true", "null", "x", "0,0", ",", "1/0",
           "-", "1.5", "nan", "0b1", "٣", "1" * 40, "--kind")
DOCS = ("null", "[]", "{}", '{"format": "fpxplain-model"}', "1e999", "{", "\u0000",
        '{"format": "fpxplain-model", "version": 1, "model": {"kind": "tree"}}')
OPTIONS = ("--model", "--kind", "--instance", "--subset", "--bound", "--feature", "--dist",
           "--algorithm", "--minimal-only")
_BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                       if isinstance(obj, type) and issubclass(obj, BaseException)}


def _check_exit(argv, kind):
    r = run(argv)
    assert r.exception is None or isinstance(r.exception, SystemExit), (argv, r.exception)
    assert r.exit_code in (0, 1, 2), (argv, r.output)
    if r.exit_code == 1:
        assert '"answer":false' in r.output, (argv, r.output)
    for line in r.output.splitlines():
        named = re.match(r"error: (\w+): ", line)
        assert not (named and named.group(1) in _BUILTIN_EXCEPTIONS), (argv, line)
    if r.exit_code in (0, 1):
        assert json.loads(r.output)["query"] == kind


@settings(deadline=None, max_examples=16, derandomize=True)
@given(st.integers(0, 39), st.sampled_from(QUERY_KINDS), st.sampled_from(OPTIONS))
def test_a_mutated_query_command_keeps_the_exit_code_contract(seed, kind, option):
    """The option is dropped, then given every bad value in turn; a bad
    model document replaces the model file's text."""
    model, x = _base(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        good = dumps_model(model)
        for value in (None, *CLI_BAD, *DOCS):
            path.write_text(good)
            opts = {"--model": str(path), "--kind": kind, "--instance": "".join(map(str, x)),
                    "--subset": "0", "--bound": "1", "--feature": str(len(x) - 1),
                    "--dist": "uniform", "--algorithm": "auto", "--minimal-only": None}
            if value is None:
                del opts[option]
            elif option == "--model" and value in DOCS:
                path.write_text(value)
            elif option == "--model":
                opts[option] = str(Path(tmp) / value) if value.strip() else tmp
            else:
                opts[option] = value
            argv = ["query"]
            for name, arg in opts.items():
                argv += [name] if arg is None else [name, arg]
            _check_exit(argv, kind)
