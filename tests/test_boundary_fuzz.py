"""Mutation fuzz of the library boundary and of `fpxplain query`.

Each library example changes one field of a valid library-built tree,
perceptron, ensemble, voting rule or distribution, or one run_query
argument, to a wrong type, a bool, a huge int, a non-sequence or None,
builds the model and runs one query kind on the auto or the oracle
route: only FpxError subclasses may escape, from the constructors as
from the query. Each CLI example changes one argument of a valid
`fpxplain query` command, or one field of a gadget bundle for
`query --bundle`, and runs cli.main in this process: the exit code is
0, 1 or 2, 1 only with a false answer, and no `error:` line names a
builtin exception, as the catch-all would.
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
from fpxplain.gadgets import KsspInstance, SspInstance, kssp_mcr_gadget, ssp_csr_gadget
from fpxplain.generate import (
    random_instance_bits, random_perceptron, random_tree, rng_from_seed,
)
from fpxplain.models import (
    DecisionTree, Ensemble, Majority, Perceptron, ProductDistribution, Weighted,
    majority_ensemble,
)
from fpxplain.runner import QUERY_KINDS, run_query
from fpxplain.serialize import bundle_to_doc, dumps_model

from cli_runner import run

HUGE = 10 ** 30
_AS_LIST = object()  # stands for the field's own value as a list
BAD = (None, True, False, HUGE, -HUGE, -1, "x", 1.5, {}, _AS_LIST)
TREE_FIELDS = ("feature_count", "nodes", "root", "node", "node entry")
ENSEMBLE_FIELDS = ("members", "member", "voting", "vote weights", "vote weight", "threshold",
                   "vote count")
PERCEPTRON_FIELDS = ("perceptron weights", "perceptron weight", "bias")
DIST_FIELDS = ("probs", "prob")
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


def _replace(values: tuple, where: int, value) -> tuple:
    i = where % len(values)
    return values[:i] + (value,) + values[i + 1:]


def _mutate_voting(voting, field: str, value, where: int, k: int):
    weights, threshold = (voting.weights, voting.threshold) if isinstance(voting, Weighted) \
        else ((Fraction(1),) * k, Fraction((k + 1) // 2))
    if field == "vote count":
        weights = weights[1:] if where % 2 else weights + (Fraction(1),)
    elif field == "vote weights":
        weights = _bad(value, weights)
    elif field == "vote weight":
        weights = _replace(weights, where, value)
    else:
        threshold = value
    return Weighted(weights, threshold)


def _mutate_perceptron(model, field: str, value, where: int):
    """Mutate a perceptron member; a model without one gets one in place
    of a member."""
    if isinstance(model, DecisionTree):
        model = majority_ensemble((model,))
    members = list(model.members)
    j = where % len(members)
    p = members[j] if isinstance(members[j], Perceptron) else \
        Perceptron((1,) * model.feature_count, 0)
    weights, bias = p.weights, p.bias
    if field == "perceptron weights":
        weights = _bad(value, weights)
    elif field == "perceptron weight":
        weights = _replace(weights, where // 7, value)
    else:
        bias = value
    members[j] = Perceptron(weights, bias)
    return Ensemble(tuple(members), model.voting)


def _mutate_model(model, field: str, value, where: int):
    if field in PERCEPTRON_FIELDS:
        return _mutate_perceptron(model, field, value, where)
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
        voting = _mutate_voting(voting, field, value, where, len(members))
    return Ensemble(members, voting)


def _query(model, x, field, value, where, kind, algorithm):
    n = len(x)
    args = {"kind": kind, "x": x, "subset": (where % n,), "bound": 1,
            "feature": where % n if where % 2 else None,
            "dist": ProductDistribution.uniform(n), "algorithm": algorithm,
            "minimal_only": False}
    try:
        if field in ARGUMENTS:
            args[field] = _bad(value, args[field])
        elif field in DIST_FIELDS:
            probs = args["dist"].probs
            args["dist"] = ProductDistribution(
                _bad(value, probs) if field == "probs" else _replace(probs, where, value))
        else:
            model = _mutate_model(model, field, value, where)
        kind, x = args.pop("kind"), args.pop("x")
        payload = run_query(model, kind, x, **args)
    except FpxError:
        return
    assert isinstance(payload, dict) and payload["query"] == kind


@settings(deadline=None, max_examples=400, derandomize=True)
@given(st.integers(0, 39), st.sampled_from(
    TREE_FIELDS + ENSEMBLE_FIELDS + PERCEPTRON_FIELDS + DIST_FIELDS + ARGUMENTS),
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


def _check_exit(argv, kind=None):
    """kind is the query the payload must answer; None takes any."""
    r = run(argv)
    assert r.exception is None or isinstance(r.exception, SystemExit), (argv, r.exception)
    assert r.exit_code in (0, 1, 2), (argv, r.output)
    if r.exit_code == 1:
        assert '"answer":false' in r.output, (argv, r.output)
    for line in r.output.splitlines():
        named = re.match(r"error: (\w+): ", line)
        assert not (named and named.group(1) in _BUILTIN_EXCEPTIONS), (argv, line)
    if r.exit_code in (0, 1):
        assert json.loads(r.output)["query"] == (kind or json.loads(r.output)["query"])


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


_DROP = object()  # stands for removing the field
BUNDLE_BAD = (None, True, False, 0, -1, HUGE, 1.5, "", "x", "1/0", "-", [], {}, [[]], {"a": 1})


def _paths(obj, path=()):
    """The path of every field and list entry below obj."""
    for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def test_a_mutated_bundle_keeps_the_exit_code_contract(tmp_path):
    """Every field of an ssp and a kssp gadget bundle is dropped, then
    given each of the bad values, and `query --bundle` runs on it."""
    bundle = tmp_path / "bundle.json"
    fields = 0
    for gadget in (ssp_csr_gadget(SspInstance((3, 5, 7), 11)),
                   kssp_mcr_gadget(KsspInstance((3, 5, 7), 2, 12))):
        good = json.dumps(bundle_to_doc(gadget))
        for *parents, key in _paths(json.loads(good)):
            fields += 1
            for value in (_DROP, *BUNDLE_BAD):
                doc = json.loads(good)
                field = doc
                for step in parents:
                    field = field[step]
                if value is _DROP:
                    del field[key]
                else:
                    field[key] = value
                bundle.write_text(json.dumps(doc))
                _check_exit(["query", "--bundle", str(bundle)])
    assert fields == 55
