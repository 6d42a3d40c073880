"""Mutation fuzz of the library boundary and of `fpxplain query`.

Each library example changes one field of a valid library-built tree,
perceptron, ensemble, voting rule or distribution, or one run_query
argument, to a wrong type, a bool, a huge int, an int too long to print,
a non-sequence or None, builds the model and runs one query kind on the
auto or the oracle route: only FpxError subclasses may escape, from the constructors as
from the query. The gadget source instances, colored graphs and
formulas get every field and every entry below one changed in the same
way, and only FpxError may escape their constructors. Each CLI example
changes one argument of a valid `fpxplain query` command, or one field
of a gadget bundle for `query --bundle`, and runs cli.main in this
process: the exit code is 0, 1 or 2, 1 only with a false answer, and no
`error:` line names a builtin exception, as the catch-all would.
"""

import builtins
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxplain.errors import FpxError
from fpxplain.gadgets import (
    ColoredGraph, GsspInstance, KgsspInstance, KgsspStarInstance, KsspInstance, SspInstance,
    kssp_mcr_gadget, ssp_csr_gadget,
)
from fpxplain.generate import (
    generate_model, random_instance_bits, random_perceptron, random_product_distribution,
    random_tree, random_tree_ensemble, random_tree_exact, rng_from_seed, sample_colored_graph,
    sample_gssp, sample_kgssp_star, sample_kssp, sample_kssp_filtered, sample_ssp,
)
from fpxplain.models import (
    DecisionTree, Ensemble, Majority, Perceptron, ProductDistribution, Weighted,
    majority_ensemble,
)
from fpxplain.runner import QUERY_KINDS, run_query
from fpxplain.serialize import bundle_to_doc, dumps_model
from fpxplain.transforms import CnfFormula, DnfFormula, cnf_to_ensemble, dnf_to_ensemble
from fpxplain.trees import minimum_hitting_set

from cli_runner import run

HUGE = 10 ** 30
OVER_LONG = 10 ** 5000  # past the int-to-str digit limit: no message may print it
_AS_LIST = object()  # stands for the field's own value as a list
BAD = (None, True, False, HUGE, -HUGE, -1, "x", 1.5, {}, _AS_LIST, OVER_LONG)
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


# valid arguments of each value class outside models
VALUES = ((SspInstance, ((3, 5, 7), 11)), (KsspInstance, ((3, 5, 7), 2, 12)),
          (GsspInstance, ((1, 2), (3,), 4)), (KgsspInstance, ((1, 2), (3,), 1, 4)),
          (KgsspStarInstance, ((1, 2, 4), (0, 2), 1, 3)),
          (ColoredGraph, ((0, 1, 1), frozenset({(0, 1), (0, 2)}))),
          (DnfFormula, (3, (((0, 1), (2, 0)), ((1, 1),)))),
          (CnfFormula, (3, (((1, 1),), ((0, 0), (2, 1))))))


def _entries(value) -> tuple:
    return tuple(sorted(value)) if isinstance(value, frozenset) else value


def _places(value, path=()):
    """The path of every entry of value, and of every entry below one."""
    if isinstance(value, (tuple, frozenset)):
        for i, entry in enumerate(_entries(value)):
            yield path + (i,)
            yield from _places(entry, path + (i,))


def _put(value, path, new):
    """value with the entry at path replaced by new(old entry); a frozenset
    that cannot hold the new entry (a list, a dict) becomes a tuple."""
    if not path:
        return new(value)
    entries = list(_entries(value))
    entries[path[0]] = _put(entries[path[0]], path[1:], new)
    try:
        return frozenset(entries) if isinstance(value, frozenset) else tuple(entries)
    except TypeError:
        return tuple(entries)


def test_a_mutated_gadget_instance_graph_or_formula_raises_only_package_errors():
    """Every argument of each constructor, and every entry below one (a
    weight, an edge or an edge's vertex, a term, a literal or its feature
    or value), is given each bad value in turn. What builds hashes: its
    containers are stored as tuples or frozensets."""
    built = refused = 0
    for cls, args in VALUES:
        assert cls(*args)
        for path in _places(args):
            for value in BAD:
                try:
                    instance = cls(*_put(args, path, lambda old: _bad(value, old)))
                except FpxError:
                    refused += 1
                else:
                    hash(instance)
                    built += 1
    assert (built, refused) == (80, 690)
    listed, given = SspInstance([3, 5, 7], 11), SspInstance((3, 5, 7), 11)
    assert listed == given and hash(listed) == hash(given)


def test_a_bad_count_family_or_formula_raises_only_package_errors():
    """Each argument of ProductDistribution.uniform, minimum_hitting_set and
    the DNF and CNF compilers is given each bad value in turn. Every pair
    of the family's members overlaps, so a search that tried each element
    of a huge ground set would not end."""
    formula = dict(VALUES)
    calls = ((ProductDistribution.uniform, (3,)),
             (minimum_hitting_set, (((0, 1), (1, 2), (0, 2)), 3)),
             (dnf_to_ensemble, (DnfFormula(*formula[DnfFormula]),)),
             (cnf_to_ensemble, (CnfFormula(*formula[CnfFormula]),)))
    for call, args in calls:
        assert call(*args)
        for where in range(len(args)):
            for value in BAD:
                try:
                    call(*_replace(args, where, _bad(value, args[where])))
                except FpxError:
                    pass


def test_a_bad_size_to_a_generator_raises_a_package_error_before_drawing():
    """Each size argument of the seeded generators and gadget samplers,
    and only those, is given each bad value in turn: each is refused with
    an FpxError, and the random stream is left unread. Sizes of 0 are
    valid where they are (gssp's m, the clique sampler's k) and the calls
    with them draw. HUGE and OVER_LONG are left out: they are valid sizes,
    which would draw 10^30 values or more, not bad ones."""
    bad = tuple(value for value in BAD if value is not HUGE and value is not OVER_LONG)
    calls = ((random_instance_bits, (3,)),
             (random_product_distribution, (3,)),
             (random_perceptron, (3, 4)),
             (random_tree, (3, 4)),
             (random_tree_exact, (4, 3)),
             (random_tree_ensemble, (3, 2, 4)),
             *((lambda rng, n, family=family: generate_model(family, rng, n), (3,))
               for family in ("tree", "tree-ensemble", "perceptron")),
             (sample_ssp, (3,)),
             (sample_kssp, (3,)),
             (sample_kssp_filtered, (3,)),
             (sample_gssp, (2, 2)),
             (sample_gssp, (2, 0)),
             (sample_kgssp_star, (3,)),
             (sample_colored_graph, (2, 2)),
             (sample_colored_graph, (0, 2)))
    fresh = rng_from_seed(0).getstate()
    for call, args in calls:
        rng = rng_from_seed(0)
        call(rng, *args)
        assert rng.getstate() != fresh, (call, args)
        for where in range(len(args)):
            for value in bad:
                rng = rng_from_seed(0)
                with pytest.raises(FpxError):
                    call(rng, *_replace(args, where, _bad(value, args[where])))
                assert rng.getstate() == fresh, (call, where, value)


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
