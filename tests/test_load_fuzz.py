"""Mutation fuzz of the model-document loader.

Each example mutates one field of a valid tree or ensemble document, or
one member or the voting rule of an ensemble, and loads it with
serialize.model_from_doc and with a reference loader. The reference
reads every node by _int, has no fast path, reads the document into
unchecked records and lists their problems with _validate_model, which
checks a whole record at once where the loader asks each constructor.
The two must give the same model, down to the type of every number, or
the same ParseError text and problems; every tree loaded must hold the
walk a fresh copy of it would make.
"""

import copy
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxplain.errors import InvalidInstanceError, ParseError
from fpxplain.generate import random_tree, random_tree_ensemble, rng_from_seed
from fpxplain.models import (
    DecisionTree, Ensemble, Majority, Perceptron, Weighted, _walk_arena, leaf,
    split,
)
from fpxplain.serialize import model_from_doc, model_to_doc, parse_rational


class _Int(int):
    """An int subclass, equal and hashed like its value."""


class _List(list):
    pass


# ---------------------------------------------------------------------------
# the reference loader


def _require(cond, msg):
    if not cond:
        raise ParseError(msg)


def _int(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an int, got {value!r}")
    return value


# unchecked records of the models, which the reference validates
_Tree = namedtuple("_Tree", "feature_count nodes root")
_Perceptron = namedtuple("_Perceptron", "weights bias")
_Ensemble = namedtuple("_Ensemble", "members voting")


def _count(m) -> int:
    return m.feature_count if isinstance(m, _Tree) else len(m.weights)


def _validate_model(m) -> list[str]:
    """Structural diagnostics for an unchecked record; empty means valid.
    Member problems carry a "member j: " prefix."""
    problems: list[str] = []
    if isinstance(m, _Tree):
        problems.extend(_walk_arena(*m)[0])
    elif isinstance(m, _Perceptron):
        _validate_perceptron(m, problems, prefix="")
    elif isinstance(m, _Ensemble):
        if not isinstance(m.members, tuple):
            problems.append(f"members of type {type(m.members).__name__} are not a tuple")
            return problems
        if not m.members:
            problems.append("ensemble has no members")
            return problems
        n = None  # member 0's feature count, once it is a base model
        for j, sub in enumerate(m.members):
            if not isinstance(sub, (_Tree, _Perceptron)):
                problems.append(f"member {j}: unsupported type {type(sub).__name__}")
                continue
            if j == 0:
                n = _count(sub)
            elif n is not None and _count(sub) != n:
                problems.append(
                    f"member {j}: feature count {_count(sub)} differs from member 0 ({n})")
            if isinstance(sub, _Tree):
                problems.extend(f"member {j}: {p}" for p in _walk_arena(*sub)[0])
            else:
                _validate_perceptron(sub, problems, prefix=f"member {j}: ")
        if isinstance(m.voting, Weighted):
            if len(m.voting.weights) != len(m.members):
                problems.append(
                    f"voting has {len(m.voting.weights)} weights for {len(m.members)} members")
        elif not isinstance(m.voting, Majority):
            problems.append(f"unknown voting rule {type(m.voting).__name__}")
    else:
        problems.append(f"unsupported model type {type(m).__name__}")
    return problems


def _validate_perceptron(p, problems, prefix):
    if not p.weights:
        problems.append(prefix + "perceptron has no features")


def _build(m):
    """The model an unchecked record holds; it must build."""
    if isinstance(m, _Tree):
        return DecisionTree(*m)
    if isinstance(m, _Perceptron):
        return Perceptron(*m)
    return Ensemble(tuple(map(_build, m.members)), m.voting)


def _reference_model_from_obj(obj, check=True):
    _require(isinstance(obj, dict), "model must be an object")
    kind = obj.get("kind")
    if kind == "tree":
        features = _int(obj.get("features"), "tree features")
        raw = obj.get("nodes")
        _require(isinstance(raw, list) and raw, "tree: nodes must be a non-empty list")
        nodes = []
        for entry in raw:
            if not (isinstance(entry, list) and entry):
                raise ParseError(f"tree: bad node {entry!r}")
            tag = entry[0]
            if tag == "leaf":
                if len(entry) != 2:
                    raise ParseError(f"tree: bad leaf {entry!r}")
                nodes.append(("leaf", _int(entry[1], "leaf label")))
            elif tag == "split":
                if len(entry) != 4:
                    raise ParseError(f"tree: bad split {entry!r}")
                nodes.append(("split", _int(entry[1], "split feature"),
                              _int(entry[2], "split child"),
                              _int(entry[3], "split child")))
            else:
                raise ParseError(f"tree: unknown node tag {tag!r}")
        root = _int(obj.get("root", 0), "tree root")
        model = _Tree(features, tuple(nodes), root)
    elif kind == "perceptron":
        raw = obj.get("weights")
        _require(isinstance(raw, list), "perceptron: weights must be a list")
        weights = tuple(parse_rational(w, "perceptron weight") for w in raw)
        model = _Perceptron(weights, parse_rational(obj.get("bias", 0), "perceptron bias"))
    elif kind == "ensemble":
        raw = obj.get("members")
        _require(isinstance(raw, list), "ensemble: members must be a list")
        members = tuple(_reference_model_from_obj(b, check=False) for b in raw)
        for b in members:
            _require(not isinstance(b, _Ensemble), "ensemble: members must be flat")
        vobj = obj.get("voting", {"rule": "majority"})
        _require(isinstance(vobj, dict), "ensemble: voting must be an object")
        rule = vobj.get("rule")
        if rule == "majority":
            voting = Majority()
        elif rule == "weighted":
            vw = vobj.get("weights")
            _require(isinstance(vw, list), "weighted voting: weights must be a list")
            voting = Weighted(tuple(parse_rational(w, "vote weight") for w in vw),
                              parse_rational(vobj.get("threshold", 0), "threshold"))
        else:
            raise ParseError(f"ensemble: unknown voting rule {rule!r}")
        model = _Ensemble(members, voting)
    else:
        raise ParseError(f"unknown model kind {kind!r}")
    if check:
        problems = _validate_model(model)
        if problems:
            raise ParseError("invalid model: " + "; ".join(problems), problems=tuple(problems))
        return _build(model)
    return model


# ---------------------------------------------------------------------------
# mutations of one field


def _typed(value):
    """value with the type of every number in it, so that True, 1.0, _Int(1)
    and 1 compare apart."""
    if isinstance(value, (tuple, list)):
        return type(value), tuple(_typed(v) for v in value)
    return type(value), value


def _exact(m):
    if isinstance(m, DecisionTree):
        return "tree", _typed(m.feature_count), _typed(m.nodes), _typed(m.root)
    if isinstance(m, Perceptron):
        return "perceptron", m.weights, m.bias
    return "ensemble", tuple(_exact(t) for t in m.members), m.voting


def _trees(m):
    return [t for t in (m.members if isinstance(m, Ensemble) else (m,))
            if isinstance(t, DecisionTree)]


_RETYPE = {"bool": lambda v: bool(v) if v in (0, 1) else True, "float": float,
           "int subclass": _Int, "str": str}


def _break_member(member, rng):
    """Give a tree member a problem the walk lists: a bad leaf label, a
    child outside the arena, or a feature outside 0..n-1."""
    nodes = member["nodes"]
    splits = [node for node in nodes if node[0] == "split"]
    roll = rng.randrange(3) if splits else 0
    if roll == 0:
        rng.choice([node for node in nodes if node[0] == "leaf"])[1] = rng.choice((2, -1, 7))
    elif roll == 1:
        rng.choice(splits)[2 + rng.randrange(2)] = len(nodes) + rng.randrange(3)
    else:
        rng.choice(splits)[1] = member["features"] + rng.randrange(3)


def _mutate_ensemble(doc, how, rng):
    """Mutate a member or the voting rule; a tree becomes an ensemble of it."""
    obj = doc["model"]
    if obj["kind"] != "ensemble":
        obj = doc["model"] = {"kind": "ensemble", "members": [obj]}
    members = obj["members"]
    j = rng.randrange(len(members))
    if how == "perceptron without weights":
        members.insert(j, {"kind": "perceptron", "weights": [], "bias": "0"})
    elif how == "vote count off by one":
        k = len(members) + rng.choice((-1, 1))
        obj["voting"] = {"rule": "weighted", "weights": ["1"] * k, "threshold": "1"}
    elif how == "two invalid members":
        if len(members) == 1:
            members.append(copy.deepcopy(members[0]))
        for member in rng.sample(members, 2):
            _break_member(member, rng)
    elif how == "nested ensemble":
        if rng.random() < 0.5:
            _break_member(members[j], rng)
        members[j] = {"kind": "ensemble", "members": [members[j]]}
    else:  # "feature count lowered"
        members[j]["features"] -= 1


def _mutate(doc, how, rng):
    if how in _ENSEMBLE_MUTATIONS:
        _mutate_ensemble(doc, how, rng)
        return
    obj = doc["model"]
    if obj["kind"] == "ensemble":
        obj = rng.choice(obj["members"])
    nodes = obj["nodes"]
    i = rng.randrange(len(nodes))
    node = nodes[i]
    if how in _RETYPE:
        j = rng.randrange(1, len(node))
        node[j] = _RETYPE[how](node[j])
    elif how == "nested node":
        nodes[i] = rng.choice(([node], _List(node), tuple(node), {}, []))
    elif how == "wrong arity":
        nodes[i] = node[:-1] if rng.random() < 0.5 else node + [0]
    elif how == "unknown tag":
        node[0] = rng.choice(("Leaf", "node", "", 0, None))
    elif how == "unreachable node":
        nodes.append(rng.choice((["leaf", 5], ["split", 99, 0, 0], ["leaf", True],
                                 ["split", 0, 1.0, 0], ["leaf"], ["fork", 0])))
    else:  # "root" or "features"
        obj[how] = _RETYPE[rng.choice(tuple(_RETYPE))](obj.get(how, 0))


_ENSEMBLE_MUTATIONS = ("perceptron without weights", "vote count off by one",
                       "two invalid members", "nested ensemble", "feature count lowered")
_MUTATIONS = ("none", *_RETYPE, "nested node", "wrong arity", "unknown tag",
              "unreachable node", "root", "features", *_ENSEMBLE_MUTATIONS)


def _load(loader, doc):
    try:
        return loader(doc)
    except ParseError as exc:
        return exc


def _reference_load(doc):
    return _reference_model_from_obj(doc["model"])


@settings(deadline=None, max_examples=400, derandomize=True)
@given(st.integers(0, 63), st.sampled_from(_MUTATIONS), st.integers(0, 2**30))
def test_mutated_documents_load_as_the_reference_loader_does(seed, how, where):
    """The documents come from 64 seeds, so each recurs under several
    mutations, and a mutated one is loaded after its valid twin."""
    rng = rng_from_seed(seed)
    n = rng.randint(1, 5)
    model = random_tree(rng, n, 6) if seed % 2 else \
        random_tree_ensemble(rng, n, rng.randint(1, 3), 6)
    doc = model_to_doc(model)
    if how != "none":
        _mutate(doc, how, rng_from_seed(where))
    want = _load(_reference_load, copy.deepcopy(doc))
    got = _load(model_from_doc, doc)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError) and str(got) == str(want)
        assert got.problems == want.problems
        return
    assert not isinstance(got, ParseError), got
    assert _exact(got) == _exact(want)
    for t in _trees(got):
        assert _walk_arena(t.feature_count, t.nodes, t.root) == ((), t.paths)


def test_an_equal_tree_with_a_bool_float_or_int_subclass_keeps_its_problem():
    """True == 1 == 1.0, so a tree equal to a loaded valid one but holding
    True, 1.0 or an int subclass must still be walked on its own: it
    raises at construction, after its valid twin was loaded."""
    nodes = (leaf(0), leaf(1), split(0, 0, 1))
    doc = model_to_doc(DecisionTree(2, nodes, 2))
    valid = model_from_doc(doc)
    for twin, problem in (
            ((leaf(0), leaf(True), split(0, 0, 1)), "leaf 1 label True not 0/1"),
            ((leaf(0), leaf(1), split(0, 0, 1.0)), "child index 1.0 is not an int"),
            ((leaf(0), leaf(_Int(1)), split(0, 0, 1)), "leaf 1 label 1 not 0/1")):
        assert twin == valid.nodes
        with pytest.raises(InvalidInstanceError) as err:
            DecisionTree(2, twin, 2)
        assert err.value.problems == (problem,)
    doc["model"]["nodes"][1][1] = _Int(1)
    with pytest.raises(ParseError, match="leaf 1 label 1 not 0/1") as err:
        model_from_doc(doc)
    assert err.value.problems == ("leaf 1 label 1 not 0/1",)
