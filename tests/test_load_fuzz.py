"""Mutation fuzz of the model-document loader.

Each example mutates one field of a valid tree or ensemble document and
loads it with serialize.model_from_doc and with a reference copy of the
per-field loader that reads every node by _int and has no fast path. The two must give the same model, down to the type of every
number, or the same ParseError text; every tree loaded must hold the
walk a fresh copy of it would make.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxplain.errors import InvalidInstanceError, ParseError
from fpxplain.generate import random_tree, random_tree_ensemble, rng_from_seed
from fpxplain.models import (
    DecisionTree, Ensemble, Majority, Perceptron, Weighted, _walk_arena, leaf,
    split, validate_model,
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
        model = DecisionTree(features, tuple(nodes), root)
    elif kind == "perceptron":
        raw = obj.get("weights")
        _require(isinstance(raw, list), "perceptron: weights must be a list")
        weights = tuple(parse_rational(w, "perceptron weight") for w in raw)
        model = Perceptron(weights, parse_rational(obj.get("bias", 0), "perceptron bias"))
    elif kind == "ensemble":
        raw = obj.get("members")
        _require(isinstance(raw, list), "ensemble: members must be a list")
        members = tuple(_reference_model_from_obj(b, check=False) for b in raw)
        for b in members:
            _require(not isinstance(b, Ensemble), "ensemble: members must be flat")
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
        model = Ensemble(members, voting)
    else:
        raise ParseError(f"unknown model kind {kind!r}")
    if check:
        problems = validate_model(model)
        if problems:
            raise ParseError("invalid model: " + "; ".join(problems))
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
    return "ensemble", tuple(_exact(t) for t in m.members), m.voting


def _trees(m):
    return m.members if isinstance(m, Ensemble) else (m,)


_RETYPE = {"bool": lambda v: bool(v) if v in (0, 1) else True, "float": float,
           "int subclass": _Int, "str": str}


def _mutate(doc, how, rng):
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


_MUTATIONS = ("none", *_RETYPE, "nested node", "wrong arity", "unknown tag",
              "unreachable node", "root", "features")


def _load(loader, doc, check):
    try:
        return loader(doc, check)
    except ParseError as exc:
        return exc


def _reference_load(doc, check):
    return _reference_model_from_obj(doc["model"], check)


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
    for check in (True, False):
        want = _load(_reference_load, copy.deepcopy(doc), check)
        got = _load(model_from_doc, doc, check)
        if isinstance(want, ParseError):
            assert isinstance(got, ParseError) and str(got) == str(want)
            continue
        assert not isinstance(got, ParseError), got
        assert _exact(got) == _exact(want)
        for t in _trees(got):
            assert t._arena == _walk_arena(DecisionTree(t.feature_count, t.nodes, t.root))


def test_an_equal_tree_with_a_bool_float_or_int_subclass_keeps_its_problem():
    """True == 1 == 1.0, so a tree equal to a loaded valid one but holding
    True, 1.0 or an int subclass must still be walked on its own."""
    nodes = (leaf(0), leaf(1), split(0, 0, 1))
    doc = model_to_doc(DecisionTree(2, nodes, 2))
    valid = model_from_doc(doc)
    assert validate_model(valid) == []
    for twin, problem in (
            (DecisionTree(2, (leaf(0), leaf(True), split(0, 0, 1)), 2),
             "leaf 1 label True not 0/1"),
            (DecisionTree(2, (leaf(0), leaf(1), split(0, 0, 1.0)), 2),
             "child index 1.0 is not an int"),
            (DecisionTree(2, (leaf(0), leaf(_Int(1)), split(0, 0, 1)), 2),
             "leaf 1 label 1 not 0/1")):
        assert twin == valid
        assert validate_model(twin) == [problem]
        with pytest.raises(InvalidInstanceError, match=problem):
            twin.paths
    doc["model"]["nodes"][1][1] = _Int(1)
    loaded = model_from_doc(doc, check=False)
    assert loaded == valid and loaded is not valid
    assert validate_model(loaded) == ["leaf 1 label 1 not 0/1"]
    with pytest.raises(ParseError, match="leaf 1 label 1 not 0/1"):
        model_from_doc(doc)
