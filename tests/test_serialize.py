"""Document round-trips, canonical bytes, parse errors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxplain.errors import ParseError
from fpxplain.gadgets import ColoredGraph, SspInstance, ssp_csr_gadget
from fpxplain.generate import (
    random_perceptron, random_tree, random_tree_ensemble, rng_from_seed,
)
from fpxplain.models import Perceptron, ProductDistribution
from fpxplain.serialize import (
    canonical_dumps, cnf_to_text, dnf_to_text, dumps_bundle, dumps_model,
    graph_to_text, loads_bundle, loads_json, loads_model, model_from_doc,
    parse_cnf_text, parse_dist_spec, parse_dnf_text, parse_graph_text,
    parse_instance, parse_rational, parse_subset, rational_str,
)

F = Fraction


def test_rational_codec():
    assert rational_str(F(3, 4)) == "3/4"
    assert rational_str(F(-2)) == "-2"
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(5) == F(5)
    with pytest.raises(ParseError):
        parse_rational(0.5)
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational(True)
    # only an optional sign, ASCII digits and an optional /digits
    for text, value in (("-3/4", F(-3, 4)), ("+6/4", F(3, 2)), (" 1/2\n", F(1, 2))):
        assert parse_rational(text) == value
    for text in ("1e5000", "0.5", ".5", "1_000", "1/-2", "- 1", "1 / 2", "",
                 "\u0663", "inf", "nan", "1/2/3"):
        with pytest.raises(ParseError):
            parse_rational(text)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**30))
def test_model_roundtrip(seed):
    rng = rng_from_seed(seed)
    n = rng.randint(1, 7)
    pick = seed % 3
    if pick == 0:
        m = random_tree(rng, n, 8)
    elif pick == 1:
        m = random_perceptron(rng, n, 8)
    else:
        m = random_tree_ensemble(rng, n, rng.randint(1, 4), 6)
    text = dumps_model(m)
    assert loads_model(text) == m
    # canonical form is stable under a second pass
    assert dumps_model(loads_model(text)) == text


def test_bundle_roundtrip():
    g = ssp_csr_gadget(SspInstance((2, 4, 5), 7))
    g.info["source_answer"] = True
    text = dumps_bundle(g)
    back = loads_bundle(text)
    assert (back.kind, back.model, back.x, back.subset, back.bound) == \
        (g.kind, g.model, g.x, g.subset, g.bound)
    assert back.info["source_answer"] is True


def test_json_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        loads_json('{\n  "format": oops\n}')
    assert "line 2" in str(err.value)


def test_model_doc_validation_errors():
    with pytest.raises(ParseError):
        loads_model('{"format": "wrong", "version": 1, "model": {}}')
    with pytest.raises(ParseError):
        loads_model('{"format": "fpxplain-model", "version": 9, "model": {}}')
    with pytest.raises(ParseError):
        model_from_doc({"format": "fpxplain-model", "version": 1,
                        "model": {"kind": "nope"}})
    # float weights are rejected, not silently accepted
    with pytest.raises(ParseError):
        model_from_doc({"format": "fpxplain-model", "version": 1,
                        "model": {"kind": "perceptron", "weights": [0.5],
                                  "bias": "0"}})
    # semantic invariant: read-once violation surfaces as a parse error
    bad = {"format": "fpxplain-model", "version": 1,
           "model": {"kind": "tree", "features": 1, "root": 0,
                     "nodes": [["split", 0, 1, 1], ["leaf", 1]]}}
    with pytest.raises(ParseError):
        model_from_doc(bad)
    # but an unchecked parse hands back the object for diagnostics
    m = model_from_doc(bad, check=False)
    assert m.feature_count == 1


def test_parse_instance_and_subset():
    assert parse_instance("0110") == (0, 1, 1, 0)
    with pytest.raises(ParseError):
        parse_instance("01x0")
    with pytest.raises(ParseError):
        parse_instance("")
    assert parse_subset("") == ()
    assert parse_subset("3, 1,1") == (1, 3)
    with pytest.raises(ParseError):
        parse_subset("1,a")


def test_parse_dist_spec():
    assert parse_dist_spec("uniform", 3) == ProductDistribution.uniform(3)
    d = parse_dist_spec("1/4, 1", 2)
    assert d.probs == (F(1, 4), F(1))
    with pytest.raises(ParseError):
        parse_dist_spec("1/4", 2)


def test_formula_text_roundtrip_and_errors():
    f = parse_dnf_text("# a comment\nfeatures 3\nx0 !x2\nx1\n")
    assert f.feature_count == 3
    assert f.terms == (((0, 1), (2, 0)), ((1, 1),))
    assert dnf_to_text(f) == "features 3\nx0 !x2\nx1\n"
    c = parse_cnf_text("features 2\nx0 !x1\n")
    assert cnf_to_text(c) == "features 2\nx0 !x1\n"
    with pytest.raises(ParseError) as err:
        parse_dnf_text("features 2\nx0 x5\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_dnf_text("x0 x1\n")  # missing header
    with pytest.raises(ParseError):
        parse_dnf_text("features 2\nx0 !x0\n")  # contradiction
    with pytest.raises(ParseError):
        parse_dnf_text("")


def test_graph_text_roundtrip_and_errors():
    g = parse_graph_text("v 0 0\nv 1 1\ne 0 1  # cross edge\n")
    assert g == ColoredGraph((0, 1), frozenset({(0, 1)}))
    assert graph_to_text(g) == "v 0 0\nv 1 1\ne 0 1\n"
    with pytest.raises(ParseError):
        parse_graph_text("v 0 0\nv 0 1\n")  # duplicate vertex
    with pytest.raises(ParseError):
        parse_graph_text("v 0 0\ne 0 3\n")  # unknown endpoint
    with pytest.raises(ParseError):
        parse_graph_text("v 1 0\n")  # ids must be 0..n-1
    with pytest.raises(ParseError):
        parse_graph_text("v 0 0\ne 0 0\n")  # self loop
    with pytest.raises(ParseError):
        parse_graph_text("v 0 0\nv 1 2\n")  # color gap


def test_canonical_dumps_sorted_compact():
    assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'