"""Reading and writing models, instances, formulas and graphs.

Model documents are JSON with a format marker:

    {"format": "fpxplain-model", "version": 1, "model": {...}}

where the model object is one of

    {"kind": "tree", "features": n, "root": i,
     "nodes": [["leaf", 0], ["split", f, c0, c1], ...]}
    {"kind": "perceptron", "weights": ["1/2", "-3", ...], "bias": "-7/2"}
    {"kind": "ensemble", "members": [...],
     "voting": {"rule": "majority"}
             | {"rule": "weighted", "weights": [...], "threshold": "p/q"}}

Rationals are written as strings in p/q form (or bare integers as
strings). Gadget output uses a bundle document that carries a model plus
the query parameters.

Formulas and graphs use small line-oriented text formats; see
parse_dnf_text and parse_graph_text.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InvalidInstanceError, ParseError
from .models import (
    LEAF, SPLIT, DecisionTree, Ensemble, Majority, Perceptron,
    ProductDistribution, Weighted, ensemble_problems, invalid_model,
)

# Gadgets and formulas are imported by the functions that build them, so
# reading a model and a query loads neither module.

MODEL_FORMAT = "fpxplain-model"
BUNDLE_FORMAT = "fpxplain-bundle"
FORMAT_VERSION = 1


def rational_str(value) -> str:
    return str(Fraction(value))


# "p/q" or "p" in ASCII digits, optionally signed, surrounding whitespace
# allowed; Fraction alone would also take decimals and exponents ("1e5000")
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(value, what: str = "rational") -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{what}: expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f"{what}: floats are not accepted, write '{value}' as p/q")
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ParseError(f"{what}: expected 'p/q' or 'p', got {value!r}")
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{what}: cannot parse {value!r} ({exc})") from None
    raise ParseError(f"{what}: expected a rational, got {type(value).__name__}")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# model documents


def model_to_obj(m) -> dict:
    if isinstance(m, DecisionTree):
        nodes = []
        for node in m.nodes:
            if node[0] == "leaf":
                nodes.append(["leaf", node[1]])
            else:
                nodes.append(["split", node[1], node[2], node[3]])
        return {"kind": "tree", "features": m.feature_count,
                "nodes": nodes, "root": m.root}
    if isinstance(m, Perceptron):
        return {"kind": "perceptron",
                "weights": [rational_str(w) for w in m.weights],
                "bias": rational_str(m.bias)}
    if isinstance(m, Ensemble):
        if isinstance(m.voting, Majority):
            voting = {"rule": "majority"}
        else:
            voting = {"rule": "weighted",
                      "weights": [rational_str(w) for w in m.voting.weights],
                      "threshold": rational_str(m.voting.threshold)}
        return {"kind": "ensemble",
                "members": [model_to_obj(b) for b in m.members],
                "voting": voting}
    raise ParseError(f"cannot serialize {type(m).__name__}")


def model_to_doc(m) -> dict:
    return {"format": MODEL_FORMAT, "version": FORMAT_VERSION,
            "model": model_to_obj(m)}


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an int, got {value!r}")
    return value


def _node(entry) -> tuple:
    """The node tuple of a row that is not a list of exact ints; raises
    ParseError naming the first bad field, and accepts int subclasses."""
    if not (isinstance(entry, list) and entry):
        raise ParseError(f"tree: bad node {entry!r}")
    tag = entry[0]
    if tag == LEAF:
        if len(entry) != 2:
            raise ParseError(f"tree: bad leaf {entry!r}")
        return LEAF, _int(entry[1], "leaf label")
    if tag == SPLIT:
        if len(entry) != 4:
            raise ParseError(f"tree: bad split {entry!r}")
        return (SPLIT, _int(entry[1], "split feature"), _int(entry[2], "split child"),
                _int(entry[3], "split child"))
    raise ParseError(f"tree: unknown node tag {tag!r}")


def model_from_obj(obj) -> DecisionTree | Perceptron | Ensemble:
    """Build a model from the JSON object.

    Structural problems (wrong shapes, unknown tags, bad rationals) raise
    ParseError naming the first. Broken invariants, which the model
    constructors check, raise ParseError("invalid model: ...") listing in
    problems those of every member, in member order. The document is read
    in one pass and each member built once. A tree node that is a list of
    its tag and exact ints is taken by one test; any other node goes
    through _node, which formats the message of the first bad field.
    """
    try:
        return _model_from_obj(obj)
    except InvalidInstanceError as exc:
        raise ParseError(str(exc), problems=exc.problems) from None


def _model_from_obj(obj) -> DecisionTree | Perceptron | Ensemble:
    _require(isinstance(obj, dict), "model must be an object")
    kind = obj.get("kind")
    if kind == "tree":
        features = _int(obj.get("features"), "tree features")
        raw = obj.get("nodes")
        _require(isinstance(raw, list) and raw, "tree: nodes must be a non-empty list")
        nodes = []
        for entry in raw:
            if type(entry) is list:
                size = len(entry)
                if size == 4 and entry[0] == SPLIT:
                    _, feat, c0, c1 = entry
                    if type(feat) is int and type(c0) is int and type(c1) is int:
                        nodes.append((SPLIT, feat, c0, c1))
                        continue
                elif size == 2 and entry[0] == LEAF and type(entry[1]) is int:
                    nodes.append((LEAF, entry[1]))
                    continue
            nodes.append(_node(entry))
        root = _int(obj.get("root", 0), "tree root")
        return DecisionTree(features, tuple(nodes), root)
    if kind == "perceptron":
        raw = obj.get("weights")
        _require(isinstance(raw, list), "perceptron: weights must be a list")
        weights = tuple(parse_rational(w, "perceptron weight") for w in raw)
        return Perceptron(weights, parse_rational(obj.get("bias", 0), "perceptron bias"))
    if kind != "ensemble":
        raise ParseError(f"unknown model kind {kind!r}")
    raw = obj.get("members")
    _require(isinstance(raw, list), "ensemble: members must be a list")
    members, unbuilt = [], {}
    for j, b in enumerate(raw):
        try:
            members.append(_model_from_obj(b))
        except InvalidInstanceError as exc:  # listed after the structural checks
            members.append(None)
            # the feature count the document gives (a nested ensemble is refused below)
            count = b["features"] if b["kind"] == "tree" else len(b.get("weights", ()))
            unbuilt[j] = (count, exc.problems)
    _require(all(b["kind"] != "ensemble" for b in raw), "ensemble: members must be flat")
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
    if unbuilt:
        raise invalid_model(ensemble_problems(tuple(members), voting, unbuilt))
    return Ensemble(tuple(members), voting)


def model_from_doc(doc) -> DecisionTree | Perceptron | Ensemble:
    _require(isinstance(doc, dict), "document must be a JSON object")
    _require(doc.get("format") == MODEL_FORMAT,
             f"format must be {MODEL_FORMAT!r}, got {doc.get('format')!r}")
    _require(doc.get("version") == FORMAT_VERSION,
             f"unsupported version {doc.get('version')!r}")
    return model_from_obj(doc.get("model"))


def loads_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    except RecursionError:
        raise ParseError("document nested too deeply to decode") from None
    except ValueError as exc:  # an integer literal over the int digit limit
        raise ParseError(f"cannot decode document: {exc}") from None


def dumps_model(m) -> str:
    return canonical_dumps(model_to_doc(m))


def loads_model(text: str):
    return model_from_doc(loads_json(text))


# ---------------------------------------------------------------------------
# bundles (model + query, as produced by the gadget builders)


def bundle_to_doc(g: QueryGadget) -> dict:
    doc = {"format": BUNDLE_FORMAT, "version": FORMAT_VERSION,
           "query": g.kind, "model": model_to_obj(g.model),
           "instance": "".join(str(b) for b in g.x), "info": g.info}
    if g.subset is not None:
        doc["subset"] = list(g.subset)
    if g.bound is not None:
        doc["bound"] = g.bound
    return doc


def bundle_from_doc(doc) -> QueryGadget:
    from .gadgets import QueryGadget

    _require(isinstance(doc, dict), "document must be a JSON object")
    _require(doc.get("format") == BUNDLE_FORMAT,
             f"format must be {BUNDLE_FORMAT!r}, got {doc.get('format')!r}")
    _require(doc.get("version") == FORMAT_VERSION,
             f"unsupported version {doc.get('version')!r}")
    _require(doc.get("query") in ("csr", "mcr", "msr"),
             f"unknown query kind {doc.get('query')!r}")
    model = model_from_obj(doc.get("model"))
    _require(not isinstance(model, (DecisionTree, Perceptron)),
             "bundle model must be an ensemble")
    instance = doc.get("instance", "")
    _require(isinstance(instance, str),
             f"instance must be a string of 0/1, got a {type(instance).__name__}")
    x = parse_instance(instance)
    subset = doc.get("subset")
    if subset is not None:
        _require(isinstance(subset, list) and all(isinstance(i, int) for i in subset),
                 "subset must be a list of ints")
        subset = tuple(subset)
    bound = doc.get("bound")
    if bound is not None:
        _require(isinstance(bound, int), "bound must be an int")
    info = doc.get("info", {})
    _require(isinstance(info, dict), "info must be an object")
    return QueryGadget(doc["query"], model, x, subset=subset, bound=bound, info=info)


def dumps_bundle(g: QueryGadget) -> str:
    return canonical_dumps(bundle_to_doc(g))


def loads_bundle(text: str) -> QueryGadget:
    return bundle_from_doc(loads_json(text))


# ---------------------------------------------------------------------------
# instances, subsets, distributions (CLI argument helpers)


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def parse_instance(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text.strip("01"):
        raise ParseError(f"instance must be a non-empty string of 0/1, got {text!r}")
    return tuple(text.encode().translate(_BITS))


def parse_subset(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            raise ParseError(f"subset entries must be ints, got {part!r}") from None
    return tuple(sorted(set(out)))


def parse_dist_spec(spec: str, n: int) -> ProductDistribution:
    spec = spec.strip()
    if spec == "uniform":
        return ProductDistribution.uniform(n)
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != n:
        raise ParseError(f"distribution needs {n} probabilities, got {len(parts)}")
    probs = tuple(parse_rational(p, "probability") for p in parts)
    for i, p in enumerate(probs):
        if not 0 <= p.numerator <= p.denominator:  # the denominator is positive
            raise ParseError(f"probability of feature {i} is {p}, outside [0, 1]")
    return ProductDistribution(probs)


# ---------------------------------------------------------------------------
# formula text format


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_literal(token: str, n: int, lineno: int) -> tuple[int, int]:
    body, value = (token[1:], 0) if token.startswith("!") else (token, 1)
    if not body.startswith("x") or not body[1:].isdigit():
        raise ParseError(f"bad literal {token!r}", line=lineno)
    feature = int(body[1:])
    if feature >= n:
        raise ParseError(f"feature x{feature} outside 0..{n - 1}", line=lineno)
    return feature, value


def _parse_formula_text(text: str) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty formula file: expected a 'features N' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "features" or not parts[1].isdigit():
        raise ParseError(f"expected 'features N' header, got {header!r}", line=lineno)
    n = int(parts[1])
    terms = []
    for lineno, line in lines[1:]:
        literals = tuple(_parse_literal(tok, n, lineno) for tok in line.split())
        seen: dict[int, int] = {}
        for feature, value in literals:
            if seen.setdefault(feature, value) != value:
                raise ParseError(f"contradictory literals on x{feature}", line=lineno)
        dedup = tuple(sorted(seen.items()))
        terms.append(dedup)
    return n, terms


def parse_dnf_text(text: str) -> DnfFormula:
    from .transforms import DnfFormula

    n, terms = _parse_formula_text(text)
    return DnfFormula(n, tuple(terms))


def parse_cnf_text(text: str) -> CnfFormula:
    from .transforms import CnfFormula

    n, clauses = _parse_formula_text(text)
    return CnfFormula(n, tuple(clauses))


def dnf_to_text(formula: DnfFormula) -> str:
    return _formula_to_text(formula.feature_count, formula.terms)


def cnf_to_text(formula: CnfFormula) -> str:
    return _formula_to_text(formula.feature_count, formula.clauses)


def _formula_to_text(n: int, groups) -> str:
    lines = [f"features {n}"]
    for group in groups:
        lines.append(" ".join(f"x{i}" if v else f"!x{i}" for i, v in group))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# colored graph text format


def parse_graph_text(text: str) -> ColoredGraph:
    """Lines are 'v <id> <color>' or 'e <a> <b>'; '#' starts a comment.

    Vertex ids must be 0..n-1 (any order); edges must reference declared
    vertices.
    """
    from .gadgets import ColoredGraph

    colors: dict[int, int] = {}
    edge_lines: list[tuple[int, int, int]] = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "v" and len(parts) == 3:
            try:
                vid, color = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"bad vertex line {line!r}", line=lineno) from None
            if vid in colors:
                raise ParseError(f"duplicate vertex {vid}", line=lineno)
            if color < 0:
                raise ParseError(f"negative color {color}", line=lineno)
            colors[vid] = color
        elif parts[0] == "e" and len(parts) == 3:
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"bad edge line {line!r}", line=lineno) from None
            if a == b:
                raise ParseError(f"self-loop on {a}", line=lineno)
            edge_lines.append((lineno, min(a, b), max(a, b)))
        else:
            raise ParseError(f"expected 'v <id> <color>' or 'e <a> <b>', got {line!r}",
                             line=lineno)
    n = len(colors)
    if sorted(colors) != list(range(n)):
        raise ParseError("vertex ids must be exactly 0..n-1")
    for lineno, a, b in edge_lines:
        if b >= n:
            raise ParseError(f"edge ({a}, {b}) references unknown vertex", line=lineno)
    try:
        return ColoredGraph(tuple(colors[v] for v in range(n)),
                            frozenset((a, b) for _, a, b in edge_lines))
    except Exception as exc:
        raise ParseError(str(exc)) from None


def graph_to_text(g: ColoredGraph) -> str:
    lines = [f"v {v} {c}" for v, c in enumerate(g.colors)]
    lines += [f"e {a} {b}" for a, b in sorted(g.edges)]
    return "\n".join(lines) + "\n"
