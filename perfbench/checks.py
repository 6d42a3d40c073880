"""Answer checks, run outside the timed phase.

check_answers returns the ids of the queries whose payloads fail a
check, with a reason each:

* every payload parses and answers the query it was asked;
* shap payloads satisfy efficiency: sum(values) = total = prediction - expected;
* mcr and msr witnesses do what they claim, and answer = (size <= bound);
* enumerate-contrastive counts its candidates, each of which flips f(x),
  and the smallest agrees with mcr on the same model;
* csr on S answers yes exactly when cc on the same S is 1;
* cc on the empty subset equals expect under the uniform distribution
  (or its complement when f(x) = 0);
* queries whose feature count is under the oracle caps equal their
  oracle_* twin on every field but the route labels.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from fpxplain import _config, perceptron, runner, serialize, trees
from fpxplain.models import Perceptron, eval_model

ROUTE_FIELDS = ("algorithm", "method", "warnings")


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _flipped(x: str, features) -> tuple[int, ...]:
    bits = [int(c) for c in x]
    for i in features:
        bits[i] ^= 1
    return tuple(bits)


def _is_sufficient(q, witness) -> bool:
    x = serialize.parse_instance(q.instance)
    if isinstance(q.model, Perceptron):
        return perceptron.csr_perceptron(q.model, x, witness)
    return trees.csr_tree_ensemble(q.model, x, witness)


def _oracle_applies(q) -> bool:
    if q.kind == "enumerate-contrastive":
        return False
    cap = _config.shap_oracle_cap() if q.kind == "shap" else _config.oracle_cap()
    return q.n <= cap


def _oracle_payload(q) -> dict:
    x = serialize.parse_instance(q.instance)
    subset = serialize.parse_subset(q.subset) if q.subset is not None else ()
    dist = serialize.parse_dist_spec(q.dist, q.n)
    payload = runner.run_query(q.model, q.kind, x, subset=subset, bound=q.bound,
                               dist=dist, algorithm="oracle")
    return {k: v for k, v in payload.items() if k not in ROUTE_FIELDS}


def _own_problem(q, p: dict) -> str | None:
    """What is wrong with one payload on its own, or None."""
    if p.get("query") != q.kind or p.get("features") != q.n:
        return "payload does not answer the query"
    x = serialize.parse_instance(q.instance)
    if p["prediction"] != eval_model(q.model, x):
        return "wrong prediction"
    if q.kind == "shap":
        total = Fraction(p["total"])
        if sum((Fraction(v) for v in p["values"]), Fraction(0)) != total:
            return "shap values do not add up to total"
        if total != p["prediction"] - Fraction(p["expected"]):
            return "efficiency identity fails"
    elif q.kind in ("mcr", "msr"):
        size, witness = p["size"], p["witness"]
        if p["answer"] != (size is not None and size <= q.bound):
            return f"{q.kind} answer disagrees with its size"
        if size is not None and len(witness) != size:
            return f"{q.kind} witness has the wrong size"
        if q.kind == "mcr" and size is not None and \
                eval_model(q.model, _flipped(q.instance, witness)) == p["prediction"]:
            return "mcr witness does not flip the prediction"
        if q.kind == "msr" and not _is_sufficient(q, witness):
            return "msr witness is not sufficient"
    elif q.kind == "enumerate-contrastive":
        cands = p["candidates"]
        if p["count"] != len(cands):
            return "candidate count disagrees with the list"
        for c in cands:
            if eval_model(q.model, _flipped(q.instance, c)) == p["prediction"]:
                return "a candidate does not flip the prediction"
    return None


def _cross_problems(pairs) -> list[tuple[int, str]]:
    """Identities between queries on the same model in the same round."""
    groups: dict[tuple, list] = {}
    for q, p in pairs:
        groups.setdefault((q.round, q.model_name), []).append((q, p))
    out = []
    for items in groups.values():
        cc = {q.subset: (q, p) for q, p in items if q.kind == "cc"}
        for q, p in items:
            if q.kind == "csr" and q.subset in cc:
                q2, p2 = cc[q.subset]
                if p["answer"] != (p2["answer"] == "1"):
                    out.append((q.qid, "csr disagrees with cc on the same subset"))
            if q.kind == "expect" and q.dist == "uniform" and "" in cc:
                q2, p2 = cc[""]
                kept = Fraction(p["answer"])
                if p2["prediction"] == 0:
                    kept = 1 - kept
                if Fraction(p2["answer"]) != kept:
                    out.append((q.qid, "expect disagrees with cc on the empty subset"))
            if q.kind == "enumerate-contrastive":
                for q2, p2 in items:
                    if q2.kind == "mcr":
                        smallest = len(p["candidates"][0]) if p["candidates"] else None
                        if p2["size"] != smallest:
                            out.append((q2.qid, "mcr disagrees with the candidate family"))
    return out


def check_answers(queries, texts) -> tuple[dict[int, str], int]:
    """({qid: reason} for every failed query, number of oracle comparisons)."""
    failures: dict[int, str] = {}
    pairs = []
    oracle_checked = 0
    for q, text in zip(queries, texts):
        if text is None:
            continue  # already counted as failed when it ran
        try:
            p = json.loads(text)
            problem = _own_problem(q, p)
            if problem is None and _oracle_applies(q):
                oracle_checked += 1
                mine = {k: v for k, v in p.items() if k not in ROUTE_FIELDS}
                if mine != _oracle_payload(q):
                    problem = "differs from the oracle twin"
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"malformed payload: {exc!r}"
        if problem is None:
            pairs.append((q, p))
        else:
            failures[q.qid] = problem
    for qid, problem in _cross_problems(pairs):
        failures.setdefault(qid, problem)
    return failures, oracle_checked


def key_digest(q) -> bytes:
    """Identity of a query for the cache-hygiene self-test: two queries with
    the same key would hit the package's lru caches."""
    return hashlib.sha1(repr(q.key).encode()).digest()
