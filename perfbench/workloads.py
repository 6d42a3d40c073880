"""Seeded query streams for the benchmark workloads in spec.json.

A workload is a cycle of rounds. Round r of a run with seed s draws its
models, instances, subsets and distributions from
random.Random("<workload>:<s>:<r>"), so the same seed always yields the
same queries, and warm-up rounds draw from the separate stream
"warmup:<workload>:<s>:<r>" with shrunken sizes, so no timed query can
repeat a warm-up query.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from fpxplain import generate, runner, serialize
from fpxplain.models import Ensemble, Majority, Weighted

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")

SKEWED_PROBS = ("1/8", "1/4", "3/4", "7/8")
VOTE_WEIGHTS = (-3, -2, -1, 1, 2, 3)


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


@dataclass
class Query:
    """One query: a model document plus the CLI-style arguments."""

    qid: int
    round: int
    model_name: str
    model: object
    model_text: str
    kind: str
    instance: str
    subset: str | None
    bound: int | None
    dist: str
    model_path: str | None = None

    @property
    def n(self) -> int:
        return self.model.feature_count

    @property
    def key(self) -> tuple:
        return (self.model_text, self.kind, self.instance, self.subset,
                self.bound, self.dist)

    def cli_args(self) -> list[str]:
        args = ["query", "--model", self.model_path, "--kind", self.kind,
                "--instance", self.instance, "--dist", self.dist]
        if self.subset is not None:
            args += ["--subset", self.subset]
        if self.bound is not None:
            args += ["--bound", str(self.bound)]
        return args


def _tree_ensemble(rng: random.Random, n: int, k: int, m: int, vote: str) -> Ensemble:
    members = tuple(generate.random_tree_exact(rng, n, m) for _ in range(k))
    if vote == "majority":
        return Ensemble(members, Majority())
    weights = tuple(Fraction(rng.choice(VOTE_WEIGHTS), rng.choice((1, 2)))
                    for _ in range(k))
    return Ensemble(members, Weighted(weights, Fraction(rng.randint(-4, 4), 2)))


def _model(rng: random.Random, params: dict, shrink: bool):
    n = 6 if shrink else params["n"]
    if params["family"] == "trees":
        k = min(params["k"], 2) if shrink else params["k"]
        m = 4 if shrink else params["m"]
        return _tree_ensemble(rng, n, k, m, params["vote"])
    weight_bound = 4 if shrink else params["W"]
    return generate.random_perceptron(rng, n, weight_bound)


def _subset_text(rng: random.Random, n: int, how: str, used: set) -> str:
    if how == "empty":
        return ""
    while True:  # distinct subsets per model keep every query distinct
        text = ",".join(str(i) for i in sorted(rng.sample(range(n), n // 2)))
        if text not in used:
            used.add(text)
            return text


def _dist_text(rng: random.Random, n: int, how: str) -> str:
    if how == "uniform":
        return "uniform"
    return ",".join(rng.choice(SKEWED_PROBS) for _ in range(n))


def _query_list(spec: dict, round_spec: dict) -> list[dict]:
    queries = round_spec["queries"]
    return spec["query_lists"][queries] if isinstance(queries, str) else queries


def build_round(spec: dict, workload: str, seed: int, r: int, first_qid: int,
                warmup: bool = False) -> list[Query]:
    """The queries of round r, in the order the round runs them.

    Queries with the same model name and draw number share one drawn model
    (and instance); each draw is a fresh model from the same parameters.
    """
    rounds = spec["workloads"][workload]["rounds"]
    round_spec = rounds[r % len(rounds)]
    stream = f"warmup:{workload}:{seed}:{r}" if warmup else f"{workload}:{seed}:{r}"
    rng = random.Random(stream)
    drawn: dict[str, tuple] = {}
    used: dict[str, set] = {}
    first_subset: dict[str, str] = {}
    out = []
    for item in _query_list(spec, round_spec):
        name = f"{item['model']}{item.get('draw', 0)}"
        if name not in drawn:
            model = _model(rng, round_spec["models"][item["model"]], warmup)
            x = "".join(map(str, generate.random_instance_bits(rng, model.feature_count)))
            drawn[name] = (model, serialize.dumps_model(model), x)
            used[name] = set()
        model, text, x = drawn[name]
        n = model.feature_count
        for _ in range(item.get("repeat", 1)):
            how = item.get("subset")
            if how == "same":
                subset = first_subset[name]
            elif how is None:
                subset = None
            else:
                subset = _subset_text(rng, n, how, used[name])
                first_subset.setdefault(name, subset)
            out.append(Query(
                qid=first_qid + len(out), round=r, model_name=name, model=model,
                model_text=text, kind=item["kind"], instance=x, subset=subset,
                bound=item.get("bound"),
                dist=_dist_text(rng, n, item.get("dist", "uniform"))))
    return out


class QueryStream:
    """The workload's queries in run order, one round at a time.

    Rounds are generated on demand and not kept, so the benchmark process
    holds one round's models at a time.
    """

    def __init__(self, spec: dict, workload: str, seed: int, model_dir: str | None):
        self.spec = spec
        self.workload = workload
        self.seed = seed
        self.model_dir = model_dir
        self.rounds = 0
        self.next_qid = 0

    def next_round(self) -> list[Query]:
        batch = build_round(self.spec, self.workload, self.seed, self.rounds,
                            self.next_qid)
        if self.model_dir is not None:
            write_model_files(batch, self.model_dir, f"r{self.rounds}")
        self.rounds += 1
        self.next_qid += len(batch)
        return batch

    def first(self, count: int) -> list[Query]:
        """The stream's first `count` queries (the check set)."""
        out: list[Query] = []
        while len(out) < count:
            out.extend(self.next_round())
        return out[:count]


def write_model_files(batch: list[Query], model_dir: str, prefix: str):
    paths = {}
    for q in batch:
        path = paths.get(q.model_name)
        if path is None:
            path = os.path.join(model_dir, f"{prefix}-{q.model_name}.json")
            with open(path, "w") as fh:
                fh.write(q.model_text)
            paths[q.model_name] = path
        q.model_path = path


def warmup_queries(spec: dict, workload: str, seed: int) -> list[Query]:
    out: list[Query] = []
    for r in range(spec["warmup_rounds"]):
        out.extend(build_round(spec, workload, seed, r, len(out), warmup=True))
    return out


def run_library(q: Query) -> str:
    """Document text in, canonical payload text out, the way the CLI does it.

    Every package call goes through a module attribute so that the traced
    run's wrappers see it.
    """
    model = serialize.model_from_doc(serialize.loads_json(q.model_text))
    x = serialize.parse_instance(q.instance)
    subset = serialize.parse_subset(q.subset) if q.subset is not None else ()
    dist = serialize.parse_dist_spec(q.dist, model.feature_count)
    payload = runner.run_query(model, q.kind, x, subset=subset, bound=q.bound,
                               dist=dist)
    return serialize.canonical_dumps(payload)
