"""Timing harness with deterministic instance streams.

Each suite yields a fixed sequence of (meta, model, query) work items
from a seed; run_bench times them and emits rows ready for CSV. Payload
digests let two runs be compared for identical answers regardless of
timing jitter.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import time
from fractions import Fraction

from . import oracle
from .errors import InvalidInstanceError
from .gadgets import ssp_csr_gadget
from .generate import random_instance_bits, random_tree_exact, sample_ssp
from .models import Ensemble, Majority, Perceptron
from .runner import run_query
from .serialize import canonical_dumps

CSV_COLUMNS = ("suite", "n", "k", "m", "W", "query", "algorithm",
               "wall_seconds", "answer_digest")


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()[:16]


def bench_instances(suite: str, seed: int):
    """Yield (meta, model, kind, kwargs, policy) deterministically.

    policy is 'adaptive' (repeat until 50ms of samples, report the mean)
    or 'best3' (three cold runs, report the fastest).
    """
    rng = random.Random(f"fpxplain-bench:{suite}:{seed}")
    # cc with an empty subset scans every joint leaf choice, so the
    # timing actually exercises the m^k tuple space
    if suite == "scaling-m":
        n, k = 30, 2
        for m in (4, 8, 16, 32):
            members = tuple(random_tree_exact(rng, n, m) for _ in range(k))
            model = Ensemble(members, Majority())
            x = random_instance_bits(rng, n)
            yield ({"n": n, "k": k, "m": m, "W": ""}, model, "cc",
                   {"x": x, "subset": (), "algorithm": "fpt"}, "adaptive")
    elif suite == "scaling-k":
        n, m = 16, 8
        for k in (1, 2, 3, 4):
            members = tuple(random_tree_exact(rng, n, m) for _ in range(k))
            model = Ensemble(members, Majority())
            x = random_instance_bits(rng, n)
            yield ({"n": n, "k": k, "m": m, "W": ""}, model, "cc",
                   {"x": x, "subset": (), "algorithm": "fpt"}, "adaptive")
    elif suite == "pseudopoly-w":
        n = 16
        subset = tuple(range(0, n, 2))
        for w_bound in (8, 64, 512):
            weights = tuple(Fraction(rng.randint(-w_bound, w_bound))
                            for _ in range(n))
            model = Perceptron(weights, Fraction(rng.randint(-4 * w_bound,
                                                             4 * w_bound)))
            x = random_instance_bits(rng, n)
            yield ({"n": n, "k": "", "m": "", "W": w_bound}, model, "cc",
                   {"x": x, "subset": subset, "algorithm": "pseudopoly"},
                   "adaptive")
    elif suite == "oracle-doubling":
        for n in (16, 18, 20):
            inst = sample_ssp(rng, n)
            gadget = ssp_csr_gadget(inst)
            yield ({"n": n, "k": 2, "m": "", "W": ""}, gadget.model, "cc",
                   {"x": gadget.x, "subset": (), "algorithm": "oracle"},
                   "best3")
    else:
        raise InvalidInstanceError(f"unknown bench suite {suite!r}")


def _time_adaptive(fn, min_total: float = 0.05, max_runs: int = 4096):
    total, runs, result = 0.0, 0, None
    while total < min_total and runs < max_runs:
        t0 = time.perf_counter()
        result = fn()
        total += time.perf_counter() - t0
        runs += 1
    return result, total / runs


def _time_best(fn, count: int = 3):
    best, result = None, None
    for _ in range(count):
        oracle.clear_caches()
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def run_bench(suite: str, seed: int, budget_seconds: float = 300.0) -> list[dict]:
    rows = []
    started = time.perf_counter()
    for meta, model, kind, kwargs, policy in bench_instances(suite, seed):
        if time.perf_counter() - started > budget_seconds:
            rows.append({"suite": suite, "n": "", "k": "", "m": "", "W": "",
                         "query": kind, "algorithm": "truncated",
                         "wall_seconds": "", "answer_digest": ""})
            break
        x = kwargs.pop("x")
        call = lambda: run_query(model, kind, x, **kwargs)  # noqa: E731
        if policy == "best3":
            payload, seconds = _time_best(call)
        else:
            payload, seconds = _time_adaptive(call)
        rows.append({"suite": suite, **meta, "query": kind,
                     "algorithm": payload["algorithm"],
                     "wall_seconds": f"{seconds:.6f}",
                     "answer_digest": payload_digest(payload)})
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
