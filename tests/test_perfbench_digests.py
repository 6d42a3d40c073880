"""The payload bytes of every benchmark workload are pinned: the check-set
digests recomputed here, in-process, through perfbench's own query streams
and digest, equal those recorded in perfbench/digests.json. A change that
moves one payload byte fails here, not only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = ("104729", "1")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # registered first: workloads defines a dataclass
    return module


def test_check_set_digests_match_the_recorded_ones():
    workloads, checks = _load("workloads"), _load("checks")
    spec = workloads.load_spec()
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    names = sorted(spec["workloads"])
    assert names == ["cli", "decide-count", "shap-perceptron", "shap-trees"]
    got, want = {}, {}
    for name in names:
        size = spec["workloads"][name]["check_queries"]
        for seed in SEEDS:
            stream = workloads.QueryStream(spec, name, int(seed), None)
            got[name, seed] = checks.digest(workloads.run_library(q) for q in stream.first(size))
            want[name, seed] = recorded[name][seed]
    assert got == want
