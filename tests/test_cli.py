"""Command line interface: exit codes, document flow, option handling."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpxplain
from fpxplain.errors import FpxError
from fpxplain.generate import generate_model, random_instance_bits, rng_from_seed
from fpxplain.models import (
    DecisionTree, Perceptron, ProductDistribution, leaf, majority_ensemble, split,
)
from fpxplain.runner import run_query
from fpxplain.serialize import canonical_dumps, dumps_model, loads_model

from cli_runner import run


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def assert_one_error_line(r, args):
    """An input error: exit 2 with one `error:` line and no traceback."""
    assert r.exit_code == 2, (args, r.output)
    assert r.exception is None or isinstance(r.exception, SystemExit)
    lines = r.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.output


AND_MODEL = json.dumps({
    "format": "fpxplain-model", "version": 1,
    "model": {"kind": "ensemble",
              "members": [{"kind": "perceptron", "weights": ["1", "1"],
                           "bias": "-2"}],
              "voting": {"rule": "majority"}}})


def test_gen_then_query_roundtrip(tmp_path):
    out = str(tmp_path / "m.json")
    r = run(["gen", "--family", "perceptron", "--n", "4", "--seed", "9",
             "--out", out])
    assert r.exit_code == 0, r.output
    r2 = run(["query", "--model", out, "--kind", "expect", "--instance", "0000"])
    assert r2.exit_code == 0, r2.output
    payload = json.loads(r2.output)
    assert payload["query"] == "expect" and "answer" in payload


def test_gen_is_deterministic(tmp_path):
    a = run(["gen", "--family", "tree-ensemble", "--n", "5", "--seed", "3"])
    b = run(["gen", "--family", "tree-ensemble", "--n", "5", "--seed", "3"])
    assert a.output == b.output
    c = run(["gen", "--family", "tree-ensemble", "--n", "5", "--seed", "4"])
    assert c.output != a.output


def test_query_decision_exit_codes(tmp_path):
    path = write(tmp_path, "and.json", AND_MODEL)
    yes = run(["query", "--model", path, "--kind", "csr", "--instance", "11",
               "--subset", "0,1"])
    assert yes.exit_code == 0, yes.output
    assert json.loads(yes.output)["answer"] is True
    no = run(["query", "--model", path, "--kind", "csr", "--instance", "11",
              "--subset", "0"])
    assert no.exit_code == 1, no.output
    assert json.loads(no.output)["answer"] is False


def test_query_error_exit_code(tmp_path):
    path = write(tmp_path, "and.json", AND_MODEL)
    r = run(["query", "--model", path, "--kind", "csr", "--instance", "111"])
    assert r.exit_code == 2
    r2 = run(["query", "--model", path, "--kind", "mcr", "--instance", "11"])
    assert r2.exit_code == 2  # missing bound
    r3 = run(["query", "--model", path, "--kind", "csr"])
    assert r3.exit_code == 2  # missing instance


def test_query_shap_payload(tmp_path):
    path = write(tmp_path, "and.json", AND_MODEL)
    r = run(["query", "--model", path, "--kind", "shap", "--instance", "11"])
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert payload["values"] == ["3/8", "3/8"]
    assert payload["expected"] == "1/4"
    assert payload["total"] == "3/4"
    r2 = run(["query", "--model", path, "--kind", "shap", "--instance", "11",
              "--feature", "1"])
    assert json.loads(r2.output)["answer"] == "3/8"


def test_out_into_a_missing_directory_is_an_input_error(tmp_path):
    path = write(tmp_path, "and.json", AND_MODEL)
    args = ["query", "--model", path, "--kind", "csr", "--instance", "11",
            "--subset", "0", "--out", str(tmp_path / "missing" / "out.json")]
    assert_one_error_line(run(args), args)


def test_unexpected_exception_is_not_exit_one(tmp_path, monkeypatch):
    """An exception the CLI does not expect exits 2 with one error line,
    never 1, which means "the answer is no"."""
    def broken(*args, **kwargs):
        raise RuntimeError("engine broke")

    monkeypatch.setattr("fpxplain.cli.run_query", broken)
    path = write(tmp_path, "and.json", AND_MODEL)
    args = ["query", "--model", path, "--kind", "csr", "--instance", "11",
            "--subset", "0"]
    r = run(args)
    assert_one_error_line(r, args)
    assert "RuntimeError: engine broke" in r.output


def test_query_respects_dist_option(tmp_path):
    path = write(tmp_path, "and.json", AND_MODEL)
    r = run(["query", "--model", path, "--kind", "expect", "--instance", "11",
             "--dist", "1,1/2"])
    assert json.loads(r.output)["answer"] == "1/2"


def test_query_dist_outside_unit_interval_is_an_input_error(tmp_path):
    path = write(tmp_path, "and.json", AND_MODEL)
    for spec in ("2,1/2", "1/2,-1/3"):
        r = run(["query", "--model", path, "--kind", "expect", "--instance", "11",
                 "--dist", spec])
        assert r.exit_code == 2, (spec, r.output)
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert "outside [0, 1]" in r.output


def test_over_long_answer_is_an_input_error(tmp_path):
    """An answer whose denominator has more digits than Python converts to
    text exits 2, not with a traceback."""
    out = str(tmp_path / "p.json")
    r = run(["gen", "--family", "perceptron", "--n", "16", "--weight-bound", "32",
             "--seed", "3", "--out", out])
    assert r.exit_code == 0, r.output
    dist = ",".join(f"1/{10 ** 399 + 2 * i + 1}" for i in range(16))
    for kind in ("expect", "shap"):
        args = ["query", "--model", out, "--kind", kind, "--instance", "01" * 8,
                "--dist", dist]
        r = run(args)
        assert_one_error_line(r, args)
        assert "PYTHONINTMAXSTRDIGITS" in r.output


def test_a_feature_count_past_any_instance_is_an_input_error(tmp_path):
    """A tree declaring 10**40 features, more than any sequence can hold,
    exits 2 on every kind with an error that names no builtin exception:
    the instance is held to the model before a distribution is built."""
    import builtins
    builtin_errors = [name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)]
    path = write(tmp_path, "wide.json", json.dumps({
        "format": "fpxplain-model", "version": 1,
        "model": {"kind": "tree", "features": 10 ** 40, "nodes": [["leaf", 1]], "root": 0}}))
    for kind in ("csr", "cc", "mcr", "msr", "expect", "shap", "enumerate-contrastive"):
        args = ["query", "--model", path, "--kind", kind, "--instance", "101", "--bound", "1"]
        r = run(args)
        assert_one_error_line(r, args)
        assert "instance has 3 features" in r.output, (kind, r.output)
        assert not [name for name in builtin_errors if name in r.output], (kind, r.output)


def test_wrong_length_dist_is_an_input_error():
    """A distribution over the wrong number of features is an FpxError on
    every route that takes one."""
    perceptron = generate_model("perceptron", rng_from_seed(5), 3)
    ensemble = generate_model("tree-ensemble", rng_from_seed(6), 3, k=2)
    short = ProductDistribution.uniform(2)
    for model in (perceptron, ensemble):
        for kind in ("expect", "shap"):
            for algorithm in ("auto", "oracle"):
                with pytest.raises(FpxError, match="distribution over 2 features"):
                    run_query(model, kind, (0, 1, 1), dist=short, algorithm=algorithm)


def test_cap_variables_are_input_errors(tmp_path, monkeypatch):
    path = write(tmp_path, "and.json", AND_MODEL)
    for var, value, kind, algorithm in (("FPXPLAIN_ORACLE_CAP", "abc", "csr", "oracle"),
                                        ("FPXPLAIN_SHAP_ORACLE_CAP", "-3", "shap", "oracle")):
        monkeypatch.setenv(var, value)
        r = run(["query", "--model", path, "--kind", kind, "--instance", "11",
                 "--algorithm", algorithm])
        monkeypatch.delenv(var)
        assert r.exit_code == 2, (var, r.output)
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert r.output.startswith("error: " + var)


def test_readme_lists_every_environment_knob():
    """The README's knob list names exactly the variables _config reads,
    each with its default."""
    from fpxplain import _config
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Environment knobs", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        if line.startswith("- `FPXPLAIN_"):
            name, _, rest = line[3:].partition("` (default ")
            listed[name] = int(rest.partition(")")[0])
    read = {getattr(_config, var): getattr(_config, var[:-len("VAR")] + "DEFAULT")
            for var in dir(_config) if var.endswith("_VAR")}
    assert listed == read


def test_deeply_nested_json_is_an_input_error(tmp_path):
    path = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    for args in (["validate", path],
                 ["query", "--model", path, "--kind", "csr", "--instance", "11"]):
        assert_one_error_line(run(args), args)


def test_over_long_json_integer_is_an_input_error(tmp_path):
    doc = AND_MODEL.replace('"bias": "-2"', '"bias": ' + "9" * 5_000)
    path = write(tmp_path, "long.json", doc)
    for args in (["validate", path],
                 ["query", "--model", path, "--kind", "csr", "--instance", "11"]):
        assert_one_error_line(run(args), args)


def _perceptron_doc(weights):
    return json.dumps({"format": "fpxplain-model", "version": 1,
                       "model": {"kind": "perceptron", "weights": weights,
                                 "bias": "0"}})


def test_rationals_outside_the_documented_forms_are_input_errors(tmp_path):
    exponent = write(tmp_path, "e.json", _perceptron_doc(["1e5000", "1"]))
    plain = write(tmp_path, "p.json", _perceptron_doc(["1", "1"]))
    # documented forms whose integer-scaled weights have about 6,000
    # digits: the DP budget refuses them, and its message must still print
    huge = write(tmp_path, "h.json", _perceptron_doc(
        ["9" * 4_000 + "/" + "7" * 1_990 + "1",
         "9" * 4_000 + "/" + "3" * 1_990 + "1"]))
    cases = [["query", "--model", exponent, "--kind", kind, "--instance", "01"]
             for kind in ("expect", "cc", "shap")]
    cases += [["transform", "--op", "negate", "--model", exponent],
              ["query", "--model", plain, "--kind", "expect", "--instance", "01",
               "--dist", "1e-3000000,1/2"],
              ["query", "--model", huge, "--kind", "expect", "--instance", "01"]]
    for args in cases:
        assert_one_error_line(run(args), args)


IMPORT_PROBE = """
import json, sys
import fpxplain.cli
ENGINES = ("trees", "perceptron", "attribution", "transforms", "oracle")
def loaded(names):
    return [m for m in names if m in sys.modules]
at_import = loaded(("click", "fpxplain.gadgets", "fpxplain.generate", "fpxplain.bench",
                    "hashlib") + tuple("fpxplain." + m for m in ENGINES))
from fpxplain.models import DecisionTree, Perceptron, leaf, split
from fpxplain.runner import run_query
family, kind, algorithm = sys.argv[1:]
model = (Perceptron((1, 1), -2) if family == "perceptron"
         else DecisionTree(2, (split(0, 1, 2), leaf(0), leaf(1)), 0))
if kind == "size_stratified_sums":
    from fpxplain.attribution import size_stratified_sums
    from fpxplain.models import ProductDistribution, majority_ensemble
    size_stratified_sums(majority_ensemble((model,)), (1, 1), ProductDistribution.uniform(2))
else:
    run_query(model, kind, (1, 1), subset=(0,), bound=1, algorithm=algorithm)
after_query = loaded("fpxplain." + m for m in ENGINES)
import fpxplain
wrong = []
for name in fpxplain.__all__:
    obj = getattr(fpxplain, name)
    home = sys.modules[obj.__module__]
    if not home.__name__.startswith("fpxplain.") or getattr(home, name) is not obj:
        wrong.append(name)
star = {}
exec("from fpxplain import *", star)
missing = sorted(set(fpxplain.__all__) - (set(star) & set(dir(fpxplain))))
print(json.dumps({"at_import": at_import, "after_query": after_query, "wrong": wrong,
                  "missing": missing}))
"""


def _src_env() -> dict:
    """The environment of a child interpreter that imports this fpxplain."""
    src = str(Path(fpxplain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_only_the_query_path():
    """A fresh `import fpxplain.cli` loads neither click nor any engine,
    gadget, generator, bench or oracle module; a csr, mcr, msr, cc or
    expect query on a tree or a perceptron, or a forced oracle query, then
    loads only the engine of its route; size_stratified_sums on a tree
    ensemble loads trees and attribution, not perceptron; and the
    package's lazy names still resolve."""
    env = _src_env()
    probes = [(family, kind, "auto", [engine])
              for family, engine in (("perceptron", "fpxplain.perceptron"),
                                     ("tree", "fpxplain.trees"))
              for kind in ("csr", "mcr", "msr", "cc", "expect")]
    probes.append(("tree", "csr", "oracle", ["fpxplain.oracle"]))
    probes.append(("tree", "size_stratified_sums", "auto",
                   ["fpxplain.trees", "fpxplain.attribution"]))
    for family, kind, algorithm, engines in probes:
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, family, kind, algorithm],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == {"at_import": [], "after_query": engines,
                                   "wrong": [], "missing": []}, (family, kind, algorithm)


def _imported(argv, env) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run `python -X importtime ARGV`; the process and the modules it listed."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env,
                          capture_output=True, text=True)
    return proc, {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}


def test_query_process_imports_only_what_its_route_runs(tmp_path):
    """A real `python -m fpxplain.cli query` process on a small tree or
    perceptron imports neither dataclasses nor inspect on any route, and
    shap loads attribution and its model's engine only: not perceptron or
    transforms for a tree, not trees or transforms for a perceptron.
    `-X importtime` does not list a module that `importlib.import_module`
    loads (runner's engine table), but it lists every module that one
    imports, so only the shap engines are named here."""
    env = _src_env()
    models = {"tree": write(tmp_path, "t.json", dumps_model(
                  DecisionTree(2, (split(0, 1, 2), leaf(0), leaf(1))))),
              "perceptron": write(tmp_path, "p.json", dumps_model(Perceptron((1, 1), -2)))}
    _, bare = _imported(["-c", "pass"], env)
    shap_engines = {"tree": "fpxplain.trees", "perceptron": "fpxplain.perceptron"}
    for family, path in models.items():
        kinds = ["csr", "cc", "mcr", "msr", "expect", "shap"]
        if family == "tree":
            kinds.append("enumerate-contrastive")
        for kind in kinds:
            proc, loaded = _imported(["-m", "fpxplain.cli", "query", "--model", path,
                                      "--kind", kind, "--instance", "11", "--bound", "1"],
                                     env)
            assert proc.returncode in (0, 1), (family, kind, proc.stderr[-500:])
            assert json.loads(proc.stdout)["query"] == kind
            new = loaded - bare
            assert {"fpxplain.models", "fpxplain.serialize"} <= new, (family, kind)
            assert not new & {"dataclasses", "inspect"}, (family, kind)
            if kind == "shap":
                engines = {m for m in new if m in (
                    "fpxplain.attribution", "fpxplain.trees", "fpxplain.perceptron",
                    "fpxplain.transforms", "fpxplain.oracle")}
                assert engines == {"fpxplain.attribution", shap_engines[family]}, family


def test_perfbench_traced_names_resolve():
    """Every function perfbench's tracer wraps still exists under its name,
    and size_stratified_sums keeps the lru_cache hooks perfbench calls."""
    spec = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "spec.json")
                      .read_text())
    missing = []
    for entry in spec["layers"].values():
        for qualified in entry.get("functions", ()):
            module, attr = qualified.split(".")
            if not hasattr(importlib.import_module(f"fpxplain.{module}"), attr):
                missing.append(qualified)
    assert missing == []
    sums = importlib.import_module("fpxplain.attribution").size_stratified_sums
    for hook in ("cache_info", "cache_clear"):
        assert callable(getattr(sums, hook, None)), hook


def test_query_exits_one_exactly_on_a_false_answer(tmp_path):
    rng = rng_from_seed(72)
    seen = set()
    for case in range(32):
        n = rng.randint(1, 6)
        family = ("tree", "tree-ensemble", "perceptron", "perceptron-ensemble")[case % 4]
        if family == "perceptron-ensemble":  # no fast route: the oracle answers
            model = majority_ensemble([generate_model("perceptron", rng, n, weight_bound=4)
                                       for _ in range(rng.randint(1, 3))])
        else:
            model = generate_model(family, rng, n, k=rng.randint(1, 3), max_leaves=6,
                                   weight_bound=6)
        path = write(tmp_path, f"m{case}.json", dumps_model(model))
        x = random_instance_bits(rng, n)
        subset = tuple(i for i in range(n) if rng.random() < 0.5)
        bound = rng.randint(0, n)
        for kind, kwargs, extra in (
                ("csr", {"subset": subset}, ["--subset", ",".join(map(str, subset))]),
                ("mcr", {"bound": bound}, ["--bound", str(bound)]),
                ("msr", {"bound": bound}, ["--bound", str(bound)])):
            payload = run_query(model, kind, x, **kwargs)
            r = run(["query", "--model", path, "--kind", kind,
                     "--instance", "".join(map(str, x)), *extra])
            assert r.exception is None or isinstance(r.exception, SystemExit), r.output
            assert r.output == canonical_dumps(payload).rstrip("\n") + "\n"
            assert r.exit_code == (1 if payload["answer"] is False else 0), (case, kind)
            seen.add((kind, r.exit_code))
    assert seen == {(kind, code) for kind in ("csr", "mcr", "msr") for code in (0, 1)}


def _stump_ensemble():
    """1,201 depth-1 trees on n=3: 401 test x0, 400 test x1, 400 test not x2."""
    def stump(feature, label1):
        return DecisionTree(3, (split(feature, 1, 2), leaf(1 - label1), leaf(label1)), 0)
    return majority_ensemble([stump(0, 1)] * 401 + [stump(1, 1)] * 400 + [stump(2, 0)] * 400)


def _chain_tree(depth):
    """Node 2i tests feature i: 0 leads to leaf i % 2, 1 leads on; the end is leaf 1."""
    nodes = []
    for i in range(depth):
        nodes += [split(i, 2 * i + 1, 2 * i + 2), leaf(i % 2)]
    return DecisionTree(depth, tuple(nodes) + (leaf(1),), 0)


def test_deep_inputs_answer_without_recursion(tmp_path):
    e = _stump_ensemble()
    queries = (("csr", {"subset": (0,)}), ("csr", {"subset": (0, 1)}),
               ("cc", {"subset": (2,)}), ("expect", {}), ("mcr", {"bound": 0}),
               ("mcr", {"bound": 1}))
    for z in range(8):
        x = tuple((z >> i) & 1 for i in range(3))
        for kind, kwargs in queries:
            fast = run_query(e, kind, x, **kwargs)
            slow = run_query(e, kind, x, algorithm="oracle", **kwargs)
            assert fast["algorithm"] == "tree-fpt"
            assert {**fast, "algorithm": None} == {**slow, "algorithm": None}, (x, kind)
    stumps = write(tmp_path, "stumps.json", dumps_model(e))
    chain = write(tmp_path, "chain.json", dumps_model(_chain_tree(1200)))
    ones = "1" * 1200
    for path, instance, args in (
            (stumps, "110", ["--kind", "csr", "--subset", "0,1"]),
            (stumps, "110", ["--kind", "csr", "--subset", "0"]),
            (stumps, "100", ["--kind", "mcr", "--bound", "1"]),
            (chain, ones, ["--kind", "csr", "--subset", "0,1"]),
            (chain, ones, ["--kind", "csr", "--subset", ",".join(map(str, range(1200)))]),
            (chain, ones, ["--kind", "mcr", "--bound", "0"]),
            (chain, ones, ["--kind", "mcr", "--bound", "1"])):
        r = run(["query", "--model", path, "--instance", instance, *args])
        assert r.exception is None or isinstance(r.exception, SystemExit), r.output
        answer = json.loads(r.output)["answer"]
        assert r.exit_code == (0 if answer else 1), (args, r.output)
    assert run(["validate", chain]).exit_code == 0


def test_gadget_bundle_flow(tmp_path):
    out = str(tmp_path / "b.json")
    r = run(["gadget", "--family", "ssp", "--weights", "3,5,7", "--target",
             "11", "--solve", "--out", out])
    assert r.exit_code == 0, r.output
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc["query"] == "csr"
    assert doc["info"]["source_answer"] is False
    r2 = run(["query", "--bundle", out])
    assert r2.exit_code == 0, r2.output
    assert json.loads(r2.output)["answer"] is True


def test_bundle_instance_that_is_not_a_string_is_an_input_error(tmp_path):
    out = str(tmp_path / "b.json")
    assert run(["gadget", "--family", "ssp", "--weights", "3,5,7", "--target",
                "11", "--out", out]).exit_code == 0
    doc = json.loads((tmp_path / "b.json").read_text())
    for instance in (101, [1, 0, 1], None, {"bits": "101"}):
        path = write(tmp_path, "bad.json", json.dumps(dict(doc, instance=instance)))
        r = run(["query", "--bundle", path])
        assert_one_error_line(r, instance)
        assert "instance" in r.output and "AttributeError" not in r.output, r.output


def test_gadget_sampled_families(tmp_path):
    for family in ("ssp", "kssp", "gssp", "kgssp-star"):
        r = run(["gadget", "--family", family, "--seed", "5", "--n", "5",
                 "--solve"])
        assert r.exit_code == 0, (family, r.output)
        doc = json.loads(r.output)
        assert "source_answer" in doc["info"]
    r = run(["gadget", "--family", "clique", "--seed", "5", "--k", "2",
             "--n", "3", "--solve"])
    assert r.exit_code == 0, r.output


def test_gadget_clique_from_file(tmp_path):
    gpath = write(tmp_path, "g.txt", "v 0 0\nv 1 1\ne 0 1\n")
    r = run(["gadget", "--family", "clique", "--graph", gpath, "--solve"])
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["info"]["source_answer"] is True


def test_transform_negate_and_condition(tmp_path):
    path = write(tmp_path, "and.json", AND_MODEL)
    r = run(["transform", "--op", "negate", "--model", path])
    assert r.exit_code == 0, r.output
    neg = loads_model(r.output)
    assert neg.feature_count == 2
    r2 = run(["transform", "--op", "condition", "--model", path,
              "--instance", "11", "--subset", "0"])
    assert r2.exit_code == 0, r2.output


def test_transform_compile_formulas(tmp_path):
    fpath = write(tmp_path, "f.txt", "features 3\nx0 !x2\nx1\n")
    r = run(["transform", "--op", "compile-dnf", "--formula", fpath])
    assert r.exit_code == 0, r.output
    e = loads_model(r.output)
    assert e.size == 3  # 2 terms -> 3 members
    r2 = run(["transform", "--op", "compile-cnf", "--formula", fpath])
    assert r2.exit_code == 0, r2.output


def test_transform_indicators():
    r = run(["transform", "--op", "indicator-tree", "--instance", "101",
             "--subset", "0,2"])
    assert r.exit_code == 0, r.output
    r2 = run(["transform", "--op", "indicator-perceptron", "--instance", "00",
              "--subset", "0"])
    assert r2.exit_code == 0, r2.output
    p = loads_model(r2.output)
    assert [str(w) for w in p.weights] == ["-1", "0"]


def test_validate_exit_codes(tmp_path):
    good = write(tmp_path, "good.json", AND_MODEL)
    assert run(["validate", good]).exit_code == 0
    cyclic = write(tmp_path, "bad.json", json.dumps({
        "format": "fpxplain-model", "version": 1,
        "model": {"kind": "tree", "features": 2, "root": 0,
                  "nodes": [["split", 0, 0, 1], ["leaf", 1]]}}))
    r = run(["validate", cyclic])
    assert r.exit_code == 1
    assert "twice" in r.output
    notjson = write(tmp_path, "nj.json", "definitely not json")
    assert run(["validate", notjson]).exit_code == 2


def test_validate_lists_every_member_problem_in_order(tmp_path):
    """Golden: validate prints each problem of each member in member order,
    then the voting rule's, and exits 1; query prints them on one line."""
    path = write(tmp_path, "bad.json", json.dumps({
        "format": "fpxplain-model", "version": 1,
        "model": {"kind": "ensemble",
                  "members": [{"kind": "tree", "features": 3, "root": 0,
                               "nodes": [["split", 0, 1, 2], ["leaf", 0], ["leaf", 1]]},
                              {"kind": "tree", "features": 2, "root": 2,
                               "nodes": [["leaf", 1], ["leaf", 0], ["split", 2, 0, 1]]},
                              {"kind": "perceptron", "weights": [], "bias": "0"}],
                  "voting": {"rule": "weighted", "weights": ["1", "1"], "threshold": "1"}}}))
    problems = ["member 1: feature count 2 differs from member 0 (3)",
                "member 1: node 2 tests feature 2 outside 0..1",
                "member 2: feature count 0 differs from member 0 (3)",
                "member 2: perceptron has no features",
                "voting has 2 weights for 3 members"]
    r = run(["validate", path])
    assert (r.exit_code, r.output) == (1, "\n".join(problems) + "\n")
    r = run(["query", "--model", path, "--kind", "csr", "--instance", "101"])
    assert (r.exit_code, r.output) == (2, "error: invalid model: " + "; ".join(problems) + "\n")


def test_bench_csv(tmp_path):
    r = run(["bench", "--suite", "scaling-k", "--seed", "1"])
    assert r.exit_code == 0, r.output
    lines = r.output.strip().splitlines()
    assert lines[0] == "suite,n,k,m,W,query,algorithm,wall_seconds,answer_digest"
    assert len(lines) == 5
    assert all(line.startswith("scaling-k,16,") for line in lines[1:])


def test_enumerate_contrastive_query(tmp_path):
    tree_model = json.dumps({
        "format": "fpxplain-model", "version": 1,
        "model": {"kind": "tree", "features": 2, "root": 2,
                  "nodes": [["leaf", 0], ["leaf", 1], ["split", 0, 0, 1]]}})
    path = write(tmp_path, "t.json", tree_model)
    r = run(["query", "--model", path, "--kind", "enumerate-contrastive",
             "--instance", "10"])
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert payload["candidates"] == [[0]]

def test_option_values_that_begin_with_a_dash_bind(tmp_path):
    """A value option takes the next token even when it begins with '-':
    the engines, not the parser, reject these values."""
    args = ["gadget", "--family", "ssp", "--weights", "-3,5", "--target", "2"]
    r = run(args)
    assert_one_error_line(r, args)
    assert "weights must be positive integers, got -3" in r.output
    path = write(tmp_path, "and.json", AND_MODEL)
    args = ["query", "--model", path, "--kind", "expect", "--instance", "11",
            "--dist", "-1/2,1/2"]
    r = run(args)
    assert_one_error_line(r, args)
    assert "outside [0, 1]" in r.output


def test_usage_errors_exit_two(tmp_path):
    """Option prefixes, missing or directory paths, bad choices and bad
    integers are usage errors."""
    path = write(tmp_path, "and.json", AND_MODEL)
    for args in (["query", "--model", path, "--kind", "csr", "--inst", "11"],
                 ["query", "--model", str(tmp_path), "--kind", "csr", "--instance", "11"],
                 ["query", "--model", str(tmp_path / "missing.json"), "--kind", "csr",
                  "--instance", "11"],
                 ["validate", str(tmp_path)],
                 ["query", "--model", path, "--kind", "csrr", "--instance", "11"],
                 ["query", "--model", path, "--kind", "shap", "--instance", "11",
                  "--algorithm", "enum"],
                 ["query", "--model", path, "--kind", "mcr", "--instance", "11",
                  "--bound", "abc"]):
        r = run(args)
        assert r.exit_code == 2, (args, r.output)
        assert r.exception is None or isinstance(r.exception, SystemExit), args
        assert '"algorithm"' not in r.output, args  # no payload


HELP_OPTIONS = {
    "query": ("--model", "--bundle", "--kind", "--instance", "--subset", "--bound",
              "--feature", "--dist", "--algorithm", "--minimal-only", "--out"),
    "gadget": ("--family", "--weights", "--u", "--v", "--z", "--s0", "--k", "--target",
               "--graph", "--seed", "--n", "--solve", "--out"),
    "transform": ("--op", "--model", "--formula", "--instance", "--subset",
                  "--features", "--out"),
    "gen": ("--family", "--n", "--k", "--leaves", "--weight-bound", "--seed", "--out"),
    "bench": ("--suite", "--seed", "--budget", "--out"),
    "validate": (),
}


def test_help_names_every_command_and_option():
    r = run(["--help"])
    assert r.exit_code == 0, r.output
    assert all(command in r.output for command in HELP_OPTIONS), r.output
    for command, options in HELP_OPTIONS.items():
        r = run([command, "--help"])
        assert r.exit_code == 0, (command, r.output)
        assert all(option in r.output for option in options + ("--help",)), \
            (command, r.output)


def test_interrupted_command_is_an_input_error(tmp_path, monkeypatch):
    """An interrupt exits 2 with one error line, never 1, which means
    "the answer is no"."""
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("fpxplain.cli.run_query", interrupted)
    path = write(tmp_path, "and.json", AND_MODEL)
    args = ["query", "--model", path, "--kind", "csr", "--instance", "11",
            "--subset", "0"]
    assert_one_error_line(run(args), args)


def test_entry_call_prints_the_payload_and_exits_with_its_code(tmp_path, capsys):
    """`main.main(args=..., prog_name=...)`, the call the benchmark's traced
    child makes, prints the canonical payload and exits with the query's
    code."""
    import fpxplain.cli
    path = write(tmp_path, "and.json", AND_MODEL)
    model = loads_model(AND_MODEL)
    for subset, code in (("0,1", 0), ("0", 1)):
        with pytest.raises(SystemExit) as exit_info:
            fpxplain.cli.main.main(args=["query", "--model", path, "--kind", "csr",
                                         "--instance", "11", "--subset", subset],
                                   prog_name="fpxplain")
        assert exit_info.value.code == code
        payload = run_query(model, "csr", (1, 1), subset=tuple(map(int, subset.split(","))))
        assert capsys.readouterr().out == canonical_dumps(payload).rstrip("\n") + "\n"
