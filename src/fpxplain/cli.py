"""Command line interface.

Exit codes: 0 for success (including decision answers of yes), 1 for a
decision answer of no (and for validate finding invariant violations),
2 for any input or usage error, and for any exception the commands do
not expect (see _Guarded).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .errors import FpxError
from .models import validate_model
from .runner import ALGORITHMS, QUERY_KINDS, run_query
from .serialize import (
    canonical_dumps, dumps_bundle, dumps_model, loads_bundle, loads_json,
    model_from_doc, parse_cnf_text, parse_dist_spec, parse_dnf_text,
    parse_graph_text, parse_instance, parse_subset,
)

# The gadget, gen, bench and transform commands import their modules
# when they run, so a query process loads only the query engine. The
# suites of bench.bench_instances are listed here for that reason.
SUITES = ("scaling-m", "scaling-k", "pseudopoly-w", "oracle-doubling")


def _fail(exc) -> "None":
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        _fail(exc)


def _emit(text: str, out_path: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            _fail(exc)
    else:
        click.echo(text, nl=False)


class _Guarded(click.Group):
    """Exits 2 with one error line on any exception click does not handle
    itself, so exit 1 only ever means "the answer is no"."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            _fail(f"{type(exc).__name__}: {exc}")


@click.group(cls=_Guarded)
def main():
    """Exact explanation queries over tree ensembles and perceptrons."""


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              help="model document (JSON)")
@click.option("--bundle", "bundle_path", type=click.Path(exists=True, dir_okay=False),
              help="gadget bundle; provides model, instance and query defaults")
@click.option("--kind", type=click.Choice(QUERY_KINDS))
@click.option("--instance", "instance_text", help="instance bits, e.g. 0110")
@click.option("--subset", "subset_text", help="comma-separated feature indices")
@click.option("--bound", type=int, help="size bound for mcr/msr")
@click.option("--feature", type=int, help="single feature for shap")
@click.option("--dist", "dist_spec", default="uniform", show_default=True,
              help="'uniform' or comma-separated Pr[z_i=1] rationals")
@click.option("--algorithm", type=click.Choice(ALGORITHMS), default="auto",
              show_default=True)
@click.option("--minimal-only", is_flag=True,
              help="restrict enumeration to subset-minimal candidates")
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
def query(model_path, bundle_path, kind, instance_text, subset_text, bound,
          feature, dist_spec, algorithm, minimal_only, out_path):
    """Run an explanation query against a model."""
    if bool(model_path) == bool(bundle_path):
        raise click.UsageError("give exactly one of --model or --bundle")
    try:
        if bundle_path:
            bundle = loads_bundle(_read(bundle_path))
            model = bundle.model
            kind = kind or bundle.kind
            x = parse_instance(instance_text) if instance_text else bundle.x
            subset = parse_subset(subset_text) if subset_text is not None \
                else (bundle.subset or ())
            bound = bound if bound is not None else bundle.bound
        else:
            model = model_from_doc(loads_json(_read(model_path)))
            if kind is None:
                raise click.UsageError("--kind is required with --model")
            if instance_text is None:
                raise click.UsageError("--instance is required with --model")
            x = parse_instance(instance_text)
            subset = parse_subset(subset_text) if subset_text is not None else ()
        dist = parse_dist_spec(dist_spec, model.feature_count)
        payload = run_query(model, kind, x, subset=subset, bound=bound,
                            feature=feature, dist=dist, algorithm=algorithm,
                            minimal_only=minimal_only)
    except FpxError as exc:
        _fail(exc)
    _emit(canonical_dumps(payload), out_path)
    if payload.get("answer") is False:
        sys.exit(1)


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise click.UsageError(f"{what} must be comma-separated ints, got {text!r}")


@main.command()
@click.option("--family", type=click.Choice(("ssp", "kssp", "gssp", "kgssp-star",
                                             "clique")), required=True)
@click.option("--weights", help="comma-separated weights (ssp, kssp)")
@click.option("--u", "u_text", help="comma-separated choice-side weights (gssp)")
@click.option("--v", "v_text", help="comma-separated completion-side weights (gssp)")
@click.option("--z", "z_text", help="comma-separated weights (kgssp-star)")
@click.option("--s0", "s0_text", help="comma-separated prefix indices (kgssp-star)")
@click.option("--k", type=int, help="subset size / color count")
@click.option("--target", type=int)
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False),
              help="colored graph file (clique)")
@click.option("--seed", type=int, help="sample an instance instead of giving one")
@click.option("--n", type=int, default=8, show_default=True,
              help="sampled instance size (weights / max class size)")
@click.option("--solve", is_flag=True,
              help="embed the brute-force source answer in the bundle info")
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
def gadget(family, weights, u_text, v_text, z_text, s0_text, k, target,
           graph_path, seed, n, solve, out_path):
    """Build a query bundle whose answer encodes a hard source problem."""
    from .gadgets import (
        GsspInstance, KgsspStarInstance, KsspInstance, SspInstance,
        gssp_msr_gadget, kgssp_star_msr_gadget, kssp_mcr_gadget,
        multicolored_clique_csr_gadget, solve_gssp_brute,
        solve_kgssp_star_brute, solve_kssp_brute,
        solve_multicolored_clique_brute, solve_ssp_brute, ssp_csr_gadget,
    )
    from .generate import (
        rng_from_seed, sample_colored_graph, sample_gssp, sample_kgssp_star,
        sample_kssp_filtered, sample_ssp,
    )

    rng = rng_from_seed(seed) if seed is not None else None
    try:
        if family == "ssp":
            if rng is not None:
                inst = sample_ssp(rng, n)
            elif weights and target is not None:
                inst = SspInstance(_int_list(weights, "--weights"), target)
            else:
                raise click.UsageError("ssp needs --weights and --target, or --seed")
            bundle, answer = ssp_csr_gadget(inst), solve_ssp_brute(inst) if solve else None
        elif family == "kssp":
            if rng is not None:
                inst = sample_kssp_filtered(rng, n)
            elif weights and k is not None and target is not None:
                inst = KsspInstance(_int_list(weights, "--weights"), k, target)
            else:
                raise click.UsageError("kssp needs --weights, --k and --target, or --seed")
            bundle, answer = kssp_mcr_gadget(inst), solve_kssp_brute(inst) if solve else None
        elif family == "gssp":
            if rng is not None:
                half = max(1, n // 2)
                inst = sample_gssp(rng, half, max(1, n - half))
            elif u_text and v_text and target is not None:
                inst = GsspInstance(_int_list(u_text, "--u"),
                                    _int_list(v_text, "--v"), target)
            else:
                raise click.UsageError("gssp needs --u, --v and --target, or --seed")
            bundle, answer = gssp_msr_gadget(inst), solve_gssp_brute(inst) if solve else None
        elif family == "kgssp-star":
            if rng is not None:
                inst = sample_kgssp_star(rng, n)
            elif z_text and s0_text and k is not None and target is not None:
                inst = KgsspStarInstance(_int_list(z_text, "--z"),
                                         _int_list(s0_text, "--s0"), k, target)
            else:
                raise click.UsageError(
                    "kgssp-star needs --z, --s0, --k and --target, or --seed")
            bundle = kgssp_star_msr_gadget(inst)
            answer = solve_kgssp_star_brute(inst) if solve else None
        else:  # clique
            if rng is not None:
                graph = sample_colored_graph(rng, k if k is not None else 3, n)
            elif graph_path:
                graph = parse_graph_text(_read(graph_path))
            else:
                raise click.UsageError("clique needs --graph, or --seed (with --k colors)")
            bundle = multicolored_clique_csr_gadget(graph)
            answer = solve_multicolored_clique_brute(graph) if solve else None
        if answer is not None:
            bundle.info["source_answer"] = answer
    except FpxError as exc:
        _fail(exc)
    _emit(dumps_bundle(bundle), out_path)


@main.command()
@click.option("--op", type=click.Choice(("negate", "condition", "compile-dnf",
                                         "compile-cnf", "indicator-tree",
                                         "indicator-perceptron")), required=True)
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--formula", "formula_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--instance", "instance_text")
@click.option("--subset", "subset_text", default="")
@click.option("--features", type=int, help="feature count for indicators")
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
def transform(op, model_path, formula_path, instance_text, subset_text,
              features, out_path):
    """Produce a new model document from a model or formula."""
    from .transforms import (
        cnf_to_ensemble, condition_model, dnf_to_ensemble,
        indicator_perceptron, indicator_tree, negate_model,
    )

    try:
        if op in ("negate", "condition"):
            if not model_path:
                raise click.UsageError(f"{op} needs --model")
            model = model_from_doc(loads_json(_read(model_path)))
            if op == "negate":
                result = negate_model(model)
            else:
                if instance_text is None:
                    raise click.UsageError("condition needs --instance")
                x = parse_instance(instance_text)
                result = condition_model(model, x, parse_subset(subset_text))
        elif op in ("compile-dnf", "compile-cnf"):
            if not formula_path:
                raise click.UsageError(f"{op} needs --formula")
            text = _read(formula_path)
            if op == "compile-dnf":
                result = dnf_to_ensemble(parse_dnf_text(text))
            else:
                result = cnf_to_ensemble(parse_cnf_text(text))
        else:
            if instance_text is None:
                raise click.UsageError(f"{op} needs --instance")
            x = parse_instance(instance_text)
            s = parse_subset(subset_text)
            n = features if features is not None else len(x)
            if op == "indicator-tree":
                result = indicator_tree(x, s, n)
            else:
                result = indicator_perceptron(x, s, n)
    except FpxError as exc:
        _fail(exc)
    _emit(dumps_model(result), out_path)


@main.command()
@click.option("--family", type=click.Choice(("tree", "tree-ensemble", "perceptron")),
              default="tree-ensemble", show_default=True)
@click.option("--n", type=int, default=8, show_default=True)
@click.option("--k", type=int, default=3, show_default=True)
@click.option("--leaves", type=int, default=8, show_default=True)
@click.option("--weight-bound", type=int, default=8, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
def gen(family, n, k, leaves, weight_bound, seed, out_path):
    """Generate a random model document from a seed."""
    from .generate import generate_model, rng_from_seed

    try:
        model = generate_model(family, rng_from_seed(seed), n, k=k,
                               max_leaves=leaves, weight_bound=weight_bound)
    except FpxError as exc:
        _fail(exc)
    _emit(dumps_model(model), out_path)


@main.command()
@click.option("--suite", type=click.Choice(SUITES), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=float, default=300.0, show_default=True,
              help="wall-clock budget in seconds; excess rows are truncated")
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
def bench(suite, seed, budget, out_path):
    """Time a deterministic instance stream and emit CSV."""
    from .bench import rows_to_csv, run_bench

    try:
        rows = run_bench(suite, seed, budget_seconds=budget)
    except FpxError as exc:
        _fail(exc)
    _emit(rows_to_csv(rows), out_path)


@main.command()
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
def validate(model_path):
    """Check a model document's structural invariants.

    Exit 0 when valid, 1 when the document parses but violates model
    invariants, 2 when it cannot be parsed at all.
    """
    try:
        model = model_from_doc(loads_json(_read(model_path)), check=False)
    except FpxError as exc:
        _fail(exc)
    problems = validate_model(model)
    for p in problems:
        click.echo(p)
    if problems:
        sys.exit(1)
    click.echo("ok")


if __name__ == "__main__":
    main()
