"""Command line interface, on the standard library's argparse.

Exit codes: 0 for success (including decision answers of yes), 1 for a
decision answer of no (and for validate finding invariant violations),
2 for any input or usage error, for an interrupt, and for any exception
the commands do not expect (see main), so exit 1 only ever means "the
answer is no".

A query process loads only argparse and the query path: the gadget,
gen, bench and transform commands import their modules when they run,
and runner imports each engine on the route that calls it.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from .errors import FpxError, ParseError
from .models import check_instance
from .runner import ALGORITHMS, QUERY_KINDS, run_query
from .serialize import (
    canonical_dumps, dumps_bundle, dumps_model, loads_bundle, loads_json,
    model_from_doc, parse_cnf_text, parse_dist_spec, parse_dnf_text,
    parse_graph_text, parse_instance, parse_subset,
)

# The suites of bench.bench_instances, listed here so that the bench
# module loads only when the bench command runs.
SUITES = ("scaling-m", "scaling-k", "pseudopoly-w", "oracle-doubling")


def _fail(exc) -> "None":
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _emit(text: str, out_path: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _input_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    return _output_file(path)


def _output_file(path: str) -> str:
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


def query(opts):
    """Run an explanation query against a model."""
    if bool(opts.model) == bool(opts.bundle):
        opts.usage("give exactly one of --model or --bundle")
    kind, bound = opts.kind, opts.bound
    if opts.bundle:
        bundle = loads_bundle(_read(opts.bundle))
        model = bundle.model
        kind = kind or bundle.kind
        x = parse_instance(opts.instance) if opts.instance else bundle.x
        subset = parse_subset(opts.subset) if opts.subset is not None \
            else (bundle.subset or ())
        bound = bound if bound is not None else bundle.bound
    else:
        model = model_from_doc(loads_json(_read(opts.model)))
        if kind is None:
            opts.usage("--kind is required with --model")
        if opts.instance is None:
            opts.usage("--instance is required with --model")
        x = parse_instance(opts.instance)
        subset = parse_subset(opts.subset) if opts.subset is not None else ()
    # the instance is held to the model first, so the distribution is
    # built only for as many features as the instance has bits
    x = check_instance(x, model.feature_count)
    dist = parse_dist_spec(opts.dist, model.feature_count)
    payload = run_query(model, kind, x, subset=subset, bound=bound,
                        feature=opts.feature, dist=dist, algorithm=opts.algorithm,
                        minimal_only=opts.minimal_only)
    _emit(canonical_dumps(payload), opts.out)
    return 1 if payload.get("answer") is False else 0


def gadget(opts):
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

    def ints(text: str, what: str) -> tuple[int, ...]:
        try:
            return tuple(int(p.strip()) for p in text.split(","))
        except ValueError:
            opts.usage(f"{what} must be comma-separated ints, got {text!r}")

    family, k, n, target = opts.family, opts.k, opts.n, opts.target
    rng = rng_from_seed(opts.seed) if opts.seed is not None else None
    if family == "ssp":
        if rng is not None:
            inst = sample_ssp(rng, n)
        elif opts.weights and target is not None:
            inst = SspInstance(ints(opts.weights, "--weights"), target)
        else:
            opts.usage("ssp needs --weights and --target, or --seed")
        bundle, solve = ssp_csr_gadget(inst), solve_ssp_brute
    elif family == "kssp":
        if rng is not None:
            inst = sample_kssp_filtered(rng, n)
        elif opts.weights and k is not None and target is not None:
            inst = KsspInstance(ints(opts.weights, "--weights"), k, target)
        else:
            opts.usage("kssp needs --weights, --k and --target, or --seed")
        bundle, solve = kssp_mcr_gadget(inst), solve_kssp_brute
    elif family == "gssp":
        if rng is not None:
            half = max(1, n // 2)
            inst = sample_gssp(rng, half, max(1, n - half))
        elif opts.u and opts.v and target is not None:
            inst = GsspInstance(ints(opts.u, "--u"), ints(opts.v, "--v"),
                                target)
        else:
            opts.usage("gssp needs --u, --v and --target, or --seed")
        bundle, solve = gssp_msr_gadget(inst), solve_gssp_brute
    elif family == "kgssp-star":
        if rng is not None:
            inst = sample_kgssp_star(rng, n)
        elif opts.z and opts.s0 and k is not None and target is not None:
            inst = KgsspStarInstance(ints(opts.z, "--z"),
                                     ints(opts.s0, "--s0"), k, target)
        else:
            opts.usage("kgssp-star needs --z, --s0, --k and --target, or --seed")
        bundle, solve = kgssp_star_msr_gadget(inst), solve_kgssp_star_brute
    else:  # clique
        if rng is not None:
            inst = sample_colored_graph(rng, k if k is not None else 3, n)
        elif opts.graph:
            inst = parse_graph_text(_read(opts.graph))
        else:
            opts.usage("clique needs --graph, or --seed (with --k colors)")
        bundle, solve = (multicolored_clique_csr_gadget(inst),
                         solve_multicolored_clique_brute)
    if opts.solve:
        bundle.info["source_answer"] = solve(inst)
    _emit(dumps_bundle(bundle), opts.out)
    return 0


def transform(opts):
    """Produce a new model document from a model or formula."""
    from .transforms import (
        cnf_to_ensemble, condition_model, dnf_to_ensemble,
        indicator_perceptron, indicator_tree, negate_model,
    )

    op = opts.op
    if op in ("negate", "condition"):
        if not opts.model:
            opts.usage(f"{op} needs --model")
        model = model_from_doc(loads_json(_read(opts.model)))
        if op == "negate":
            result = negate_model(model)
        else:
            if opts.instance is None:
                opts.usage("condition needs --instance")
            x = parse_instance(opts.instance)
            result = condition_model(model, x, parse_subset(opts.subset))
    elif op in ("compile-dnf", "compile-cnf"):
        if not opts.formula:
            opts.usage(f"{op} needs --formula")
        text = _read(opts.formula)
        if op == "compile-dnf":
            result = dnf_to_ensemble(parse_dnf_text(text))
        else:
            result = cnf_to_ensemble(parse_cnf_text(text))
    else:
        if opts.instance is None:
            opts.usage(f"{op} needs --instance")
        x = parse_instance(opts.instance)
        s = parse_subset(opts.subset)
        n = opts.features if opts.features is not None else len(x)
        if op == "indicator-tree":
            result = indicator_tree(x, s, n)
        else:
            result = indicator_perceptron(x, s, n)
    _emit(dumps_model(result), opts.out)
    return 0


def gen(opts):
    """Generate a random model document from a seed."""
    from .generate import generate_model, rng_from_seed

    model = generate_model(opts.family, rng_from_seed(opts.seed), opts.n, k=opts.k,
                           max_leaves=opts.leaves, weight_bound=opts.weight_bound)
    _emit(dumps_model(model), opts.out)
    return 0


def bench(opts):
    """Time a deterministic instance stream and emit CSV."""
    from .bench import rows_to_csv, run_bench

    _emit(rows_to_csv(run_bench(opts.suite, opts.seed, budget_seconds=opts.budget)),
          opts.out)
    return 0


def validate(opts):
    """Check a model document's structural invariants.

    Exit 0 when valid, 1 when the document parses but violates model
    invariants, 2 when it cannot be parsed at all.
    """
    try:
        model_from_doc(loads_json(_read(opts.model)))
    except ParseError as exc:
        if not exc.problems:
            raise
        print("\n".join(exc.problems))
        return 1
    print("ok")
    return 0


@lru_cache(maxsize=None)
def _parser(prog: str) -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser, and the options that take a value; built once per
    program name, since main may run many times in one process."""
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Exact explanation queries over tree ensembles and perceptrons.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND",
                                     required=True)
    takes_value = set()

    def command(run):
        doc = run.__doc__
        p = commands.add_parser(run.__name__, help=doc.splitlines()[0],
                                description=doc, allow_abbrev=False)
        p.set_defaults(run=run, usage=p.error)
        return p

    def option(p, name, **kwargs):
        if kwargs.get("action") != "store_true":
            takes_value.add(name)
        if kwargs.get("default") not in (None, ""):
            kwargs["help"] = kwargs.get("help", "") + " (default: %(default)s)"
        p.add_argument(name, **kwargs)

    def out(p):
        option(p, "--out", type=_output_file, help="write here instead of stdout")

    p = command(query)
    option(p, "--model", type=_input_file,
           help="model document (JSON)")
    option(p, "--bundle", type=_input_file,
           help="gadget bundle; provides model, instance and query defaults")
    option(p, "--kind", choices=QUERY_KINDS)
    option(p, "--instance", help="instance bits, e.g. 0110")
    option(p, "--subset", help="comma-separated feature indices")
    option(p, "--bound", type=int, help="size bound for mcr/msr")
    option(p, "--feature", type=int, help="single feature for shap")
    option(p, "--dist", default="uniform",
           help="'uniform' or comma-separated Pr[z_i=1] rationals")
    option(p, "--algorithm", choices=ALGORITHMS, default="auto")
    option(p, "--minimal-only", action="store_true",
           help="restrict enumeration to subset-minimal candidates")
    out(p)

    p = command(gadget)
    option(p, "--family", required=True,
           choices=("ssp", "kssp", "gssp", "kgssp-star", "clique"))
    option(p, "--weights", help="comma-separated weights (ssp, kssp)")
    option(p, "--u", help="comma-separated choice-side weights (gssp)")
    option(p, "--v",
           help="comma-separated completion-side weights (gssp)")
    option(p, "--z", help="comma-separated weights (kgssp-star)")
    option(p, "--s0", help="comma-separated prefix indices (kgssp-star)")
    option(p, "--k", type=int, help="subset size / color count")
    option(p, "--target", type=int)
    option(p, "--graph", type=_input_file,
           help="colored graph file (clique)")
    option(p, "--seed", type=int, help="sample an instance instead of giving one")
    option(p, "--n", type=int, default=8,
           help="sampled instance size (weights / max class size)")
    option(p, "--solve", action="store_true",
           help="embed the brute-force source answer in the bundle info")
    out(p)

    p = command(transform)
    option(p, "--op", required=True,
           choices=("negate", "condition", "compile-dnf", "compile-cnf",
                    "indicator-tree", "indicator-perceptron"))
    option(p, "--model", type=_input_file)
    option(p, "--formula", type=_input_file)
    option(p, "--instance")
    option(p, "--subset", default="")
    option(p, "--features", type=int, help="feature count for indicators")
    out(p)

    p = command(gen)
    option(p, "--family", choices=("tree", "tree-ensemble", "perceptron"),
           default="tree-ensemble")
    for name, default in (("--n", 8), ("--k", 3), ("--leaves", 8),
                          ("--weight-bound", 8)):
        option(p, name, type=int, default=default)
    option(p, "--seed", type=int, required=True)
    out(p)

    p = command(bench)
    option(p, "--suite", choices=SUITES, required=True)
    option(p, "--seed", type=int, default=0)
    option(p, "--budget", type=float, default=300.0,
           help="wall-clock budget in seconds; excess rows are truncated")
    out(p)

    p = command(validate)
    p.add_argument("model", type=_input_file, metavar="MODEL")
    return parser, takes_value


def _bind_values(args: list[str], takes_value: set[str]) -> list[str]:
    """Join each value option to the token after it, as --opt=VALUE.

    argparse reads a token that begins with '-' as an option, so
    `--weights -3,5` would leave --weights without its value; an option
    that takes a value takes the next token, whatever it looks like.
    """
    out, tokens = [], iter(args)
    for token in tokens:
        value = next(tokens, None) if token in takes_value else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(args: list[str] | None = None, prog_name: str | None = None):
    """Run one command and exit with its code.

    Input errors print one `error:` line and exit 2. So does any other
    exception, and an interrupt, so that exit 1 only ever means "the
    answer is no".
    """
    parser, takes_value = _parser(prog_name or "fpxplain")
    try:
        opts = parser.parse_args(
            _bind_values(sys.argv[1:] if args is None else list(args), takes_value))
        code = opts.run(opts)
    except (FpxError, OSError) as exc:
        _fail(exc)
    except KeyboardInterrupt:
        _fail("interrupted")
    except Exception as exc:
        _fail(f"{type(exc).__name__}: {exc}")
    sys.exit(code)


# The entry call `main.main(args=[...], prog_name="fpxplain")`, which
# perfbench/cli_child.py makes, runs the same function.
main.main = main


if __name__ == "__main__":
    main()
