"""End-to-end and per-layer benchmark for fpxplain.

Run from the root of a checkout (the package is read from ./src, nothing
is installed):

    python3 perfbench/run.py --workload shap-trees --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--trace 0 is the timed run: set up (package import in a fresh interpreter,
model generation, document serialization, warm-up) several times and
report the median, then run the workload's queries in a closed loop, one
client and one query at a time, for --seconds, and check every answer
afterwards. It reports the end-to-end metrics. Their times are wall times
taken to the reference speed of calib.py: the host's load moves the
program and a fixed reference job alike, and their ratio is what is
reported; the raw wall times are printed beside them. --trace 1 is the
traced run: it runs the workload's fixed check set once untraced and once
with span wrappers around the package's public functions, and reports the
per-layer metrics, the tracing overhead, and writes the spans to
.perfbench_out/. The last line of standard output is one JSON object with
the verdict and the metrics; the lines before it are the same numbers for
people.

--record-digests rewrites perfbench/digests.json, the payload digests of
each workload's check set at the recorded seeds. Run it only when a
change alters payload bytes on purpose.

Workloads, their query mix and the reasons for them are in
perfbench/spec.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calib

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD_TIMEOUT_S = 150
RECORDED_SEEDS = list(range(32))
END_TO_END = (("query_p50_ms", "ms"), ("query_tail_ms", "ms"),
              ("queries_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# per-layer metrics in the traced run's JSON line; the other layer times are
# printed only, because they read exactly 0 on workloads that skip the layer
PER_LAYER = (("runner.self_s", "s"), ("runner.calls", "count"),
             ("runner.errors", "count"), ("runner.fast_route_ratio", "ratio"),
             ("serialize.parse_s", "s"), ("serialize.dump_s", "s"),
             ("serialize.bytes_in", "bytes"), ("serialize.bytes_out", "bytes"),
             ("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"),
             ("trees.calls", "count"), ("trees.cylinders", "count"),
             ("trees.candidates", "count"), ("attribution.h_table_calls", "count"),
             ("transforms.condition_calls", "count"),
             ("perceptron.h_table_calls", "count"), ("perceptron.dp_cells", "count"),
             ("trace.overhead", "ratio"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run one child process to completion; subprocess.run kills and reaps it
    on timeout."""
    return subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def probe_ms(code: str, repeats: int) -> float:
    """Median wall time of `python -c code`, spawn to exit."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = run_child([sys.executable, "-c", code])
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"probe {code!r} failed: {proc.stderr.strip()}")
    return statistics.median(times) * 1000


def import_seconds(module: str, sampler=None) -> float:
    """Import time of the fpxplain packages that `import module` loads in a
    fresh interpreter, from -X importtime, at the sampler's reference speed
    when there is one. Process start-up is left out: it is not the
    package's cost, and under load it is the noisiest part."""
    start = time.perf_counter()
    proc = run_child([sys.executable, "-X", "importtime", "-c", f"import {module}"])
    end = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"importing {module} failed: {proc.stderr.strip()[-200:]}")
    total_us = 0
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        # top-level entries have one space before the name, nested ones more
        if line.startswith("import time:") and len(fields) == 3 and \
                fields[2].startswith(" fpxplain"):
            total_us += int(fields[1])
    if sampler is None:
        return total_us / 1e6
    # the reference job ran on the child's CPU while it imported; take that
    # share out as for an in-process interval
    share = 1 - sampler.stolen(start, end) / (end - start)
    return total_us / 1e6 * share * sampler.factor(start, end)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    rank = pct / 100 * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


class Bench:
    """One workload at one seed: set-up, the timed or traced run, the checks."""

    def __init__(self, spec: dict, name: str, seed: int):
        self.spec = spec
        self.name = name
        self.seed = seed
        self.wl = spec["workloads"][name]
        self.cli = self.wl["mode"] == "cli"
        self.work_dir = os.path.join(RUN_DIR, f"{name}-{os.getpid()}")
        self.tracer = None
        self.sampler = None

    # -- executing one query

    def execute(self, q) -> tuple[str | None, str | None]:
        """(payload text, problem); the text is None when the query failed."""
        if self.cli:
            return self._execute_cli(q)
        try:
            return workloads.run_library(q), None
        except Exception as exc:  # a failed query is counted, not fatal
            return None, f"raised {exc!r}"

    def _execute_cli(self, q) -> tuple[str | None, str | None]:
        if self.tracer is None:
            argv = [sys.executable, "-m", "fpxplain.cli"] + q.cli_args()
        else:
            spans_path = os.path.join(self.work_dir, f"spans-{q.qid}.json")
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path,
                    str(q.qid)] + q.cli_args()
        try:
            proc = run_child(argv)
        except subprocess.TimeoutExpired:
            return None, f"no exit within {CHILD_TIMEOUT_S} s"
        if self.tracer is not None:
            with open(spans_path) as fh:
                self.tracer.merge(json.load(fh))
        if proc.returncode not in (0, 1):
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        text = proc.stdout.rstrip("\n")
        try:
            said_no = json.loads(text).get("answer") is False
        except ValueError:
            return None, "stdout is not a JSON payload"
        if proc.returncode != (1 if said_no else 0):
            return None, f"exit {proc.returncode} but answer is {not said_no}"
        return text, None

    # -- set-up

    def setup(self) -> float:
        """Package import, generation and serialization of the first cycle
        of rounds, warm-up.

        The import is timed in a fresh interpreter, the rest in this process.
        Repeated spec['setup_repeats'] times; returns the median seconds and
        keeps the last repetition's stream, rounds and warm-up queries.
        """
        module = "fpxplain.cli" if self.cli else "fpxplain.runner, fpxplain.serialize"
        parts = []
        for _ in range(self.spec["setup_repeats"]):
            import_s = import_seconds(module, self.sampler)
            start = time.perf_counter()
            self.stream = workloads.QueryStream(
                self.spec, self.name, self.seed, self.work_dir if self.cli else None)
            self.pending = [self.stream.next_round() for _ in self.wl["rounds"]]
            self.warm = workloads.warmup_queries(self.spec, self.name, self.seed)
            if self.cli:
                workloads.write_model_files(self.warm, self.work_dir, "warmup")
                warm = self.warm[:2]  # file cache and bytecode; the rest is alike
            else:
                warm = self.warm
            for q in warm:
                self.execute(q)
            parts.append((import_s, start, time.perf_counter()))
        return statistics.median(i + self.elapsed(a, b) for i, a, b in parts)

    def elapsed(self, start: float, end: float) -> float:
        """Seconds from start to end, at the reference speed when sampling."""
        if self.sampler is None:
            return end - start
        return self.sampler.scaled(start, end)

    def rounds(self):
        """The set-up rounds, then fresh ones."""
        while True:
            yield self.pending.pop(0) if self.pending else self.stream.next_round()

    # -- checks shared by both runs

    def check(self, queries, texts, problems: dict[int, str]) -> int:
        """Fold the answer checks of one round into `problems`; return the
        number of oracle comparisons."""
        failures, oracle_checked = checks.check_answers(queries, texts)
        for qid, reason in failures.items():
            problems.setdefault(qid, reason)
        return oracle_checked

    def digest_check(self, texts, problems: dict[int, str], check_set) -> tuple[str, str | None]:
        """(note, problem) for the check-set digest against the recorded one."""
        recorded = load_digests().get(self.name, {}).get(str(self.seed))
        got = checks.digest(texts)
        if recorded is None:
            return f"digest {got}: no recorded digest for seed {self.seed}", None
        if got == recorded:
            return f"digest {got}: matches the recorded digest", None
        for qid in check_set:
            problems.setdefault(qid, "check-set digest mismatch")
        return f"digest {got}", f"digest {got} differs from the recorded {recorded}"

    # -- the timed run

    def timed(self, seconds: float) -> dict:
        """Closed loop over the stream for `seconds`; generating and checking
        rounds happens with the clock stopped."""
        self.sampler = calib.SpeedSampler(self.spec["reference_s"])
        self.sampler.start()
        try:
            return self._timed(seconds)
        finally:
            self.sampler.stop()

    def _timed(self, seconds: float) -> dict:
        setup_s = self.setup()
        size = self.wl["check_queries"]
        intervals, problems, keys, check_texts = [], {}, set(), []
        attempted = oracle_checked = 0
        hygiene = []
        warm_keys = {checks.key_digest(q) for q in self.warm}
        paused = 0.0
        start = time.perf_counter()
        running = True
        rounds = self.rounds()
        while True:
            t0 = time.perf_counter()
            batch = next(rounds)
            paused += time.perf_counter() - t0
            texts = []
            for q in batch:
                if running and time.perf_counter() - start - paused >= seconds:
                    running = False
                    wall = time.perf_counter() - start - paused
                if not running and q.qid >= size:
                    break
                t0 = time.perf_counter()
                text, problem = self.execute(q)
                if running:
                    intervals.append((t0, time.perf_counter()))
                texts.append(text)
                if problem:
                    problems[q.qid] = problem
            t0 = time.perf_counter()
            done = batch[:len(texts)]
            oracle_checked += self.check(done, texts, problems)
            for q, text in zip(done, texts):
                key = checks.key_digest(q)
                if key in keys:
                    hygiene.append(f"query {q.qid} repeats an earlier timed query")
                if key in warm_keys:
                    hygiene.append(f"query {q.qid} repeats a warm-up query")
                keys.add(key)
                if q.qid < size:
                    check_texts.append(text if text is not None else "")
            attempted += len(done)
            paused += time.perf_counter() - t0
            if not running and len(check_texts) >= size:
                break
        # scaled once the run is over, so every query has samples after it
        latencies = [self.sampler.scaled(a, b) for a, b in intervals]
        raw = [b - a for a, b in intervals]
        completed = len(latencies)
        note, problem = self.digest_check(check_texts, problems, range(size))
        notes = [f"answer checks: {attempted - len(problems)} of {attempted} passed, "
                 f"{oracle_checked} compared with their oracle twin",
                 f"cache hygiene: {len(keys)} distinct queries, none a warm-up query"
                 if not hygiene else "cache hygiene FAILED", note]
        bad = hygiene[:10] + ([problem] if problem else [])

        usage = resource.RUSAGE_CHILDREN if self.cli else resource.RUSAGE_SELF
        lat = sorted(latencies)
        pct = self.wl["tail_percentile"]
        tail = percentile(lat, pct)
        metrics = {
            "query_p50_ms": statistics.median(lat) * 1000,
            "query_tail_ms": tail * 1000,
            "queries_per_s": completed / sum(lat),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }
        failed = len(problems)
        print(f"workload {self.name}, seed {self.seed}: {completed} queries in "
              f"{wall:.2f} s, closed loop, 1 client"
              + (", one process per query" if self.cli else ""))
        samples = self.sampler.durations
        print(f"  times at the reference speed ({self.spec['reference_s'] * 1000:g} ms "
              f"reference job; {len(samples)} samples, median "
              f"{statistics.median(samples) * 1000:.4g} ms); wall time: p50 "
              f"{statistics.median(raw) * 1000:.6g} ms, {completed / wall:.6g} queries/s")
        for key, unit in END_TO_END:
            line = f"  {key:<16} {metrics[key]:.6g} {unit}"
            if key == "queries_per_s":
                line += "  (completed queries over the time spent in them)"
            if key == "query_tail_ms":
                beyond = sum(1 for v in lat if v > tail)
                line += f"  (p{pct} of {completed} samples, {beyond} beyond it)"
            if key == "setup_s":
                line += f"  (median of {self.spec['setup_repeats']} set-ups)"
            if key == "peak_rss_mb":
                line += "  (peak over child processes)" if self.cli else "  (this process)"
            print(line)
            if key == "queries_per_s":
                print(f"  {'fail_ratio':<16} {failed / attempted:.6g}  "
                      f"({failed} of {attempted} attempted)")
        return self.verdict(notes, bad, problems, attempted,
                            {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END})

    # -- the traced run

    def traced(self) -> dict:
        """The check set once untraced and once traced."""
        size = self.wl["check_queries"]
        self.setup()
        queries = []
        for batch in self.rounds():
            queries += batch
            if len(queries) >= size:
                break
        queries = queries[:size]
        problems: dict[int, str] = {}

        def one_pass():
            texts = []
            start = time.perf_counter()
            for q in queries:
                if self.tracer is None:
                    text, problem = self.execute(q)
                else:
                    self.tracer.query = q.qid
                    text, problem = self.tracer.span("bench.query", "bench.query",
                                                     self.execute, q)
                texts.append(text)
                if problem:
                    problems.setdefault(q.qid, problem)
            return texts, time.perf_counter() - start

        plain, plain_wall = one_pass()
        attribution.size_stratified_sums.cache_clear()  # same work in both passes
        self.tracer = spans.Tracer(self.spec["layers"])
        self.tracer.install()
        try:
            traced, traced_wall = one_pass()
        finally:
            self.tracer.uninstall()
        tracer, self.tracer = self.tracer, None

        oracle_checked = self.check(queries, plain, problems)
        note, problem = self.digest_check([t or "" for t in plain], problems,
                                          [q.qid for q in queries])
        keys = {checks.key_digest(q) for q in queries}
        clean = len(keys) == len(queries) and \
            not keys & {checks.key_digest(q) for q in self.warm}
        notes = [f"answer checks: {size - len(problems)} of {size} passed, "
                 f"{oracle_checked} compared with their oracle twin",
                 "cache hygiene: " + ("queries distinct, none a warm-up query"
                                      if clean else "FAILED"), note]
        bad = ([] if clean else ["cache hygiene failed"]) + ([problem] if problem else [])
        if checks.digest(traced) == checks.digest(plain):
            notes.append("traced payload digest equals the untraced one")
        else:
            bad.append("traced payloads differ from untraced ones")
            problems.update({q.qid: "traced payload differs" for q, a, b in
                             zip(queries, plain, traced) if a != b})

        self_s = tracer.self_times()
        counts = tracer.counts()
        layer = dict(counts)
        for group, seconds in self_s.items():
            layer[f"{group}_s"] = seconds
        layer.update(self.model_counts(queries))
        layer["runner.fast_route_ratio"] = sum(
            1 for t in plain if t is not None and json.loads(t)["algorithm"] != "oracle"
        ) / len(queries)
        layer["serialize.bytes_in"] = sum(len(q.model_text.encode()) for q in queries)
        layer["serialize.bytes_out"] = sum(len(t.encode()) for t in plain if t is not None)
        layer["cli.interpreter_ms"] = probe_ms("pass", self.spec["probe_repeats"])
        layer["cli.import_ms"] = probe_ms("import fpxplain.cli", self.spec["probe_repeats"])
        layer["trace.overhead"] = traced_wall / plain_wall

        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{self.name}-seed{self.seed}.jsonl")
        with open(spans_path, "w") as fh:
            tracer.dump(fh)

        print(f"workload {self.name}, seed {self.seed}: traced run over the "
              f"{size}-query check set")
        print(f"  queries_per_s untraced {size / plain_wall:.6g} 1/s, traced "
              f"{size / traced_wall:.6g} 1/s (overhead x{layer['trace.overhead']:.4f})")
        names = [m for m in self.spec["layers"]] + ["bench.query_s", "cli.main_s",
                                                    "cli.import_s"]
        for metric in names:
            if metric in layer:
                print(f"  {metric:<28} {layer[metric]:.6g}")
            elif metric.endswith("_s"):
                print(f"  {metric:<28} idle (this workload does not reach it)")
            else:
                print(f"  {metric:<28} 0")
        print("  wait time: none to report; one client, and no layer has a queue "
              "or a lock")
        print(f"  spans: {spans_path}")
        metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in PER_LAYER}
        return self.verdict(notes, bad, problems, len(queries), metrics)

    def model_counts(self, queries) -> dict:
        """trees.cylinders and trees.candidates over the distinct tree models."""
        from fpxplain.models import Ensemble
        from fpxplain.serialize import parse_instance
        models, pairs = {}, {}
        for q in queries:
            if isinstance(q.model, Ensemble):
                models[q.model_text] = q.model
                pairs[(q.model_text, q.instance)] = (q.model, q.instance)
        return {
            "trees.cylinders": sum(len(trees.cylinder_decomposition(e))
                                   for e in models.values()),
            "trees.candidates": sum(
                len(trees.enumerate_candidate_contrastive(e, parse_instance(x)))
                for e, x in pairs.values()),
        }

    def verdict(self, notes, bad, problems, attempted, metrics) -> dict:
        for note in notes:
            print(f"  {note}")
        for qid, reason in sorted(problems.items())[:10]:
            print(f"  FAILED query {qid}: {reason}")
        for reason in bad:
            print(f"  FAILED: {reason}")
        correct = not problems and not bad
        print(f"  verdict: {'correct' if correct else 'NOT correct'}")
        return {"correct": correct, "attempted": attempted, "failed": len(problems),
                "metrics": metrics}

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass  # another run still uses it


def load_digests() -> dict:
    try:
        with open(DIGESTS_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def record_digests(spec: dict, names: list[str]):
    """Digest of each workload's check set at the recorded seeds, computed
    in-process (CLI stdout is the same canonical text plus a newline)."""
    out = load_digests()
    seeds = RECORDED_SEEDS + [spec["held_out_seed"]]
    for name in names:
        size = spec["workloads"][name]["check_queries"]
        table = out.setdefault(name, {})
        for seed in seeds:
            stream = workloads.QueryStream(spec, name, seed, None)
            table[str(seed)] = checks.digest(
                workloads.run_library(q) for q in stream.first(size))
            print(f"{name} seed {seed}: {table[str(seed)]}", flush=True)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(spec: dict, args) -> dict:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"workload {name} failed with exit {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(f"all workloads: {'correct' if combined['correct'] else 'NOT correct'}")
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fpxplain", "__init__.py")):
        print("error: src/fpxplain not found; run from the root of an fpxplain "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # imported only now: they import fpxplain, which must come from ./src
    global attribution, checks, spans, trees, workloads
    import checks
    import spans
    import workloads
    from fpxplain import attribution, trees

    spec = workloads.load_spec()
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    if any(n not in spec["workloads"] for n in names):
        parser.error(f"--workload must be 'all' or one of {', '.join(spec['workloads'])}")
    if args.record_digests:
        record_digests(spec, names)
        return 0
    if args.workload == "all":
        result = run_all(spec, args)
    else:
        calib.pin_to_one_cpu()
        bench = Bench(spec, args.workload, args.seed)
        os.makedirs(bench.work_dir, exist_ok=True)
        try:
            result = bench.traced() if args.trace else bench.timed(args.seconds)
        finally:
            bench.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
