"""Benchmark of oakit's search kernel, parallel driver and audit certificates.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are listed in BENCHMARK.json and bench/workloads.py.  Load is a
closed loop with one client: the next question is asked only after the
previous answer arrived, as a script drives the batch CLI.  Questions are
asked in this process through oakit's public entry points, imported from
the checkout's `src/`; only `search-par` starts processes (2 pool workers).

A run sets up several times (a fresh import of oakit compiled from source,
then building, permuting and writing the inputs) and reports the median as
`setup_s`.  It then runs passes over the workload's question list: at least
one, and another whenever one as long as the last would still end within S
seconds.  Every answer is checked after its pass.  With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes, reports the per-layer metrics of the
traced ones and the traced-minus-untraced pass time as `trace.overhead_s`,
and writes the spans to .bench_build/oakit-bench/traces/.

Every reported time is scaled to the reference machine's nominal speed by
the host speed sampled during the same interval (see speed.py); the raw
wall times and scale factors are printed on the `#` lines before the result.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A wrong answer to a question not listed as a known
defect in bench/workloads.py makes `correct` false and the exit code 1.
"""

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "oakit-bench"

SETUP_REPEATS = 11


def import_oakit():
    """Import oakit afresh from src/, compiling from source, and return its entry points.

    Bytecode is looked up under a directory that never exists and is never
    written, so every set-up compiles oakit, whatever caches the checkout has.
    """
    for name in [n for n in sys.modules if n == "oakit" or n.startswith("oakit.")]:
        del sys.modules[name]
    sys.pycache_prefix = str(OUT / "no-pycache")
    try:
        oakit = importlib.import_module("oakit")
        modules = {layer: importlib.import_module(f"oakit.{layer}") for layer in layers.LAYERS}
    finally:
        sys.pycache_prefix = None
    return SimpleNamespace(
        main=modules["cli"].main,
        search_oa=modules["search"].search_oa,
        SearchProblem=oakit.SearchProblem,
        OrthogonalArray=oakit.OrthogonalArray,
        format_oa=oakit.format_oa,
        generate_linear_oa=oakit.generate_linear_oa,
        stack=oakit.stack,
        modules=modules,
    )


def ask(api, question):
    """Ask one question; an exception is an answer that fails every check."""
    try:
        if question.kind == "count":
            n, k, lam = question.args
            result = api.search_oa(api.SearchProblem(n, k, lam, mode="count"))
            return workloads.Answer(None, workloads.count_answer_text(result, api.format_oa))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = api.main(list(question.args))
        return workloads.Answer(code, out.getvalue())
    except Exception:
        return workloads.Answer("exception", traceback.format_exc())


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(api, questions, probe):
    """One pass; `scale` turns its times into times at the reference speed."""
    gc.collect()
    mark = probe.mark()
    cpu0, child0 = time.process_time(), children_cpu()
    start = time.perf_counter()
    answers = [ask(api, q) for q in questions]
    wall = time.perf_counter() - start
    child = children_cpu() - child0
    return SimpleNamespace(
        wall=wall,
        cpu=time.process_time() - cpu0 + child,
        child_cpu=child,
        scale=probe.scale(mark),
        answers=answers,
    )


class Ledger:
    """Counts attempted and failed questions; reports wrong answers on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.defects_seen = set()

    def check(self, questions, answers):
        for question, answer in zip(questions, answers):
            self.attempted += 1
            problems = question.check(answer)
            if not problems:
                continue
            self.failed += 1
            if question.known_defect:
                if question.label not in self.defects_seen:
                    self.defects_seen.add(question.label)
                    print(f"bench: known defect: {question.label}: {question.known_defect}", file=sys.stderr)
                continue
            self.unexpected += 1
            shown = "; ".join(p[:160] for p in problems[:3])
            print(f"bench: WRONG ANSWER {question.label}: {shown}", file=sys.stderr)


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; the children figure is the largest child's.
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + child_kib) / 1024


def _show(label, values):
    return f"{label} {' '.join(f'{v:.4f}' for v in values)}"


def _time_left(start, seconds, last):
    """Whether a repeat as long as the last one still ends within `seconds`."""
    return time.perf_counter() - start + last <= seconds


def measure(api, questions, seconds, ledger, probe):
    passes = []
    start = time.perf_counter()
    while not passes or _time_left(start, seconds, passes[-1].wall):
        p = run_pass(api, questions, probe)
        ledger.check(questions, p.answers)
        passes.append(p)
    walls = [p.wall * p.scale for p in passes]
    print(f"# passes {len(passes)} {_show('raw_wall_s', [p.wall for p in passes])}"
          f" {_show('speed_scale', [p.scale for p in passes])}")
    return {
        "batch_s": median(walls),
        "answers_per_s": len(questions) * len(passes) / sum(walls),
        "cpu_s": median(p.cpu * p.scale for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
    }


def measure_traced(api, questions, seconds, ledger, tracer, probe):
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    pair = 0.0
    while not traced or _time_left(start, seconds, pair):
        pair_start = time.perf_counter()
        p = run_pass(api, questions, probe)
        ledger.check(questions, p.answers)
        plain.append(p.wall * p.scale)
        tracer.install(api)
        try:
            p = run_pass(api, questions, probe)
        finally:
            tracer.uninstall()
        ledger.check(questions, p.answers)
        traced.append(p.wall * p.scale)
        checks = sum(
            line.startswith("CHECK ") for a in p.answers for line in a.stdout.splitlines()
        )
        per_pass.append(tracer.end_pass(p.child_cpu, checks, p.scale))
        pair = time.perf_counter() - pair_start
    print(f"# pass pairs {len(traced)} {_show('untraced_s', plain)} {_show('traced_s', traced)}")
    metrics = layers.median_metrics(per_pass)
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oakit" / "__init__.py").is_file():
        print(f"bench: no oakit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "search-par" and len(os.sched_getaffinity(0)) < 2:
        print("bench: search-par skipped: it runs 2 workers and needs 2 CPUs", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        with speed.SpeedProbe() as probe:
            setup = []
            for i in range(SETUP_REPEATS):
                start = time.perf_counter()
                api = import_oakit()
                questions = workloads.build(args.workload, args.seed, api, workdir / str(i), ROOT)
                setup.append(time.perf_counter() - start)
            setup_scale = probe.scale(0)
            print(f"# setup {_show('raw_s', setup)} speed_scale {setup_scale:.4f}")

            ledger = Ledger()
            if args.trace:
                tracer = layers.Tracer()
                metrics = measure_traced(api, questions, args.seconds, ledger, tracer, probe)
                tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.tsv")
            else:
                metrics = measure(api, questions, args.seconds, ledger, probe)
                metrics["setup_s"] = median(setup) * setup_scale
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    unit = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(unit):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(unit))} disagree with BENCHMARK.json")
    print(json.dumps({
        "correct": ledger.unexpected == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }))
    return 0 if ledger.unexpected == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
