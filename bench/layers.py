"""Per-layer spans of oakit, recorded from outside the package.

The layers are oakit's modules.  A span is recorded wherever one layer calls
a public function of another: each public function a module imports from a
sibling is replaced, in the importing module's namespace, by a wrapper that
records (name, start, end, parent).  `from .linalg import integer_rank`
binds `oakit.certificates.integer_rank`, so that is the name wrapped there.
Calls inside one module are not spans; they count as the caller's self
time.  The benchmark's own entry points, `cli.main` and `search.search_oa`,
are wrapped where the benchmark looks them up.

Spans are kept in memory per pass and written out when the run ends.  Pool
workers of the parallel search are separate processes the wrappers cannot
see into, so the parallel driver is measured through rusage instead.
"""

import inspect
from collections import Counter, defaultdict
from statistics import median
from time import perf_counter

LAYERS = ("cli", "arrays", "bounds", "certificates", "cyclotomic", "linalg", "search")

# certificates.<method>_s: self time of the functions each audit method calls.
CERTIFICATE_METHODS = {
    "variance": ("variance_audit",),
    "td_rank": ("to_transversal_design", "incidence_matrix", "rank_bound_certificate"),
    "gram": ("gram_certificate",),
    "roots": ("root_vector_family", "orthogonality_certificate"),
    "shortened": ("shortened_family_certificate",),
    "cwc": ("cwc_certificate",),
}

ARRAYS_FUNCTIONS = ("parse_oa", "strength_lambda", "row_multiplicities", "normalize_to_row")


def _det_ops(args, result):
    # Bareiss on an s x s matrix updates (s-1-i)**2 entries at step i.
    s = len(args[0])
    return (s - 1) * s * (2 * s - 1) // 6


def _rank_ops(args, result):
    # Upper bound: a pivot in each of the first min(r, c) columns.
    r = len(args[0])
    c = len(args[0][0]) if r else 0
    return sum((r - 1 - i) * (c - 1 - i) for i in range(min(r, c)))


# Counters recorded at a boundary from a call's arguments and result.
OBSERVERS = {
    "search.search_oa": {
        "search.nodes": lambda args, result: result.nodes_explored,
        "search.solutions": lambda args, result: result.solution_count,
    },
    "linalg.integer_det": {"linalg.bareiss_ops": _det_ops},
    "linalg.integer_rank": {"linalg.bareiss_ops": _rank_ops},
}


class Tracer:
    """Installs span-recording wrappers and turns one pass's spans into metrics."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.passes = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observers = OBSERVERS.get(name, {})

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            for key, observe in observers.items():
                counts[key] += observe(args, result)
            return result

        return traced

    def _patch(self, namespace, attr, name):
        original = getattr(namespace, attr)
        self._patches.append((namespace, attr, original))
        setattr(namespace, attr, self._wrap(name, original))

    def install(self, api):
        """Wrap every cross-layer lookup in oakit's modules, and api's entry points."""
        owner = {api.modules[layer].__name__: layer for layer in LAYERS}
        for module in api.modules.values():
            for attr, obj in list(vars(module).items()):
                layer = owner.get(getattr(obj, "__module__", None))
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and layer is not None
                    and obj.__module__ != module.__name__
                ):
                    self._patch(module, attr, f"{layer}.{attr}")
        self._patch(api, "main", "cli.main")
        self._patch(api, "search_oa", "search.search_oa")

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def end_pass(self, child_cpu_s, checks, scale):
        """Metrics of the pass just traced, times multiplied by `scale`.

        The pass's spans are kept for `write`, unscaled.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        witness_check = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            busy[name] += end - start
            own[name] += end - start - covered[i]
            calls[name] += 1
            if (
                name in ("arrays.strength_lambda", "arrays.row_multiplicities")
                and parent >= 0
                and spans[parent][0] == "search.search_oa"
            ):
                witness_check += end - start

        search_s = busy["search.search_oa"]
        nodes = self.counts["search.nodes"]
        m = {
            "search.busy_s": search_s,
            "search.nodes": nodes,
            "search.solutions": self.counts["search.solutions"],
            "search.witness_check_s": witness_check,
            "search.child_cpu_s": child_cpu_s,
            "search.parallel_efficiency": child_cpu_s / (2 * search_s) if search_s else 0.0,
            "cli.self_s": own["cli.main"],
            "cli.calls": calls["cli.main"],
        }
        for fn in ARRAYS_FUNCTIONS:
            m[f"arrays.{fn}_s"] = busy[f"arrays.{fn}"]
            m[f"arrays.{fn}.calls"] = calls[f"arrays.{fn}"]
        bounds = [name for name in busy if name.startswith("bounds.")]
        m["bounds.busy_s"] = sum(busy[name] for name in bounds)
        m["bounds.calls"] = sum(calls[name] for name in bounds)
        for method, functions in CERTIFICATE_METHODS.items():
            m[f"certificates.{method}_s"] = sum(own[f"certificates.{fn}"] for fn in functions)
        m["certificates.checks"] = checks
        m["linalg.det_s"] = busy["linalg.integer_det"]
        m["linalg.rank_s"] = busy["linalg.integer_rank"]
        m["linalg.calls"] = calls["linalg.integer_det"] + calls["linalg.integer_rank"]
        m["linalg.bareiss_ops"] = self.counts["linalg.bareiss_ops"]
        m["cyclotomic.reduce_s"] = busy["cyclotomic.reduce_root_sum"]
        m["cyclotomic.calls"] = calls["cyclotomic.reduce_root_sum"]
        for key in m:
            if key.endswith("_s"):
                m[key] *= scale
        m["search.nodes_per_s"] = nodes / m["search.busy_s"] if search_s else 0.0

        self.passes.append(list(spans))
        spans.clear()
        self.counts.clear()
        return m

    def write(self, path):
        """Write every traced pass's spans as tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("pass\tindex\tname\tstart\tend\tparent\n")
            for number, spans in enumerate(self.passes):
                for i, (name, start, end, parent) in enumerate(spans):
                    out.write(f"{number}\t{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def median_metrics(per_pass):
    """Per-metric median over passes."""
    return {key: median(m[key] for m in per_pass) for key in per_pass[0]}
