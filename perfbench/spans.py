"""Spans and counters around harmgerm's public functions.

The recorder wraps every public function of the library modules from
outside: it rebinds each module attribute that refers to the original
function, so calls made through `from .x import f` bindings are seen
too. Nothing in the library changes. Spans are kept in memory, one per
call made while an operation is open, and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Layer modules whose public functions are wrapped. The active backend's
# kernels in "_kernels" are reported as "kernels", because metric names
# must start with a letter.
LAYER_MODULES = (
    "polyring",
    "linalg",
    "graded",
    "harmonic",
    "jets",
    "determinacy",
    "equivalence",
    "selftest",
    "cli",
)
KERNEL_MODULE = "harmgerm._kernels"
CACHED = {
    "harmonic.harmonic_pair": ("harmonic", "harmonic_pair"),
    "determinacy.determined_bound_report": ("determinacy", "determined_bound_report"),
}


def coeff_bits(terms) -> int:
    """Largest numerator or denominator bit length among term coefficients."""
    bits = 0
    for c in terms:
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _count_poly_mul(counters, args, result):
    p, q = args[0], args[1]
    counters["kernels.poly_mul.term_pairs"] += len(p) * len(q)
    counters["kernels.poly_mul.out_terms"] += len(result)
    bits = coeff_bits(result.values())
    if bits > counters["kernels.poly_mul.max_coeff_bits"]:
        counters["kernels.poly_mul.max_coeff_bits"] = bits


def _count_rref(counters, args, result):
    rows = args[0]
    counters["kernels.rref.cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)
    counters["kernels.rref.nonzero_rows"] += sum(1 for row in rows if any(row))
    counters["kernels.rref.rank"] += len(result[1])


def _count_jet_compose(counters, args, result):
    counters["jets.jet_compose.terms_in"] += len(args[0].poly)


def _count_check_determinacy(counters, args, result):
    counters["determinacy.check_determinacy.products"] += len(result.products)


def _count_reduce_germ(counters, args, result):
    counters["equivalence.maps"] += len(result.maps)
    bits = 0
    for phi in result.maps:
        for jet in (phi.x, phi.y):
            bits = max(bits, coeff_bits(c for _, c in jet.poly.terms()))
    if bits > counters["equivalence.witness_bits_max"]:
        counters["equivalence.witness_bits_max"] = bits


def _count_selftest(counters, args, result):
    counters["selftest.run_selftest.checks"] += len(result.checks)


MAX_COUNTERS = {"kernels.poly_mul.max_coeff_bits", "equivalence.witness_bits_max"}
COUNTERS = {
    "kernels.poly_mul": _count_poly_mul,
    "kernels.rref": _count_rref,
    "jets.jet_compose": _count_jet_compose,
    "determinacy.check_determinacy": _count_check_determinacy,
    "equivalence.reduce_germ": _count_reduce_germ,
    "selftest.run_selftest": _count_selftest,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Recorder:
    """Collects spans and counters while wrappers are installed.

    Calls are recorded only while an operation is open (`op` is not
    None), so the benchmark's own checks of an output leave no trace.
    A span is (name, start, end, parent index, operation id).
    """

    def __init__(self):
        self.spans: list = []
        self.counters = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self.cache = {key: [0, 0] for key in CACHED}
        self.import_times: list[float] = []
        self._patched: list = []
        self._cache_start: dict = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counters, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the kernels, every public layer function and WitnessChain.verify."""
        import harmgerm.cli  # noqa: F401  (loads every layer module)

        targets = []
        kernels = sys.modules[KERNEL_MODULE]
        for fname in ("poly_mul", "rref"):
            targets.append((f"kernels.{fname}", getattr(kernels, fname)))
        for layer in LAYER_MODULES:
            module = sys.modules[f"harmgerm.{layer}"]
            for fname, fn in _public_functions(module):
                targets.append((f"{layer}.{fname}", fn))
        for key, (layer, fname) in CACHED.items():
            info = getattr(sys.modules[f"harmgerm.{layer}"], fname).cache_info()
            self._cache_start[key] = (info.hits, info.misses)
        wrapped = {id(fn): (fn, self._wrap(name, fn)) for name, fn in targets}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "harmgerm" and not mod_name.startswith("harmgerm."):
                continue
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrapped.get(id(value), (None, None))
                if fn is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        chain_cls = sys.modules["harmgerm.equivalence"].WitnessChain
        verify = chain_cls.__dict__["verify"]
        chain_cls.verify = self._wrap("equivalence.WitnessChain.verify", verify)
        self._patched.append((chain_cls, "verify", verify))

    def uninstall(self):
        """Restore every rebound attribute and add up the cache hits and misses seen."""
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()
        for key, (layer, fname) in CACHED.items():
            info = getattr(sys.modules[f"harmgerm.{layer}"], fname).cache_info()
            hits0, misses0 = self._cache_start[key]
            self.cache[key][0] += info.hits - hits0
            self.cache[key][1] += info.misses - misses0

    # -- output -----------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
            "cache": dict(self.cache),
            "import_s": self.import_times,
        }

    def merge(self, dump: dict, op) -> None:
        """Add a child process's dump, its spans re-parented and tagged with `op`."""
        offset = len(self.spans)
        for name, start, end, parent, _ in dump["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, op))
        for key, value in dump["counters"].items():
            if key in MAX_COUNTERS:
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        for key, (hits, misses) in dump["cache"].items():
            self.cache[key][0] += hits
            self.cache[key][1] += misses
        self.import_times.extend(dump["import_s"])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def outer_time(spans, name: str) -> float:
    """Total duration of `name` spans not nested inside another `name` span."""
    total = 0.0
    for index, span in enumerate(spans):
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def write_spans(path, spans) -> None:
    """One JSON object per line: id, name, start, end, parent, op."""
    with open(path, "w") as fh:
        for index, (name, start, end, parent, op) in enumerate(spans):
            fh.write(
                json.dumps(
                    {"id": index, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                )
                + "\n"
            )


def _timed(name, *extra):
    return [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"), *extra]


# Per-layer metrics of a traced run: (name, unit, better).
LAYER_METRICS = [
    *_timed(
        "kernels.poly_mul",
        ("kernels.poly_mul.term_pairs", "count", "lower"),
        ("kernels.poly_mul.out_terms", "count", "lower"),
        ("kernels.poly_mul.max_coeff_bits", "bits", "lower"),
    ),
    *_timed(
        "kernels.rref",
        ("kernels.rref.cells", "count", "lower"),
        ("kernels.rref.rank_ratio", "ratio", "higher"),
    ),
    *_timed("linalg.solve_canonical"),
    *_timed("linalg.nullspace"),
    *_timed("graded.solve_membership"),
    *_timed("graded.kernel_basis"),
    *_timed("graded.product_space"),
    ("harmonic.harmonic_pair.calls", "count", "lower"),
    ("harmonic.harmonic_pair.hit_ratio", "ratio", "higher"),
    *_timed(
        "determinacy.determined_bound_report",
        ("determinacy.determined_bound_report.hit_ratio", "ratio", "higher"),
    ),
    *_timed(
        "determinacy.check_determinacy",
        ("determinacy.check_determinacy.products", "count", "lower"),
    ),
    *_timed("determinacy.reverify_certificate"),
    *_timed("jets.jet_compose", ("jets.jet_compose.terms_in", "count", "lower")),
    *_timed("jets.inverse_scale_map"),
    *_timed("jets.complex_scale_map"),
    *_timed("equivalence.reduce_germ", ("equivalence.reduce_germ.self_s", "s", "lower")),
    *_timed("equivalence.WitnessChain.verify"),
    *_timed("equivalence.verify_biharmonic"),
    *_timed("equivalence.normalize_harmonic"),
    ("equivalence.maps_per_chain", "count", "lower"),
    ("equivalence.witness_bits_max", "bits", "lower"),
    *_timed("polyring.parse_poly"),
    *_timed("polyring.format_poly"),
    ("selftest.run_selftest.s", "s", "lower"),
    ("selftest.run_selftest.checks", "count", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("trace.ops_per_s_delta", "1/s", "higher"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(rec: Recorder) -> dict:
    """Every LAYER_METRICS value except trace.ops_per_s_delta, from a finished recording."""
    spans, counters = rec.spans, rec.counters
    calls = defaultdict(int)
    for span in spans:
        calls[span[0]] += 1
    values = {}
    for name, _, _ in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls[base]
        elif field == "s":
            values[name] = outer_time(spans, base)
        elif field not in ("hit_ratio", "rank_ratio"):
            values[name] = counters[name]
    for key, (hits, misses) in rec.cache.items():
        values[f"{key}.hit_ratio"] = _ratio(hits, hits + misses)
    values["kernels.rref.rank_ratio"] = _ratio(
        counters["kernels.rref.rank"], counters["kernels.rref.nonzero_rows"]
    )
    own = [t for span, t in zip(spans, self_times(spans)) if span[0] == "equivalence.reduce_germ"]
    values["equivalence.reduce_germ.self_s"] = sum(own)
    values["equivalence.maps_per_chain"] = _ratio(
        counters["equivalence.maps"], calls["equivalence.reduce_germ"]
    )
    values["cli.import_s"] = statistics.median(rec.import_times) if rec.import_times else 0.0
    values.pop("trace.ops_per_s_delta")
    return values
