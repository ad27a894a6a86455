"""Per-layer tracing from outside the program.

The tracer replaces each traced public function of diffcomb, in every module
namespace that bound it, by a wrapper that records a span (name, start, end,
parent span) and the few argument values its counts come from (COUNTED); the
counts themselves are derived after the pass, so no span times them.
Because modules look their globals up at call time, nested calls such as
generate_window(bernoullised) -> generate_window(base) go through the wrappers
too.  Spans stay in memory; the caller writes them out when the run ends.

Self time of a span is its duration minus the durations of its child spans
(one thread, so children never overlap).  A metric named ``<fn>.s`` is the
inclusive time of the outermost calls of that function, ``<fn>.self_s`` the
summed self time; ``util.write_table.s`` is self time, so the JSON table's
nested write_json is reported once, under ``util.write_json.s``.  Metrics of
the ``_util`` module are named ``util.*`` because metric names start with a
letter.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

from workloads import table_rows

# Layer -> public functions whose calls are spans.
TRACED = {
    "combs": ("generate_window", "rs_weights", "index_uniforms"),
    "spectra": ("bragg_weight", "direct_intensity", "periodogram", "ensemble_binned_masses"),
    "correlation": ("empirical_autocorrelation", "verify_rs_recursions", "analytic_autocorrelation"),
    "order": ("patch_complexity", "block_entropy"),
    "products": ("product_autocorrelation",),
    "_util": ("write_table", "write_json"),
}

CLI_COMMANDS = (
    "generate", "product", "diffract", "bragg", "homometry",
    "verify_rs", "complexity", "entropy", "autocorr",
)

# Per-layer metrics, in the order BENCHMARK.json lists them: name -> unit.
PER_LAYER = {
    "combs.rs_weights.s": "s",
    "combs.index_uniforms.s": "s",
    "combs.generate_window.calls": "count",
    "combs.generate_window.self_s": "s",
    "combs.sites_generated": "count",
    "combs.sites_distinct": "count",
    "combs.distinct_ratio": "ratio",
    "spectra.bragg_weight.self_s": "s",
    "spectra.direct_intensity.s": "s",
    "spectra.direct_terms": "count",
    "spectra.periodogram.self_s": "s",
    "spectra.fft_points": "count",
    "spectra.ensemble_binned_masses.self_s": "s",
    "correlation.empirical_autocorrelation.self_s": "s",
    "correlation.dot_terms": "count",
    "correlation.verify_rs_recursions.s": "s",
    "correlation.equations": "count",
    "correlation.analytic_autocorrelation.s": "s",
    "order.patch_complexity.self_s": "s",
    "order.block_entropy.self_s": "s",
    "order.subwords": "count",
    "products.product_autocorrelation.s": "s",
    "util.write_table.s": "s",
    "util.write_json.s": "s",
    "util.rows": "count",
    "util.bytes": "bytes",
    **{f"cli.{command}.s": "s" for command in CLI_COMMANDS},
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "trace_overhead_s": "s",
}

# Traced function -> the values its counts are derived from after the pass
# (see _counts): call arguments by parameter name, "result" for the return value.
COUNTED = {
    "combs.generate_window": ("spec", "first", "last"),
    "spectra.direct_intensity": ("window",),
    "spectra.periodogram": ("G",),
    "correlation.empirical_autocorrelation": ("N", "M"),
    "correlation.verify_rs_recursions": ("result",),
    "order.block_entropy": ("N", "k"),
    "order.patch_complexity": ("N", "L_max"),
    "_util.write_table": ("path", "output_format"),
    "_util.write_json": ("path",),
}

# Counts must repeat exactly between passes and between runs of the same code.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes", "ratio"))


def _subword_count(size: int, length: int) -> int:
    return max(size - length + 1, 0)


def _getter(fn, param: str):
    """Reads one recorded value of a call to fn from (args, kwargs, result).

    Set up once per function, so a traced call does no signature binding.  A
    window is recorded by its length, so traced passes keep no call's data alive.
    """
    if param == "result":
        return lambda args, kwargs, result: result
    parameters = list(inspect.signature(fn).parameters.values())
    index = [parameter.name for parameter in parameters].index(param)
    default = parameters[index].default
    size = param == "window"

    def get(args, kwargs, result):
        value = args[index] if index < len(args) else kwargs.get(param, default)
        return len(value) if size else value

    return get


def _counts(name: str, a: dict) -> dict:
    """Work counts of one call, from its recorded values (see COUNTED)."""
    if name == "combs.generate_window":
        return {"spec": a["spec"], "first": a["first"], "last": a["last"]}
    if name == "spectra.direct_intensity":
        return {"direct_terms": a["window"]}
    if name == "spectra.periodogram":
        return {"fft_points": a["G"]}
    if name == "correlation.empirical_autocorrelation":
        return {"dot_terms": (a["M"] + 1) * (2 * a["N"] + 1)}
    if name == "correlation.verify_rs_recursions":
        return {"equations": a["result"].checked}
    if name == "order.block_entropy":
        return {"subwords": _subword_count(2 * a["N"] + 1, a["k"])}
    if name == "order.patch_complexity":
        N, L_max = a["N"], a["L_max"]
        return {"subwords": sum(
            _subword_count(2 * N + 1, L) + _subword_count(4 * N + 1, L) for L in range(1, L_max + 1)
        )}
    return {"path": str(a["path"]), "format": a.get("output_format", "json")}  # _util writers


class Tracer:
    """Spans of one traced pass, kept in memory: [name, start, end, parent, recorded values]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        getters = [_getter(fn, param) for param in COUNTED.get(name, ())]

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if getters:
                tracer.spans[index][4] = [get(args, kwargs, result) for get in getters]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every diffcomb namespace that bound it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "diffcomb" or key.startswith("diffcomb.")]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"diffcomb.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def write_spans(path: Path, traced_passes: dict[int, Tracer]) -> None:
    """Write the spans of every traced pass as JSON: {pass: [[name, start, end, parent]]}."""
    records = {
        str(index): [[name, start, end, parent] for name, start, end, parent, _ in tracer.spans]
        for index, tracer in traced_passes.items()
    }
    path.write_text(json.dumps(records) + "\n", encoding="ascii")


def _distinct_sites(windows) -> int:
    """Sites counted once per (model, index); deterministic specs carry no seed."""
    by_spec: dict = {}
    for spec, first, last in windows:
        by_spec.setdefault(spec, []).append((first, last))
    total = 0
    for intervals in by_spec.values():
        intervals.sort()
        lo, hi = intervals[0]
        for first, last in intervals[1:]:
            if first > hi + 1:
                total += hi - lo + 1
                lo, hi = first, last
            else:
                hi = max(hi, last)
        total += hi - lo + 1
    return total


def _durations(spans: list[list]) -> tuple[list[float], list[float]]:
    """Duration and self time (duration minus child spans) of every span."""
    duration = [end - start for _, start, end, _, _ in spans]
    own = list(duration)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            own[span[3]] -= duration[index]
    return duration, own


def pass_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the run-level ones."""
    duration, own = _durations(spans)

    def outermost(index: int) -> bool:
        name, parent = spans[index][0], spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    windows = []
    written: set[str] = set()
    table_files: dict[str, str] = {}
    for index, (name, _, _, _, recorded) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + own[index]
        if outermost(index):
            inclusive[name] = inclusive.get(name, 0.0) + duration[index]
        if recorded is None:
            continue
        extra = _counts(name, dict(zip(COUNTED[name], recorded)))
        if name == "combs.generate_window":
            windows.append((extra["spec"], extra["first"], extra["last"]))
        elif name.startswith("_util."):
            if not extra["path"].endswith(".manifest.json"):
                written.add(extra["path"])
                if name == "_util.write_table":
                    table_files[extra["path"]] = extra["format"]
        else:
            for key, value in extra.items():
                counts[key] = counts.get(key, 0) + value

    generated = sum(last - first + 1 for _, first, last in windows)
    distinct = _distinct_sites(windows) if windows else 0
    metrics = {
        "combs.rs_weights.s": inclusive.get("combs.rs_weights", 0.0),
        "combs.index_uniforms.s": inclusive.get("combs.index_uniforms", 0.0),
        "combs.generate_window.calls": calls.get("combs.generate_window", 0),
        "combs.generate_window.self_s": self_time.get("combs.generate_window", 0.0),
        "combs.sites_generated": generated,
        "combs.sites_distinct": distinct,
        "combs.distinct_ratio": distinct / generated if generated else 0.0,
        "spectra.bragg_weight.self_s": self_time.get("spectra.bragg_weight", 0.0),
        "spectra.direct_intensity.s": inclusive.get("spectra.direct_intensity", 0.0),
        "spectra.direct_terms": counts.get("direct_terms", 0),
        "spectra.periodogram.self_s": self_time.get("spectra.periodogram", 0.0),
        "spectra.fft_points": counts.get("fft_points", 0),
        "spectra.ensemble_binned_masses.self_s": self_time.get("spectra.ensemble_binned_masses", 0.0),
        "correlation.empirical_autocorrelation.self_s":
            self_time.get("correlation.empirical_autocorrelation", 0.0),
        "correlation.dot_terms": counts.get("dot_terms", 0),
        "correlation.verify_rs_recursions.s": inclusive.get("correlation.verify_rs_recursions", 0.0),
        "correlation.equations": counts.get("equations", 0),
        "correlation.analytic_autocorrelation.s":
            inclusive.get("correlation.analytic_autocorrelation", 0.0),
        "order.patch_complexity.self_s": self_time.get("order.patch_complexity", 0.0),
        "order.block_entropy.self_s": self_time.get("order.block_entropy", 0.0),
        "order.subwords": counts.get("subwords", 0),
        "products.product_autocorrelation.s": inclusive.get("products.product_autocorrelation", 0.0),
        "util.write_table.s": self_time.get("_util.write_table", 0.0),
        "util.write_json.s": inclusive.get("_util.write_json", 0.0),
        "util.rows": sum(table_rows(Path(p), f) for p, f in table_files.items()),
        "util.bytes": sum(Path(p).stat().st_size for p in written),
    }
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.s"] = inclusive.get(f"cli.{command}", 0.0)
    metrics["cli.self_s"] = sum(t for name, t in self_time.items() if name.startswith("cli."))
    return metrics


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Share of the traced command time spent in each layer's own code (self time)."""
    duration, own = _durations(spans)
    by_layer: dict[str, float] = {}
    for index, span in enumerate(spans):
        layer = span[0].split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own[index]
    total = sum(duration[index] for index, span in enumerate(spans) if span[3] < 0)
    return {layer: t / total for layer, t in sorted(by_layer.items())} if total else {}
