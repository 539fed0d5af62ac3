"""Traced run: wrap the package's layer functions, run the CLI in-process, dump spans.

Usage (run by ``run.py``, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py TRACE.json -- moments --sigma ... --out ...

Spans (name, start, end, parent) and counters are kept in memory and written
to TRACE.json when the CLI returns.  The wrappers live here, in the
benchmark, not in the package: every module binding of a traced function is
replaced, because callers such as ``reports`` and ``ensemble`` import
functions by name and would otherwise bypass a patch of the defining module.

``layer_metrics`` turns one trace into the per-layer metrics of
BENCHMARK.json; self time is a span's duration minus the union of its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

PACKAGE = "rank1_spectra"

# Layer boundaries: module -> functions whose calls become spans.
TRACED = {
    "sigma_model": ("parse_sigma_spec", "sigma_values", "sigma_stats",
                    "limiting_averages", "_ladder_averages"),
    "combinatorics": ("enumerate_degree_profiles",),
    "moments": ("limiting_even_moment", "moment_lower_bound", "moment_upper_bound"),
    "radius_bounds": ("build_pencil", "sdp_lower_bound"),
    "ensemble": ("monte_carlo", "sample_matrix", "eigenvalues", "empirical_moments",
                 "_histogram"),
    "reports": ("lambda_vector", "moment_table", "radius_table"),
    "serialize": ("dumps_json", "histogram_csv"),
    "cli": ("main",),
}


class Tracer:
    """In-memory span and counter store; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.values: Dict[str, float] = {}
        self.profile_orders: set = set()
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index][1:3] = [start, end]
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    hook(self, bound.arguments, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "values": self.values,
            "profile_orders": len(self.profile_orders),
            "missing": self.missing,
        }


def _ladder_rung(t: Tracer, a: dict, result) -> None:
    t.counts["ladder_points"] += int(a["n"])


def _ladder(t: Tracer, a: dict, result) -> None:
    t.counts["ladder_rungs"] += int(result.rungs)
    t.counts["ladder_final_n"] += int(result.final_n)


def _profiles(t: Tracer, a: dict, result) -> None:
    t.counts["profiles_enumerated"] += len(result)
    t.profile_orders.add(int(a["s"]))


def _sample(t: Tracer, a: dict, result) -> None:
    n = int(a["config"].n)
    t.counts["entries_drawn"] += n * (n + 1) // 2


def _sdp(t: Tracer, a: dict, result) -> None:
    for key in ("beta", "ridge_scale", "condition_estimate", "method_agreement"):
        t.values[key] = float(getattr(result, key))


def _output(t: Tracer, a: dict, result) -> None:
    t.counts["output_bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "sigma_model._ladder_averages": _ladder_rung,
    "sigma_model.limiting_averages": _ladder,
    "combinatorics.enumerate_degree_profiles": _profiles,
    "ensemble.sample_matrix": _sample,
    "radius_bounds.sdp_lower_bound": _sdp,
    "serialize.dumps_json": _output,
    "serialize.histogram_csv": _output,
}


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function, in every package module."""
    wrappers = {}
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        for name in names:
            span = f"{module_name}.{name}"
            fn = getattr(module, name, None)
            if not callable(fn):
                tracer.missing.append(span)
                continue
            wrappers[id(fn)] = (fn, tracer.wrap(span, fn, HOOKS.get(span)))
    modules = [m for key, m in list(sys.modules.items())
               if key == PACKAGE or key.startswith(PACKAGE + ".")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark process)
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced run (the ``cli.cpu_s`` and
    ``cli.trace_overhead_s`` entries come from the process measurements in
    run.py).  A layer the workload never calls reads 0."""
    spans = trace["spans"]
    counts = Counter(trace["counts"])
    values = trace["values"]
    total, self_, calls = Counter(), Counter(), Counter()
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        total[name] += end - start
        self_[name] += own
        calls[name] += 1

    def under(index: int, ancestor: str) -> bool:
        parent = spans[index][3]
        while parent is not None:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    sigma_in_campaigns = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "sigma_model.sigma_values" and under(i, "ensemble.monte_carlo")
    )
    module_self = Counter()
    for name, own in self_.items():
        module_self[name.split(".")[0]] += own
    return {
        "sigma_model.limiting_averages_s": total["sigma_model.limiting_averages"],
        "sigma_model.ladder_rungs": counts["ladder_rungs"],
        "sigma_model.ladder_points": counts["ladder_points"],
        "sigma_model.ladder_useful_ratio": _ratio(counts["ladder_final_n"],
                                                  counts["ladder_points"]),
        "sigma_model.sigma_values_calls": calls["sigma_model.sigma_values"],
        "sigma_model.sigma_values_s": total["sigma_model.sigma_values"],
        "combinatorics.enumerate_profiles_calls": calls["combinatorics.enumerate_degree_profiles"],
        "combinatorics.profiles_enumerated": counts["profiles_enumerated"],
        "combinatorics.enumerate_profiles_s": total["combinatorics.enumerate_degree_profiles"],
        "combinatorics.profile_reuse_ratio": _ratio(
            trace["profile_orders"], calls["combinatorics.enumerate_degree_profiles"]),
        "moments.limiting_even_moment_s": total["moments.limiting_even_moment"],
        "moments.limiting_even_moment_calls": calls["moments.limiting_even_moment"],
        "moments.moment_lower_bound_s": total["moments.moment_lower_bound"],
        "moments.moment_lower_bound_calls": calls["moments.moment_lower_bound"],
        "moments.self_s": module_self["moments"],
        "radius_bounds.build_pencil_s": total["radius_bounds.build_pencil"],
        "radius_bounds.sdp_lower_bound_s": total["radius_bounds.sdp_lower_bound"],
        "radius_bounds.beta": values.get("beta", 0.0),
        "radius_bounds.ridge_scale": values.get("ridge_scale", 0.0),
        "radius_bounds.condition_estimate": values.get("condition_estimate", 0.0),
        "radius_bounds.method_agreement": values.get("method_agreement", 0.0),
        "ensemble.monte_carlo_self_s": self_["ensemble.monte_carlo"],
        "ensemble.sample_matrix_s": total["ensemble.sample_matrix"],
        "ensemble.sample_matrix_calls": calls["ensemble.sample_matrix"],
        "ensemble.eigenvalues_s": total["ensemble.eigenvalues"],
        "ensemble.empirical_moments_s": total["ensemble.empirical_moments"],
        "ensemble.entries_drawn": counts["entries_drawn"],
        "ensemble.sigma_reuse_ratio": _ratio(calls["ensemble.monte_carlo"], sigma_in_campaigns),
        "reports.lambda_vector_s": total["reports.lambda_vector"],
        "reports.moment_table_self_s": self_["reports.moment_table"],
        "reports.radius_table_self_s": self_["reports.radius_table"],
        "serialize.dumps_json_s": total["serialize.dumps_json"],
        "serialize.histogram_csv_s": total["serialize.histogram_csv"],
        "serialize.output_bytes": counts["output_bytes"],
        "cli.main_s": total["cli.main"],
    }


def stress_seconds(trace: dict, patterns: List[str]) -> float:
    """Time in the spans named by ``patterns``: ``mod.*`` sums the self time
    of the module's spans; an exact name takes the span's total time."""
    covered = 0.0
    for (name, start, end, _), own in zip(trace["spans"], self_times(trace["spans"])):
        for pattern in patterns:
            if pattern.endswith(".*") and name.startswith(pattern[:-1]):
                covered += own
            elif name == pattern:
                covered += end - start
    return covered


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <cli arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    install(tracer)
    try:
        return cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
