"""Traced in-process run of a workload's commands, and its per-layer metrics.

Run as a child process of ``run.py``:

    python3 perfbench/tracer.py PLAN.json RECORD.json

It times ``import starpart.cli``, runs every job twice through
``starpart.cli.main`` untraced (the first pass warms up), then wraps
module-level functions of starpart and runs the jobs again.  Each wrapper records a span (name,
start, end, parent) in memory; the spans are written to RECORD.json when
the run ends.  The wrappers are installed from this file, so nothing in
the program changes.  A hooked function that no longer exists is
skipped and its metrics are left out.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time

# (module, function, span name or None for a count-only hook, counter hook)
HOOKS = [
    ("starpart.instance_io", "parse_instance", "io.parse", "instance_bytes"),
    ("starpart.instance_io", "parse_solution", "io.parse", None),
    ("starpart.instance_io", "format_solution", "io.format", None),
    ("starpart.instance_io", "format_instance", "io.format", None),
    ("starpart.graph", "build_graph", "graph.build", None),
    ("starpart.flow_solver", "solve_flow_seeded", "flow.solve", None),
    ("starpart.flow_solver", "_test_x", "flow.probe", "probe"),
    ("starpart.flow_solver", "_network_from_slacks", "flow.network", None),
    ("starpart.flow_solver", "max_flow_unit", "flow.maxflow", "maxflow"),
    ("starpart.dfs_solver", "solve_with_state", "dfs.solve", "dfs_state"),
    ("starpart.dfs_solver", "_run_search", None, "search"),
    ("starpart.reductions", "ind_to_star", "reduce.ind_to_star", None),
    ("starpart.reductions", "recover_ind_solution", "reduce.recover", None),
    ("starpart.coloring", "is_valid", "coloring.check", None),
    ("starpart.coloring", "star_partition_value", "coloring.check", None),
    ("starpart.weighted", "approx2_wind", "weighted.approx", "approx"),
    ("starpart.weighted", "lp_feasible", "weighted.lp", "lp_call"),
    ("starpart.weighted", "round_fractional", "weighted.round", None),
    ("starpart.lp", "find_basic_feasible", "lp.simplex", None),
    ("starpart.lp", "_pivot", None, "pivot"),
]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.hooked: list[str] = []
        self.broken: list[str] = []  # counter hooks whose target changed shape
        self.approx_results: list[list] = []

    def add(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, label, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([label, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _count(self, hook, args, kwargs, result) -> None:
        if hook == "instance_bytes":
            self.add("io.instance_bytes", len(args[0].encode()))
        elif hook == "probe":
            self.add("flow.probes_failed", result is None)
        elif hook == "maxflow":
            self.add("flow.arcs", args[0].arc_count)
            self.add("flow.flow_value", result.value)
        elif hook == "dfs_state":
            self.add("dfs.edge_visits", result[1].edge_visits)
        elif hook == "search":
            self.add("dfs.searches")
            self.add("dfs.searches_failed", not result)
        elif hook == "approx":
            self.approx_results.append([list(result[0].head), result[1]])
        elif hook == "lp_call":
            rule = kwargs.get("rule", args[3] if len(args) > 3 else "bland")
            self.add("weighted.lp_retries", rule == "dantzig")
        elif hook == "pivot":
            self.add("lp.pivots")

    def wrap(self, fn, label, hook):
        def wrapper(*args, **kwargs):
            if label is None:
                result = fn(*args, **kwargs)
            else:
                result = self.span(label, fn, *args, **kwargs)
            if hook is not None and hook not in self.broken:
                try:
                    self._count(hook, args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    self.broken.append(hook)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each hooked function in every starpart module that holds it."""
        for module_name, func, label, hook in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, func, None)
            if original is None:
                continue
            wrapper = self.wrap(original, label, hook)
            modules = [
                mod for key, mod in list(sys.modules.items())
                if key == "starpart" or key.startswith("starpart.")
            ]
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            self.hooked.append(f"{module_name}.{func}")


def run_jobs(main, jobs, call) -> tuple[float, list]:
    """Run every job's solve then verify; returns wall time and (argv, rc, stdout)."""
    outputs = []
    t0 = time.perf_counter()
    for job in jobs:
        for key in ("solve", "verify"):
            argv = job[key]
            if key == "verify" and "{value}" in argv:
                value = _value(outputs[-1][2])
                argv = [value if a == "{value}" else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = call(main, argv)
            outputs.append((argv, rc, out.getvalue() + err.getvalue()))
    return time.perf_counter() - t0, outputs


def _value(stdout: str) -> str:
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "value":
            return parts[1]
    return "0"


def main(plan_path: str, record_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import starpart.cli

    import_s = time.perf_counter() - t0
    # The first pass grows the heap and fills caches; comparing the traced
    # pass against it would credit that cost to tracing.
    _, warmup_out = run_jobs(starpart.cli.main, plan["jobs"], lambda f, a: f(a))
    untraced_s, untraced_out = run_jobs(starpart.cli.main, plan["jobs"], lambda f, a: f(a))
    tracer = Tracer()
    tracer.install()
    traced_s, traced_out = run_jobs(
        starpart.cli.main, plan["jobs"], lambda f, a: tracer.span("cli.main", f, a)
    )
    record = {
        "import_s": import_s,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "hooked": tracer.hooked,
        "broken": tracer.broken,
        "counters": tracer.counters,
        "spans": tracer.spans,
        "approx_results": tracer.approx_results,
        "untraced_out": warmup_out + untraced_out,
        "traced_out": traced_out,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


# --- metrics from a record ----------------------------------------------------

# counter metric -> (hooked function it needs, counter hook that fills it)
_COUNTS = {
    "io.instance_bytes": ("starpart.instance_io.parse_instance", "instance_bytes"),
    "flow.probes_failed": ("starpart.flow_solver._test_x", "probe"),
    "flow.arcs": ("starpart.flow_solver.max_flow_unit", "maxflow"),
    "flow.flow_value": ("starpart.flow_solver.max_flow_unit", "maxflow"),
    "dfs.edge_visits": ("starpart.dfs_solver.solve_with_state", "dfs_state"),
    "dfs.searches": ("starpart.dfs_solver._run_search", "search"),
    "dfs.searches_failed": ("starpart.dfs_solver._run_search", "search"),
    "weighted.lp_retries": ("starpart.weighted.lp_feasible", "lp_call"),
    "lp.pivots": ("starpart.lp._pivot", "pivot"),
}
# Each span name L gives the metric L_s: its total time, or its self time
# for the names listed here.
_SELF_TIME = {"io.parse"}
_CALLS = {  # metric -> span name whose spans are counted
    "graph.build_calls": "graph.build",
    "flow.probes": "flow.probe",
    "flow.maxflow_calls": "flow.maxflow",
    "weighted.lp_calls": "weighted.lp",
}
_SPAN_HOOKS: dict[str, set[str]] = {}
for _mod, _fn, _label, _ in HOOKS:
    if _label:
        _SPAN_HOOKS.setdefault(_label, set()).add(f"{_mod}.{_fn}")


def layer_metrics(record: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); absent hooks give no metric."""
    spans = record["spans"]
    hooked = set(record["hooked"])
    total: dict[str, float] = {}
    child: dict[str, float] = {}
    calls: dict[str, int] = {}
    for label, start, end, parent in spans:
        total[label] = total.get(label, 0.0) + (end - start)
        calls[label] = calls.get(label, 0) + 1
        if parent >= 0:
            plabel = spans[parent][0]
            child[plabel] = child.get(plabel, 0.0) + (end - start)

    def installed(label):
        return bool(_SPAN_HOOKS[label] & hooked)

    out: dict[str, tuple[float, str]] = {
        "cli.import_s": (record["import_s"], "s"),
        "cli.main_s": (total.get("cli.main", 0.0), "s"),
        "cli.self_s": (total.get("cli.main", 0.0) - child.get("cli.main", 0.0), "s"),
        "trace.overhead_pct": (100.0 * (record["traced_s"] / record["untraced_s"] - 1.0), "%"),
    }
    for label in _SPAN_HOOKS:
        if installed(label):
            value = total.get(label, 0.0)
            if label in _SELF_TIME:
                value -= child.get(label, 0.0)
            out[label + "_s"] = (value, "s")
    for metric, label in _CALLS.items():
        if installed(label):
            out[metric] = (calls.get(label, 0), "count")
    for metric, (func, hook) in _COUNTS.items():
        if func in hooked and hook not in record["broken"]:
            unit = "bytes" if metric == "io.instance_bytes" else "count"
            out[metric] = (record["counters"].get(metric, 0), unit)
    if all(m in out for m in ("flow.probe_s", "flow.network_s", "flow.maxflow_s")):
        glue = out["flow.probe_s"][0] - out["flow.network_s"][0] - out["flow.maxflow_s"][0]
        out["flow.glue_s"] = (glue, "s")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
