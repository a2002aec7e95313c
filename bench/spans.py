"""Spans around the entry points of each ergodykit module, recorded from outside.

The child process wraps the names that caller modules imported (so the
library itself is untouched) and keeps every span in memory as
``(id, parent_id, name, start, end)``.  The parent turns them into self
times per layer: a span's self time is its duration minus the durations of
its child spans.

This module must stay importable without numpy: the parent process imports
it for the aggregation only.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import time

# (module, attribute, span name).  Several spans can share a layer metric:
# SELF_METRIC below maps each span name to the self-time metric it feeds.
TARGETS = (
    ("ergodykit.cli", "parse_config", "cli.parse"),
    ("ergodykit.cli", "_write_json", "cli.write"),
    ("ergodykit.cli", "_write_csv", "cli.write"),
    ("ergodykit.cli", "build_rpf", "baserpf.build_rpf"),
    ("ergodykit.baserpf", "_power_iteration", "baserpf.power_iteration"),
    ("ergodykit.baserpf", "twisted_operator", "baserpf.twisted"),
    ("ergodykit.transfer", "spectral_radius_on_kernel", "baserpf.kernel_decay"),
    ("ergodykit.cli", "iterate_to_equilibrium", "transfer.iterate"),
    ("ergodykit.transfer", "apply_F_phih_normalized", "transfer.apply"),
    ("ergodykit.stats", "apply_F_phih_normalized", "transfer.apply"),
    ("ergodykit.cli", "estimate_spectral_gap", "transfer.gap"),
    ("ergodykit.cli", "regularity_constants", "transfer.regularity_constants"),
    ("ergodykit.transfer", "compress_to_cap", "measures.compress"),
    ("ergodykit.transfer", "linf_distance", "disint.linf_distance"),
    ("ergodykit.cli", "disintegration_holder", "disint.holder"),
    ("ergodykit.transfer", "sinf_norm", "disint.norms"),
    ("ergodykit.stats", "sinf_norm", "disint.norms"),
    ("ergodykit.stats", "integrate", "disint.integrate"),
    ("ergodykit.stats", "multiply_observable", "disint.integrate"),
    ("ergodykit.disint", "distance_value", "dualnorm.distance_value"),
    ("ergodykit.dualnorm", "dual_norm", "dualnorm.dual_norm"),
    ("ergodykit.dualnorm", "_flat_chain", "dualnorm.sweep"),
    ("ergodykit.dualnorm", "_dual_norm_lp", "dualnorm.lp"),
    ("ergodykit.dualnorm", "linprog", "dualnorm.linprog"),
    ("ergodykit.transfer", "FiberMap.__call__", "systems.fiber"),
    ("ergodykit.cli", "correlation_operator", "stats.operator_corr"),
    ("ergodykit.cli", "correlation_birkhoff", "stats.birkhoff"),
)

SELF_METRIC = {
    "cli.import": "cli.import_s",
    "cli.parse": "cli.parse_s",
    "cli.write": "cli.write_s",
    "baserpf.build_rpf": "baserpf.build_rpf_s",
    "baserpf.power_iteration": "baserpf.build_rpf_s",
    "baserpf.twisted": "baserpf.twisted_s",
    "baserpf.kernel_decay": "baserpf.kernel_decay_s",
    "transfer.iterate": "transfer.iterate_s",
    "transfer.apply": "transfer.apply_s",
    "transfer.gap": "transfer.gap_s",
    "transfer.regularity_constants": "transfer.regularity_constants_s",
    "measures.compress": "measures.compress_s",
    "disint.linf_distance": "disint.linf_distance_s",
    "disint.holder": "disint.holder_s",
    "disint.norms": "disint.norms_s",
    "disint.integrate": "disint.integrate_s",
    "dualnorm.distance_value": "dualnorm.dispatch_s",
    "dualnorm.dual_norm": "dualnorm.dispatch_s",
    "dualnorm.sweep": "dualnorm.sweep_s",
    "dualnorm.lp": "dualnorm.lp_s",
    "dualnorm.linprog": "dualnorm.lp_s",
    "systems.fiber": "systems.fiber_s",
    "stats.operator_corr": "stats.operator_corr_s",
    "stats.birkhoff": "stats.birkhoff_s",
}

# Exact counts, each the number of spans of one name.
SPAN_COUNTS = {
    "transfer.applies": "transfer.apply",
    "measures.compress_calls": "measures.compress",
    "dualnorm.calls": "dualnorm.dual_norm",
    "dualnorm.sweep_calls": "dualnorm.sweep",
    "dualnorm.lp_solves": "dualnorm.linprog",
    "disint.linf_distance_calls": "disint.linf_distance",
    "systems.fiber_calls": "systems.fiber",
}

# Counts the child adds up from arguments and return values (Tracer._observe_*).
VALUE_COUNTS = (
    "baserpf.power_iters",
    "baserpf.dense_bytes",
    "measures.compress_doublings",
    "measures.atoms",
    "measures.cells",
    "measures.atoms_max",
    "cli.bytes_written",
)


def _dense_bytes(obj, exclude=()) -> int:
    """Bytes of the n x n arrays an RPF discretization holds (8 n^2 each)."""
    held = [
        v for v in vars(obj).values()
        if getattr(v, "ndim", 0) == 2 and v.shape[0] == v.shape[1]
    ]
    return sum(int(v.nbytes) for v in held if not any(v is e for e in exclude))


class Tracer:
    """In-memory span recorder; spans are written out once, at exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.stack = [0]
        self._ids = itertools.count(1)
        self.counts = dict.fromkeys(VALUE_COUNTS, 0)
        self.realized_delta_max = 0.0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans = self.spans
        stack = self.stack
        ids = self._ids
        clock = time.perf_counter
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, nid, t0, t1))
            if observe is not None:
                observe(args, out)
            return out

        return traced

    # Counters read from arguments and return values, by span name.

    def _observe_baserpf_power_iteration(self, args, out):
        self.counts["baserpf.power_iters"] += int(out[2])

    def _observe_baserpf_build_rpf(self, args, out):
        self.counts["baserpf.dense_bytes"] += _dense_bytes(out)

    def _observe_baserpf_twisted(self, args, out):
        shared = vars(args[0]).values()
        self.counts["baserpf.dense_bytes"] += _dense_bytes(out, exclude=shared)

    def _observe_measures_compress(self, args, out):
        used = float(out[1])
        self.counts["measures.compress_doublings"] += used > float(args[1])
        self.realized_delta_max = max(self.realized_delta_max, used)

    def _observe_transfer_apply(self, args, out):
        sizes = [f.n_atoms for f in out.fibers]
        c = self.counts
        c["measures.atoms"] += sum(sizes)
        c["measures.cells"] += len(sizes)
        c["measures.atoms_max"] = max(c["measures.atoms_max"], max(sizes))

    def _observe_cli_write(self, args, out):
        self.counts["cli.bytes_written"] += os.path.getsize(args[0])

    def install(self):
        for mod_name, attr, name in TARGETS:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))

    def record(self, name: str, t0: float, t1: float):
        """Add a top-level span timed by the caller (the package import)."""
        self.spans.append((next(self._ids), 0, self._name_id(name), t0, t1))

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "realized_delta_max": self.realized_delta_max,
        }


def _p50_p90(vals: list[float]) -> tuple[float, float]:
    if len(vals) < 2:
        return (vals[0], vals[0]) if vals else (0.0, 0.0)
    deciles = statistics.quantiles(vals, n=10, method="inclusive")
    return deciles[4], deciles[8]


def summarize(trace: dict, traced_wall_s: float, main_s: float) -> dict:
    """Per-layer metrics of one traced command.

    ``main_s`` is the time from launch until the CLI returned; whatever of
    it no span covers is reported as ``trace.unattributed_s``.
    """
    names = trace["names"]
    spans = trace["spans"]
    child_time: dict[int, float] = {}
    for sid, parent, nid, t0, t1 in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    self_s = dict.fromkeys(SELF_METRIC.values(), 0.0)
    per_name = [0] * len(names)
    applies = []
    name_of = {}
    for sid, parent, nid, t0, t1 in spans:
        name = names[nid]
        name_of[sid] = name
        per_name[nid] += 1
        self_s[SELF_METRIC[name]] += (t1 - t0) - child_time.get(sid, 0.0)
        if name == "transfer.apply":
            applies.append(t1 - t0)
    count = {n: per_name[i] for i, n in enumerate(names)}
    holder_pairs = sum(
        1 for sid, parent, nid, _, _ in spans
        if names[nid] == "dualnorm.distance_value" and name_of.get(parent) == "disint.holder"
    )
    c = trace["counts"]
    out = dict(self_s)
    for metric, span_name in SPAN_COUNTS.items():
        out[metric] = count.get(span_name, 0)
    calls = out["dualnorm.calls"]
    solved = out["dualnorm.sweep_calls"] + out["dualnorm.lp_solves"]
    step_p50, step_p90 = _p50_p90(applies)
    out.update({
        "baserpf.power_iters": c["baserpf.power_iters"],
        "baserpf.dense_bytes": c["baserpf.dense_bytes"],
        "transfer.step_p50_s": step_p50,
        "transfer.step_p90_s": step_p90,
        "measures.compress_doubling_share": (
            c["measures.compress_doublings"] / out["measures.compress_calls"]
            if out["measures.compress_calls"] else 0.0
        ),
        "measures.realized_delta_max": trace["realized_delta_max"],
        "measures.atoms_per_cell_mean": (
            c["measures.atoms"] / c["measures.cells"] if c["measures.cells"] else 0.0
        ),
        "measures.atoms_per_cell_max": c["measures.atoms_max"],
        "dualnorm.closed_form_share": (calls - solved) / calls if calls else 0.0,
        "disint.holder_pairs": holder_pairs,
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.spans": len(spans),
        "trace.wall_s": traced_wall_s,
        "trace.unattributed_s": main_s - sum(
            t1 - t0 for _, parent, _, t0, t1 in spans if parent == 0
        ),
    })
    return out


_UNITS = {
    "baserpf.dense_bytes": "bytes",
    "cli.bytes_written": "bytes",
    "measures.compress_doubling_share": "ratio",
    "dualnorm.closed_form_share": "ratio",
    "measures.realized_delta_max": "fiber_len",
    "measures.atoms_per_cell_mean": "atoms",
    "measures.atoms_per_cell_max": "atoms",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric: seconds for times, else counts by default."""
    return _UNITS.get(metric, "s" if metric.endswith("_s") else "count")


# Metrics that must repeat exactly between traced commands of one run.
EXACT = tuple(SPAN_COUNTS) + (
    "baserpf.power_iters",
    "baserpf.dense_bytes",
    "measures.compress_doubling_share",
    "measures.realized_delta_max",
    "measures.atoms_per_cell_mean",
    "measures.atoms_per_cell_max",
    "dualnorm.closed_form_share",
    "disint.holder_pairs",
    "cli.bytes_written",
    "trace.spans",
)
