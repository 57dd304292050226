"""Per-layer spans recorded from outside the package.

The package imports its collaborators by name (``from .losses import
batch_loss_grad``), so a span is added by rebinding that name in the module
that calls it, for one pass only, and restoring it afterwards.  Spans are
kept in memory and written out when the pass ends.  A layer's self time is
its busy time minus the time covered by its child spans.

``RunProbe`` is the one hook that stays on in untraced passes: it wraps
``experiments.execute_run`` to read each seeded run's seed, stop reason,
final iteration and latency, at the cost of two clock reads per run.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from dataclasses import dataclass
from time import perf_counter

# Layers whose share of the traced wall time is reported.
SHARE_LAYERS = (
    "losses.batch_loss_grad",
    "phases.detect_phases",
    "geometry.gc_check",
    "simplex.solve_equality_lp",
    "landscape.lipschitz_estimate",
    "geometry.gc_probability_mc",
)


def _kernel_cost(args, result, seconds):
    """Computed (not measured) flops and bytes of one batch_loss_grad call.

    Shapes: X (N, d), W (d, k), values (n, k), rows (R,).  Matrix products
    count a multiply-add as 2 flops.  Bytes assume every input is read once
    and every intermediate (H, relu, F, margins, losses, active, coef, the
    relu mask and the selected rows) is written once and read once.
    """
    W, _, values, X, _, rows = args[:6]
    N, d = X.shape
    k = W.shape[1]
    n = values.shape[0]
    R = len(rows)
    flops = 2 * N * d * k + 4 * N * n * k + 6 * N * k + 7 * N * n + 2 * R * d * k + d * k + R
    inputs = 8 * (N * d + d * k + k + n * k + N + R)
    intermediates = 8 * (3 * N * k + 2 * N * n + N + R * k + R * d) + N * n + N * k
    return {"flops": flops, "bytes": inputs + 2 * intermediates + 8 * d * k}


def _train_note(args, result, seconds):
    return {"records": len(result.records)}


def _phases_note(args, result, seconds):
    timeline = result.gc_timeline
    flips = sum(1 for a, b in zip(timeline, timeline[1:]) if a != b)
    return {"snapshots": len(timeline), "flips": flips}


def _verdict_note(args, result, seconds):
    return {result.verdict: 1}


def _status_note(args, result, seconds):
    return {result.status: 1}


def _mc_note(args, result, seconds):
    d, k, trials = args[:3]
    return {f"d{d}_k{k}.sets": trials, f"d{d}_k{k}.busy_s": seconds}


def _file_note(args, result, seconds):
    return {"bytes": os.path.getsize(args[0])}


def _svg_note(args, result, seconds):
    return {"bytes": len(result.encode())}


# (calling module, bound name, layer, note).  A note maps the call's
# arguments, result and duration to counters summed as <layer>.<key>.
HOOKS = (
    ("reluphase.experiments", "execute_run", "experiments.execute_run", None),
    ("reluphase.experiments", "build_task", "datagen", None),
    ("reluphase.experiments", "initial_weights", "datagen", None),
    ("reluphase.experiments", "grid_dataset_planar", "datagen", None),
    ("reluphase.experiments", "sample_annulus", "datagen", None),
    ("reluphase.experiments", "network_params", "core.network_params", None),
    ("reluphase.experiments", "train", "training.train", _train_note),
    ("reluphase.training", "batch_loss_grad", "losses.batch_loss_grad", _kernel_cost),
    ("reluphase.losses", "batch_loss_grad", "losses.batch_loss_grad", _kernel_cost),
    ("reluphase.experiments", "detect_phases", "phases.detect_phases", _phases_note),
    ("reluphase.phases", "gc_check", "geometry.gc_check", _verdict_note),
    ("reluphase.geometry", "solve_equality_lp", "simplex.solve_equality_lp", _status_note),
    ("reluphase.experiments", "critical_point_audit", "landscape.critical_point_audit", None),
    ("reluphase.experiments", "lipschitz_estimate", "landscape.lipschitz_estimate", None),
    ("reluphase.landscape", "dataset_loss", "landscape.dataset_loss", None),
    ("reluphase.experiments", "gc_probability_mc", "geometry.gc_probability_mc", _mc_note),
    ("reluphase.experiments", "write_csv", "tableio.write_csv", _file_note),
    ("reluphase.experiments", "validate_csv", "tableio.validate_csv", _file_note),
    ("reluphase.experiments", "write_json", "tableio.write_json", _file_note),
    ("reluphase.experiments", "line_chart", "svgplot", _svg_note),
    ("reluphase.experiments", "box_chart", "svgplot", _svg_note),
    ("reluphase.experiments", "histogram_chart", "svgplot", _svg_note),
    ("reluphase.experiments", "dynamics_frame", "svgplot", _svg_note),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in HOOKS))
ROOT_LAYER = "experiments.run_command"
# Counters reported as 0 when no call produced them.
ZERO_COUNTERS = {
    "phases.detect_phases": ("snapshots",),
    "geometry.gc_check": ("holds", "fails", "degenerate"),
    "simplex.solve_equality_lp": ("optimal", "infeasible"),
    "tableio.write_csv": ("bytes",),
    "tableio.validate_csv": ("bytes",),
    "tableio.write_json": ("bytes",),
    "svgplot": ("bytes",),
}


@dataclass(frozen=True)
class Run:
    seed: int
    stop_reason: str
    converged_at: int | None
    t: int
    records: int
    seconds: float


class RunProbe:
    """Wraps ``experiments.execute_run`` to record every seeded run."""

    def __init__(self, experiments):
        self.runs: list[Run] = []
        self._module = experiments
        self._original = experiments.execute_run

        def execute_run(spec):
            t0 = perf_counter()
            result, data = self._original(spec)
            self.runs.append(
                Run(
                    seed=int(spec.seed),
                    stop_reason=result.stop_reason,
                    converged_at=result.converged_at,
                    t=int(result.records[-1].t),
                    records=len(result.records),
                    seconds=perf_counter() - t0,
                )
            )
            return result, data

        experiments.execute_run = execute_run

    def close(self):
        self._module.execute_run = self._original


class Tracer:
    """Span recorder.  A span is (id, parent, call_id, run_id, layer, t0, t1, note)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.call_id: int | None = None
        self._stack: list[tuple[int, str]] = []
        self._run_id: int | None = None
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == layer:
                # A layer entry point calling another one (build_task calling
                # grid_dataset_planar) stays inside the outer span.
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            outer_run = tracer._run_id
            if layer == "experiments.execute_run":
                tracer._run_id = sid
            stack.append((sid, layer))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._run_id = outer_run
            extra = note(args, result, t1 - t0) if note is not None else None
            run_id = sid if layer == "experiments.execute_run" else outer_run
            tracer.spans.append((sid, parent, tracer.call_id, run_id, layer, t0, t1, extra))
            return result

        return traced

    def traced_call(self, run_command):
        """run_command as the root span of each call; a call's spans share its id."""
        traced = self.wrap(ROOT_LAYER, run_command)

        def call(command, config, out):
            self.call_id = self._next_id
            return traced(command, config, out)

        return call

    def install(self) -> None:
        """Rebind every hooked name; a name that no longer exists marks its layer absent."""
        present = set()
        for module_name, attr, layer, note in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            present.add(layer)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original, note))
        self.absent = [layer for layer in LAYERS if layer not in present]

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, call_id, run_id, layer, t0, t1, extra in self.spans:
                row = {"id": sid, "parent": parent, "call": call_id, "run": run_id,
                       "layer": layer, "t0": t0, "t1": t1}
                if extra:
                    row.update(extra)
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer counts, busy and self times, counters and shares for one traced pass."""
        covered: dict[int, float] = {}
        for sid, parent, *_, t0, t1, _ in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
        out: dict[str, float] = {}
        for layer in (ROOT_LAYER, *LAYERS):
            if layer not in self.absent:
                out[f"{layer}.calls"] = 0
                out[f"{layer}.busy_s"] = 0.0
                out[f"{layer}.self_s"] = 0.0
                for counter in ZERO_COUNTERS.get(layer, ()):
                    out[f"{layer}.{counter}"] = 0
        for sid, _, _, _, layer, t0, t1, extra in self.spans:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.busy_s"] += t1 - t0
            out[f"{layer}.self_s"] += t1 - t0 - covered.get(sid, 0.0)
            for key, value in (extra or {}).items():
                out[f"{layer}.{key}"] = out.get(f"{layer}.{key}", 0) + value

        for layer in (ROOT_LAYER, *LAYERS):
            if out.get(f"{layer}.calls"):
                out[f"{layer}.us_per_call"] = 1e6 * out[f"{layer}.busy_s"] / out[f"{layer}.calls"]
        kernel = "losses.batch_loss_grad"
        for cost in ("flops", "bytes"):
            total = out.pop(f"{kernel}.{cost}", None)
            if total is not None:
                out[f"{kernel}.{cost}_per_call"] = total / out[f"{kernel}.calls"]
        if "training.train" not in self.absent:
            out["training.records"] = out.pop("training.train.records", 0)
        flips = out.pop("phases.detect_phases.flips", None)
        if flips is not None and out["phases.detect_phases.snapshots"]:
            out["phases.flip_ratio"] = flips / out["phases.detect_phases.snapshots"]
        for name in [n for n in out if n.startswith("geometry.gc_probability_mc.d") and n.endswith(".sets")]:
            cell = name[: -len(".sets")]
            out[cell + ".us_per_set"] = 1e6 * out[cell + ".busy_s"] / out.pop(name)

        for layer in SHARE_LAYERS:
            if layer not in self.absent:
                out[layer + ".share"] = out[f"{layer}.busy_s"] / wall_s
        for group in ("tableio", "svgplot"):
            busy = sum(out.get(f"{layer}.busy_s", 0.0) for layer in LAYERS if layer.split(".")[0] == group)
            out[group + ".share"] = busy / wall_s
        # Every span nests under a root span, so the self times of all layers
        # add up to the root busy time; this is the share of the pass they cover.
        out["trace.accounted_frac"] = out[f"{ROOT_LAYER}.busy_s"] / wall_s
        out["trace.spans"] = len(self.spans)
        return out
