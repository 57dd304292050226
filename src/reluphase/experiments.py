"""Config-driven experiment commands behind the CLI.

Each command reads a validated JSON config, runs deterministically from
(config, seed), and writes schema-checked CSVs, sorted-key JSON, and
hand-rolled SVGs into the chosen output directory.  Run r of a sweep always
uses seed_base + r, so any cell can be reproduced in isolation.

The two-class networks here use output magnitude v = 1/2 by default: with
+-1/2 output weights the pairwise hinge equals the scalar-score hinge
max(0, 1 - sign * (sum of owned activations - sum of opposing activations)),
which keeps the scalar trace in trace-dynamics and the trained objective in
exact agreement.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .core import NetworkParams, OutputMap, Rng, build_output_map, forward_batch, network_params
from .datagen import (
    AnnulusDistribution,
    GridDatasetSpec,
    LabeledDataset,
    grid_dataset,
    grid_dataset_planar,
    init_halfspace,
    init_random,
    init_three_rays,
    kelvin,
    make_subspace_pair,
    sample_annulus,
)
from .geometry import DirectionSet, gc_probability, gc_probability_mc
from .landscape import construct_zero_loss, critical_point_audit, lipschitz_estimate
from .phases import PhaseReport, detect_phases
from .svgplot import box_chart, dynamics_frame, histogram_chart, line_chart
from .tableio import SCHEMAS, schema_for_file, validate_csv, write_csv, write_json
from .training import TrainConfig, TrainResult, train

__all__ = [
    "ConfigError",
    "RunSpec",
    "execute_run",
    "build_task",
    "initial_weights",
    "rho_curve",
    "rho_at",
    "LIPSCHITZ_FROZEN_MAX",
    "COMMANDS",
    "run_command",
]

# Frozen regression ceiling for the bias-mode Lipschitz diagnostic on the
# reference task (polar grid, 8 units, v = 1/2, unit Gaussian weights,
# biases 0.05 each).  Calibrated once from seeded reference runs at 10000
# pairs, whose maximum ratio sits near 0.28 across seeds; the ceiling leaves
# headroom for sampling variation while still catching regressions.
LIPSCHITZ_FROZEN_MAX = 0.5


class ConfigError(ValueError):
    pass


def _reject_bool(value, name):
    if isinstance(value, bool):
        raise ConfigError(f"config key {name!r} must be a number, got a bool")


def _as_int(value, name):
    _reject_bool(value, name)
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"config key {name!r} must be an integer, got {value!r}")


def _as_float(value, name):
    _reject_bool(value, name)
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigError(f"config key {name!r} must be a number, got {value!r}")


def _as_str(value, name):
    if isinstance(value, str):
        return value
    raise ConfigError(f"config key {name!r} must be a string, got {value!r}")


def _as_pair(item, name):
    if not isinstance(item, list) or len(item) != 2:
        raise ConfigError(f"each entry of {name!r} must be a [d, k] pair, got {item!r}")
    return (_as_int(item[0], name), _as_int(item[1], name))


def _as_tuple(item, noun: str):
    """Coercer for a non-empty JSON list whose entries each pass item()."""

    def coerce(value, name):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config key {name!r} must be a non-empty list of {noun}")
        return tuple(item(v, name) for v in value)

    return coerce


def _or_none(coerce):
    return lambda value, name: None if value is None else coerce(value, name)


# Coercer per field annotation.  The module uses postponed annotations, so
# dataclasses.fields() reports each type as the string written in the class.
_COERCERS = {
    "int": _as_int,
    "float": _as_float,
    "str": _as_str,
    "tuple[int, ...]": _as_tuple(_as_int, "integers"),
    "tuple[float, ...]": _as_tuple(_as_float, "numbers"),
    "tuple[str, ...]": _as_tuple(_as_str, "strings"),
    "tuple[tuple[int, int], ...]": _as_tuple(_as_pair, "[d, k] pairs"),
    "tuple[float, ...] | None": _or_none(_as_tuple(_as_float, "numbers")),
}


def _build_config(cls, mapping: dict):
    """Instantiate a command config: keys, types and defaults come from cls's fields."""
    if not isinstance(mapping, dict):
        raise ConfigError("config must be a JSON object")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(mapping) - set(names))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}; accepted keys: {names}")
    kwargs = {f.name: _COERCERS[f.type](mapping[f.name], f.name) for f in fields(cls) if f.name in mapping}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        # The library type that owns the setting refused it, in its own words.
        raise ConfigError(str(exc)) from exc


def _config_snapshot(command: str, cfg) -> dict:
    body = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        body[f.name] = list(value) if isinstance(value, tuple) else value
    return {"command": command, **body}


# ---------------------------------------------------------------------------
# Tasks and runs


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


# Task name -> input dimension.  The planar grid holds class 1 only; a run
# trains on every class its dataset holds.
_TASKS = {"planar-grid": 2, "subspace-pair": 4}

# Init name -> weight initializer (d, width, rng).
_INITS = {
    "random": init_random,
    "halfspace": init_halfspace,
    "three-rays": lambda d, width, rng: init_three_rays(),
}


def _require_known(kind: str, name: str, table: dict) -> None:
    names = ", ".join(repr(known) for known in table)
    _require(name in table, f"unknown {kind} {name!r}; expected one of {names}")


def _check_init(init: str, d: int, width: int) -> None:
    _require_known("init", init, _INITS)
    _require(
        init != "three-rays" or (d == 2 and width == 6),
        "the three-rays init is the fixed 6-unit planar layout (d=2, width=6)",
    )


def build_task(task: str, theta: float, noise_std: float, rng: Rng | None) -> LabeledDataset:
    """planar-grid: one class's polar grid in R^2.  subspace-pair: both classes in R^4."""
    _require_known("task", task, _TASKS)
    spec = GridDatasetSpec(noise_std=noise_std)
    if task == "planar-grid":
        return grid_dataset_planar(spec, rng=rng)
    return grid_dataset(make_subspace_pair(theta), spec, rng=rng)


def initial_weights(init: str, d: int, width: int, rng: Rng) -> np.ndarray:
    _check_init(init, d, width)
    return _INITS[init](d, width, rng)


def _require_even_width(width: int, key: str = "width") -> None:
    """Two classes of at least two units each under the round-robin output map."""
    _require(width >= 4 and width % 2 == 0, f"{key} must be even and at least 4, got {width}")


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one training run; also the train command's config.

    It checks itself by building what its run builds, so each rule has one owner.
    """

    task: str = "planar-grid"
    width: int = 8
    v: float = 0.5
    eta: float = 0.1
    max_iters: int = 5000
    stop_loss: float = 0.0
    record_every: int = 1
    seed: int = 0
    init: str = "random"
    theta: float = math.pi / 2
    noise_std: float = 0.0
    biases: tuple[float, ...] | None = None

    def __post_init__(self):
        # A sweep records every run at record_every = max_iters.
        _require(self.max_iters >= 1, f"max_iters must be at least 1, got {self.max_iters}")
        _require_known("task", self.task, _TASKS)
        d = _TASKS[self.task]
        _check_init(self.init, d, self.width)
        Rng(self.seed)
        self.train_config()
        # Built once per spec; output_map() hands it to the run.
        object.__setattr__(self, "_output", build_output_map(self.width, self.v))
        network_params(np.zeros((d, self.width)), self._output, self.biases)  # checks the biases
        GridDatasetSpec(noise_std=self.noise_std)
        if self.task == "subspace-pair":
            make_subspace_pair(self.theta)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            eta=self.eta, max_iters=self.max_iters, stop_loss=self.stop_loss, record_every=self.record_every
        )

    def output_map(self) -> OutputMap:
        return self._output


def execute_run(spec: RunSpec) -> tuple[TrainResult, LabeledDataset]:
    rng = Rng(spec.seed)
    data = build_task(spec.task, spec.theta, spec.noise_std, rng.child(1))
    W0 = initial_weights(spec.init, data.dim, spec.width, rng.child(0))
    params = network_params(W0, spec.output_map(), spec.biases)
    return train(params, data, spec.train_config()), data


@dataclass(frozen=True)
class RunSummary:
    """What a sweep reads of one trained run."""

    seed: int
    converged_at: int | None
    final_loss: float
    final_norm: float
    max_norm: float

    @classmethod
    def of(cls, seed: int, result: TrainResult) -> "RunSummary":
        last = result.records[-1]
        return cls(seed, result.converged_at, float(last.loss), last.weight_norm, result.max_weight_norm)

    @property
    def converged(self) -> bool:
        return self.converged_at is not None

    @property
    def iterations(self) -> int:
        """The iteration count a runs CSV writes: converged_at, or -1 for a run that did not converge."""
        return -1 if self.converged_at is None else self.converged_at


def _run_worker(spec: RunSpec) -> RunSummary:
    result, _ = execute_run(spec)
    return RunSummary.of(spec.seed, result)


def _worker_count(threads: int, n_specs: int) -> int:
    """Worker processes for n_specs runs: never more than the runs or the CPUs."""
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    return min(threads, n_specs, os.cpu_count() or 1)


def map_runs(worker, specs, threads: int):
    """worker(spec) for each spec, in order, on up to threads processes; each run goes to whichever worker is free."""
    workers = _worker_count(threads, len(specs))
    if workers <= 1:
        return [worker(s) for s in specs]
    # Imported here, not at the top: the pool's module costs every command
    # start-up time, and only a run on more than one worker needs it.
    from concurrent.futures.process import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(worker, specs))


def _endpoint_spec(cfg, seed: int, **run) -> RunSpec:
    """A run with cfg's v, eta and max_iters from the given seed, recording only the endpoints."""
    return RunSpec(v=cfg.v, eta=cfg.eta, max_iters=cfg.max_iters, seed=seed, record_every=cfg.max_iters, **run)


def _require_distinct(keys, what: str) -> None:
    for i, key in enumerate(keys):
        _require(key not in keys[:i], f"{what} must be distinct, got {key!r} more than once")


def _check_sweep(cfg) -> None:
    """Distinct cells, runs, threads and the spec of run 0 of every cell, checked when a sweep config is built.

    A sweep config's cells() lists its grid once, as (key, run settings) per
    cell; the runs of one cell differ only in their seeds.
    """
    cells = cfg.cells()
    _require_distinct([key for key, _ in cells], "sweep cells")
    _require(cfg.runs >= 1, f"runs must be at least 1, got {cfg.runs}")
    _worker_count(cfg.threads, cfg.runs)
    for _, run in cells:
        _endpoint_spec(cfg, cfg.seed_base, **run)


def _run_cells(cfg) -> list[tuple[tuple, list[RunSummary]]]:
    """Train cfg.runs seeded runs of every sweep cell through one map_runs call.

    Returns each cell's (key, runs), in cells() order and seed order.
    """
    cells = cfg.cells()
    specs = [_endpoint_spec(cfg, cfg.seed_base + r, **run) for _, run in cells for r in range(cfg.runs)]
    runs = map_runs(_run_worker, specs, cfg.threads)
    return [(key, runs[i * cfg.runs : (i + 1) * cfg.runs]) for i, (key, _) in enumerate(cells)]


def rho_at(params: NetworkParams, thetas: np.ndarray) -> np.ndarray:
    """Scalar-score coverage min(1, relu(score)) at unit-circle angles."""
    if params.d != 2:
        raise ValueError("coverage curve needs a planar two-class network")
    pts = np.column_stack([np.cos(thetas), np.sin(thetas)])
    F, _ = forward_batch(params, pts)
    score = (F[:, 0] - F[:, 1]) / (2.0 * params.output.v)
    return np.clip(score, 0.0, 1.0)


def rho_curve(params: NetworkParams, samples: int) -> tuple[np.ndarray, np.ndarray]:
    if samples < 3:
        raise ValueError("need at least 3 samples")
    thetas = np.arange(samples) * (2.0 * math.pi / samples)
    return thetas, rho_at(params, thetas)


def _iteration_stats(runs: list[RunSummary]) -> tuple[float, float, float, float, float]:
    """mean, std, median, q25, q75 over the converged runs' iteration counts."""
    arr = np.array([s.converged_at for s in runs if s.converged], dtype=float)
    if arr.size == 0:
        return (-1.0, -1.0, -1.0, -1.0, -1.0)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    q25, med, q75 = (float(q) for q in np.percentile(arr, [25.0, 50.0, 75.0]))
    return (float(arr.mean()), std, med, q25, q75)


def _write_table(out: str, filename: str, rows, group_sizes=None) -> list[list[str]]:
    """Write a CSV under the schema registered to its file name, re-read it against that schema, return its cells."""
    path = os.path.join(out, filename)
    schema = schema_for_file(filename)
    cells = write_csv(path, schema, rows, group_sizes=group_sizes)
    validate_csv(path, schema)
    return cells


def _charted(stats: list[float]) -> list[float]:
    """One sweep statistic per cell for a line chart: the -1 of a cell with no
    converged run becomes NaN, which line_chart leaves out of the line."""
    return [math.nan if v == -1.0 else v for v in stats]


def _run_columns(r: int, s: RunSummary) -> list:
    """The run columns of run r's row in a runs table."""
    return [r, s.seed, s.iterations, s.converged]


def _sweep_tables(out: str, name: str, cfg) -> list[tuple[tuple, list[RunSummary], tuple]]:
    """Train every cell of a sweep and write <name>_runs.csv and <name>_summary.csv.

    Returns each cell's (key, runs, _iteration_stats(runs)), in cells() order.
    """
    cells, run_rows, summary_rows = [], [], []
    for key, runs in _run_cells(cfg):
        stats = _iteration_stats(runs)
        cells.append((key, runs, stats))
        run_rows += [[*key, *_run_columns(r, s), s.final_loss, s.max_norm] for r, s in enumerate(runs)]
        summary_rows.append([*key, cfg.runs, sum(s.converged for s in runs), *stats])
    _write_table(out, f"{name}_runs.csv", run_rows)
    _write_table(out, f"{name}_summary.csv", summary_rows)
    return cells


def _write_svg(out: str, filename: str, svg: str) -> None:
    with open(os.path.join(out, filename), "w") as fh:
        fh.write(svg)


def _write_histogram(out: str, name: str, edges, counts, title: str, x_label: str) -> None:
    """<name>.csv with one (bin_lo, bin_hi, count) row per bin, and its chart <name>.svg."""
    _write_table(out, f"{name}.csv", [[edges[i], edges[i + 1], int(c)] for i, c in enumerate(counts)])
    _write_svg(out, f"{name}.svg", histogram_chart(edges, counts, title, x_label))


# ---------------------------------------------------------------------------
# train


def _write_trajectory(out: str, result: TrainResult, reports: dict[int, PhaseReport]) -> None:
    """Write trajectory.csv, one row per record, from the record columns."""
    labels = result.records.labels
    if set(labels) != set(range(1, len(labels) + 1)):
        raise RuntimeError(f"trajectory export expects labels 1..n, got {labels}")
    records = result.records
    sizes = {"loss_class": len(labels), "neuron_norm": result.params.k, "gc_class": len(reports)}
    columns = [
        records.t.tolist(),
        records.loss,
        # A row of the neuron norms sums to its record's weight_norm, bit for bit.
        records.neuron_norms.sum(axis=1),
        records.grad_norm,
        *records.loss_per_class.T,
        *records.neuron_norms.T,
        *(rep.gc_timeline for rep in reports.values()),
    ]
    _write_table(out, "trajectory.csv", dict(zip(SCHEMAS["trajectory"].header(sizes), columns)), group_sizes=sizes)


def cmd_train(cfg: RunSpec, out: str) -> dict:
    result, data = execute_run(cfg)
    reports = {c: detect_phases(result, c) for c in data.labels}
    audits = {c: critical_point_audit(result.params, data.subset([c])) for c in data.labels}

    _write_trajectory(out, result, reports)
    write_json(
        os.path.join(out, "trajectory.json"),
        {
            "stop_reason": result.stop_reason,
            "converged_at": result.converged_at,
            "max_weight_norm": result.max_weight_norm,
            "diverged": result.diverged,
            "trained_classes": list(result.records.labels),
        },
    )
    write_json(
        os.path.join(out, "phase_report.json"),
        {f"class_{c}": rep.to_json_dict() for c, rep in reports.items()},
    )
    write_json(
        os.path.join(out, "audit.json"),
        {f"class_{c}": audit.to_json_dict() for c, audit in audits.items()},
    )
    records = result.records
    svg = line_chart([("objective", records.t, records.loss)], "training objective", "iteration", "loss")
    _write_svg(out, "loss_curve.svg", svg)
    return {
        "stop_reason": result.stop_reason,
        "converged_at": result.converged_at,
        "final_loss": float(records.loss[-1]),
        "first_hold": {f"class_{c}": rep.first_hold for c, rep in reports.items()},
    }


# ---------------------------------------------------------------------------
# sweep-width


@dataclass(frozen=True)
class SweepWidthConfig:
    widths: tuple[int, ...] = (6, 8, 10, 12, 14, 16, 18, 20, 22, 24)
    inits: tuple[str, ...] = ("random", "halfspace")
    runs: int = 100
    seed_base: int = 0
    v: float = 0.5
    eta: float = 0.1
    max_iters: int = 5000
    threads: int = 1

    def __post_init__(self):
        for w in self.widths:
            _require_even_width(w, "widths")
        for init in self.inits:
            _require(
                init in ("random", "halfspace"),
                f"sweep-width inits must be 'random' or 'halfspace', got {init!r}",
            )
        _check_sweep(self)

    def cells(self) -> list[tuple[tuple, dict]]:
        return [((w, init), dict(task="planar-grid", width=w, init=init)) for w in self.widths for init in self.inits]


def cmd_sweep_width(cfg: SweepWidthConfig, out: str) -> dict:
    means: dict[str, list[float]] = {init: [] for init in cfg.inits}
    boxes = []
    for (width, init), runs, (mean, _, med, q25, q75) in _sweep_tables(out, "width", cfg):
        means[init].append(mean)
        good = sorted(s.converged_at for s in runs if s.converged)
        if good:
            boxes.append((f"{width} {init}", (float(good[0]), q25, med, q75, float(good[-1])), cfg.inits.index(init)))
    if boxes:
        svg = box_chart(boxes, "iterations to zero loss by width and init", "iterations")
        _write_svg(out, "width_box.svg", svg)
    _write_svg(
        out,
        "width_means.svg",
        line_chart(
            [(init, list(cfg.widths), _charted(means[init])) for init in cfg.inits],
            "mean iterations to zero loss",
            "total hidden units",
            "iterations",
        ),
    )
    return {"means": means}


# ---------------------------------------------------------------------------
# sweep-angle


@dataclass(frozen=True)
class SweepAngleConfig:
    angles: tuple[float, ...] = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
    runs: int = 20
    seed_base: int = 0
    width: int = 8
    v: float = 0.5
    eta: float = 0.2
    max_iters: int = 20000
    noise_std: float = 0.0
    init: str = "random"
    threads: int = 1

    def __post_init__(self):
        _require_even_width(self.width)
        _check_sweep(self)

    def cells(self) -> list[tuple[tuple, dict]]:
        run = dict(task="subspace-pair", width=self.width, init=self.init, noise_std=self.noise_std)
        return [((theta,), dict(run, theta=theta)) for theta in self.angles]


def cmd_sweep_angle(cfg: SweepAngleConfig, out: str) -> dict:
    # One list per statistic, one entry per angle.
    mean, _, _, q25, q75 = map(list, zip(*(stats for _, _, stats in _sweep_tables(out, "angle", cfg))))
    _write_svg(
        out,
        "angle_sweep.svg",
        line_chart(
            [(label, list(cfg.angles), _charted(ys)) for label, ys in (("mean", mean), ("q25", q25), ("q75", q75))],
            "iterations to zero loss vs subspace angle",
            "principal angle (radians)",
            "iterations",
        ),
    )
    return {"angles": list(cfg.angles), "mean_iterations": mean}


# ---------------------------------------------------------------------------
# norm-hist


@dataclass(frozen=True)
class NormHistConfig:
    runs: int = 200
    seed_base: int = 0
    width: int = 8
    v: float = 0.5
    eta: float = 0.1
    max_iters: int = 5000
    init: str = "random"
    bins: int = 20
    threads: int = 1

    def __post_init__(self):
        _require(self.bins >= 1, "bins must be at least 1")
        _check_sweep(self)

    def cells(self) -> list[tuple[tuple, dict]]:
        return [((), dict(task="planar-grid", width=self.width, init=self.init))]


def cmd_norm_hist(cfg: NormHistConfig, out: str) -> dict:
    [(_, runs)] = _run_cells(cfg)
    _write_table(out, "norm_runs.csv", [[*_run_columns(r, s), s.final_norm, s.max_norm] for r, s in enumerate(runs)])
    max_norms = np.array([s.max_norm for s in runs])
    counts, edges = np.histogram(max_norms, bins=cfg.bins)
    _write_histogram(out, "norm_hist", edges, counts, "largest weight norm per run", "max weight norm")
    return {"max_norm_overall": float(max_norms.max()), "mean_max_norm": float(max_norms.mean())}


# ---------------------------------------------------------------------------
# gc-prob


@dataclass(frozen=True)
class GcProbConfig:
    cells: tuple[tuple[int, int], ...] = ((2, 3), (2, 4), (3, 5), (4, 8))
    trials: int = 100000
    seed: int = 0

    def __post_init__(self):
        _require(self.trials >= 1, f"trials must be at least 1, got {self.trials}")
        Rng(self.seed)
        for d, k in self.cells:
            _require(d >= 1 and k >= 1, f"cells need d >= 1 and k >= 1, got ({d}, {k})")
        _require_distinct(self.cells, "cells")


def cmd_gc_prob(cfg: GcProbConfig, out: str) -> dict:
    rng = Rng(cfg.seed)
    rows = []
    for i, (d, k) in enumerate(cfg.cells):
        exact = gc_probability(d, k)
        est, se = gc_probability_mc(d, k, cfg.trials, rng.child(i))
        err = abs(est - exact)
        rows.append([d, k, cfg.trials, exact, est, se, err, bool(err <= 3.0 * se or err == 0.0)])
    _write_table(out, "gc_prob.csv", rows)
    write_json(
        os.path.join(out, "gc_prob.json"),
        {
            f"d{d}_k{k}": {"exact": ex, "estimate": est, "stderr": se}
            for d, k, _, ex, est, se, _, _ in rows
        },
    )
    return {"cells": len(rows), "all_within_three_se": all(row[7] for row in rows)}


# ---------------------------------------------------------------------------
# trace-dynamics


@dataclass(frozen=True)
class TraceDynamicsConfig:
    snapshots: tuple[int, ...] = (0, 50, 200)
    eta: float = 0.1
    v: float = 0.5
    max_iters: int = 5000
    seed: int = 0
    init: str = "three-rays"
    rho_samples: int = 512

    def __post_init__(self):
        self.run_spec()  # checks the run settings and the init
        _require(self.rho_samples >= 3, f"rho_samples must be at least 3, got {self.rho_samples}")

    def run_spec(self) -> RunSpec:
        """The traced run: six planar units, recorded at every iteration."""
        return RunSpec(
            task="planar-grid", width=6, v=self.v, eta=self.eta, max_iters=self.max_iters, seed=self.seed, init=self.init
        )


def cmd_trace_dynamics(cfg: TraceDynamicsConfig, out: str) -> dict:
    result, data = execute_run(cfg.run_spec())
    records = result.records
    final_t = int(records.t[-1])
    wanted = sorted({min(max(t, 0), final_t) for t in cfg.snapshots} | {final_t})
    t_to_index = {t: i for i, t in enumerate(records.t.tolist())}

    inverted = kelvin(data.X)
    sample_angles = np.arctan2(data.X[:, 1], data.X[:, 0])
    sample_targets = 1.0 / np.linalg.norm(data.X, axis=1)
    owner = result.params.output.owner
    frames = []
    for t in wanted:
        idx = t_to_index[t]
        W, loss = records.weights[idx], float(records.loss[idx])
        params_t = result.params.with_weights(W)
        norms = np.linalg.norm(W[:, owner == 1], axis=0)
        pos_dirs = DirectionSet.from_weight_matrix(W, np.flatnonzero(owner == 1)).dirs
        neg = W[:, owner == 2].T
        angles, rho = rho_curve(params_t, cfg.rho_samples)
        covered = bool(np.all(rho_at(params_t, sample_angles) >= sample_targets - 1e-12))
        frames.append(
            {
                "t": t,
                "loss": loss,
                "positive_unit_dirs": pos_dirs,
                "positive_norms": norms,
                "negative_weights": neg,
                "rho": rho,
                "covers_all_inverted_points": covered,
            }
        )
        svg = dynamics_frame(
            inverted,
            pos_dirs,
            neg,
            angles,
            rho,
            f"t = {t}, loss = {loss:.6g}",
        )
        _write_svg(out, f"frame_t{t:05d}.svg", svg)
    write_json(
        os.path.join(out, "dynamics.json"),
        {
            "stop_reason": result.stop_reason,
            "converged_at": result.converged_at,
            "rho_samples": cfg.rho_samples,
            "frames": frames,
        },
    )
    _write_trajectory(out, result, {})
    return {
        "stop_reason": result.stop_reason,
        "converged_at": result.converged_at,
        "final_covered": frames[-1]["covers_all_inverted_points"],
    }


# ---------------------------------------------------------------------------
# landscape-audit


@dataclass(frozen=True)
class LandscapeAuditConfig:
    width: int = 8
    v: float = 0.5
    subspace_dim: int = 2
    data_min: float = 1.0
    data_max: float = 2.0
    samples_per_class: int = 400
    audit_runs: int = 5
    eta: float = 0.1
    max_iters: int = 5000
    pairs: int = 10000
    biases: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        _require_even_width(self.width)
        output = self.audit_spec(0).output_map()  # checks eta, max_iters and v
        _require(self.pairs >= 1, "pairs must be at least 1")
        _require(self.audit_runs >= 0, "audit_runs must be nonnegative")
        _require(self.samples_per_class >= 1, "samples_per_class must be at least 1")
        self.annulus()
        _require(
            self.width // 2 > self.subspace_dim,
            f"the zero-loss construction needs more than subspace_dim ({self.subspace_dim}) "
            f"units per class, got width {self.width}",
        )
        _require(
            self.biases is None or sum(self.biases) != 0.0,
            "the weight-perturbation diagnostic needs nonzero biases",
        )
        network_params(np.zeros((2, self.width)), output, self.lipschitz_biases())  # checks the biases

    def annulus(self) -> AnnulusDistribution:
        """The data range of the constructed minima."""
        return AnnulusDistribution(self.subspace_dim, self.data_min, self.data_max)

    def audit_spec(self, r: int) -> RunSpec:
        """Audited run r: a random-init planar run from seed + r."""
        return _endpoint_spec(self, self.seed + r, width=self.width)

    def lipschitz_biases(self) -> tuple[float, ...]:
        """The biases of the Lipschitz diagnostic: the configured ones, else 0.4 / width each."""
        return self.biases if self.biases is not None else (0.4 / self.width,) * self.width


def cmd_landscape_audit(cfg: LandscapeAuditConfig, out: str) -> dict:
    rng = Rng(cfg.seed)
    output = build_output_map(cfg.width, cfg.v)
    dist = cfg.annulus()

    constructed = {}
    for label in (1, 2):
        W = construct_zero_loss(output, label, cfg.subspace_dim, cfg.data_min)
        params = network_params(W, output)
        sample = sample_annulus(dist, cfg.samples_per_class, rng.child(label), label=label)
        constructed[f"class_{label}"] = critical_point_audit(params, sample).to_json_dict()

    trained = []
    for r in range(cfg.audit_runs):
        spec = cfg.audit_spec(r)
        result, data = execute_run(spec)
        audit = critical_point_audit(result.params, data)
        trained.append({"seed": spec.seed, "stop_reason": result.stop_reason, **audit.to_json_dict()})

    bias_arr = np.asarray(cfg.lipschitz_biases(), dtype=float)
    lip_data = grid_dataset_planar(GridDatasetSpec())

    def sampler(r: Rng, m: int) -> np.ndarray:
        return r.normal_draws(m, (2, cfg.width))

    report = lipschitz_estimate(sampler, output, bias_arr, lip_data, cfg.pairs, rng.child(99))
    _write_histogram(
        out,
        "lipschitz_hist",
        report.hist_edges,
        report.hist_counts,
        "loss difference ratios over weight pairs",
        "|loss gap| / |weight gap|",
    )
    payload = {
        "constructed_minima": constructed,
        "trained_audits": trained,
        "lipschitz": {
            **report.to_json_dict(),
            "frozen_ceiling": LIPSCHITZ_FROZEN_MAX,
            "below_ceiling": report.max_ratio < LIPSCHITZ_FROZEN_MAX,
        },
    }
    write_json(os.path.join(out, "landscape_report.json"), payload)
    return {
        "constructed_all_global_min": all(v["verdict"] == "global_min" for v in constructed.values()),
        "lipschitz_max_ratio": report.max_ratio,
        "below_ceiling": report.max_ratio < LIPSCHITZ_FROZEN_MAX,
    }


# ---------------------------------------------------------------------------
# registry


COMMANDS = {
    "train": (RunSpec, cmd_train),
    "sweep-width": (SweepWidthConfig, cmd_sweep_width),
    "sweep-angle": (SweepAngleConfig, cmd_sweep_angle),
    "norm-hist": (NormHistConfig, cmd_norm_hist),
    "gc-prob": (GcProbConfig, cmd_gc_prob),
    "trace-dynamics": (TraceDynamicsConfig, cmd_trace_dynamics),
    "landscape-audit": (LandscapeAuditConfig, cmd_landscape_audit),
}


def run_command(name: str, mapping: dict, out: str) -> dict:
    if name not in COMMANDS:
        raise ConfigError(f"unknown command {name!r}; expected one of {sorted(COMMANDS)}")
    cls, runner = COMMANDS[name]
    cfg = _build_config(cls, mapping)
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "config.json"), _config_snapshot(name, cfg))
    return runner(cfg, out)
