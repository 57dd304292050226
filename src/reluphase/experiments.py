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
from concurrent.futures import ProcessPoolExecutor
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
from .geometry import gc_probability, gc_probability_mc
from .landscape import construct_zero_loss, critical_point_audit, lipschitz_estimate
from .phases import detect_phases
from .svgplot import box_chart, dynamics_frame, histogram_chart, line_chart
from .tableio import SCHEMAS, validate_csv, write_csv, write_json
from .training import TrainConfig, TrainResult, train

__all__ = [
    "ConfigError",
    "RunSpec",
    "execute_run",
    "build_task",
    "binary_output_map",
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


_REQUIRED = object()


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


def _as_bool(value, name):
    if isinstance(value, bool):
        return value
    raise ConfigError(f"config key {name!r} must be a bool, got {value!r}")


def _as_str(value, name):
    if isinstance(value, str):
        return value
    raise ConfigError(f"config key {name!r} must be a string, got {value!r}")


def _as_int_list(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config key {name!r} must be a non-empty list of integers")
    return tuple(_as_int(v, name) for v in value)


def _as_float_list(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config key {name!r} must be a non-empty list of numbers")
    return tuple(_as_float(v, name) for v in value)


def _as_str_list(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config key {name!r} must be a non-empty list of strings")
    return tuple(_as_str(v, name) for v in value)


def _as_pair_list(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config key {name!r} must be a non-empty list of [d, k] pairs")
    out = []
    for item in value:
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"each entry of {name!r} must be a [d, k] pair, got {item!r}")
        out.append((_as_int(item[0], name), _as_int(item[1], name)))
    return tuple(out)


def _as_opt_float_list(value, name):
    if value is None:
        return None
    return _as_float_list(value, name)


def _build_config(cls, spec: dict, mapping: dict):
    if not isinstance(mapping, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(mapping) - set(spec))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    kwargs = {}
    for name, (coerce, default) in spec.items():
        if name in mapping:
            kwargs[name] = coerce(mapping[name], name)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {name!r}")
        else:
            kwargs[name] = default
    return cls(**kwargs)


def _config_snapshot(command: str, cfg) -> dict:
    body = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        body[f.name] = list(value) if isinstance(value, tuple) else value
    return {"command": command, **body}


# ---------------------------------------------------------------------------
# Tasks and runs


def binary_output_map(width: int, v: float = 0.5) -> OutputMap:
    return build_output_map(2, width, v)


def build_task(task: str, theta: float, noise_std: float, rng: Rng | None) -> LabeledDataset:
    """planar-grid: one class's polar grid in R^2.  subspace-pair: both classes in R^4."""
    spec = GridDatasetSpec(noise_std=noise_std)
    if task == "planar-grid":
        return grid_dataset_planar(spec, label=1, rng=rng)
    if task == "subspace-pair":
        return grid_dataset(make_subspace_pair(theta), spec, rng=rng)
    raise ConfigError(f"unknown task {task!r}; expected 'planar-grid' or 'subspace-pair'")


def initial_weights(init: str, d: int, width: int, rng: Rng) -> np.ndarray:
    if init == "random":
        return init_random(d, width, rng)
    if init == "halfspace":
        return init_halfspace(d, width, rng)
    if init == "three-rays":
        if d != 2 or width != 6:
            raise ConfigError("the three-rays init is the fixed 6-unit planar layout (d=2, width=6)")
        return init_three_rays()
    raise ConfigError(f"unknown init {init!r}; expected 'random', 'halfspace', or 'three-rays'")


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one training run."""

    task: str
    width: int
    v: float
    eta: float
    max_iters: int
    init: str
    seed: int
    theta: float = math.pi / 2
    noise_std: float = 0.0
    stop_loss: float = 0.0
    record_every: int = 1
    keep_weights: bool = False
    train_classes: tuple[int, ...] | None = (1,)
    biases: tuple[float, ...] | None = None


def execute_run(spec: RunSpec) -> tuple[TrainResult, LabeledDataset]:
    rng = Rng(spec.seed)
    data = build_task(spec.task, spec.theta, spec.noise_std, rng.child(1))
    output = binary_output_map(spec.width, spec.v)
    W0 = initial_weights(spec.init, data.dim, spec.width, rng.child(0))
    biases = None if spec.biases is None else np.asarray(spec.biases, dtype=float)
    params = network_params(W0, output, biases)
    config = TrainConfig(
        eta=spec.eta,
        max_iters=spec.max_iters,
        stop_loss=spec.stop_loss,
        record_every=spec.record_every,
        seed=spec.seed,
        train_classes=spec.train_classes,
        keep_weights=spec.keep_weights,
    )
    return train(params, data, config), data


def _summary_worker(spec: RunSpec) -> tuple[int, int, bool, float, float]:
    result, _ = execute_run(spec)
    converged = result.stop_reason == "converged"
    iters = result.converged_at if converged else -1
    return (spec.seed, int(iters), converged, float(result.records[-1].loss), result.max_weight_norm)


def _worker_count(threads: int, n_specs: int) -> int:
    """Worker processes for n_specs runs: never more than the runs or the CPUs."""
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    return min(threads, n_specs, os.cpu_count() or 1)


def map_runs(worker, specs, threads: int):
    workers = _worker_count(threads, len(specs))
    if workers <= 1:
        return [worker(s) for s in specs]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        chunk = max(1, len(specs) // (4 * workers))
        return list(ex.map(worker, specs, chunksize=chunk))


def rho_at(params: NetworkParams, thetas: np.ndarray) -> np.ndarray:
    """Scalar-score coverage min(1, relu(score)) at unit-circle angles."""
    if params.n != 2 or params.d != 2:
        raise ValueError("coverage curve needs a planar two-class network")
    pts = np.column_stack([np.cos(thetas), np.sin(thetas)])
    F, _ = forward_batch(params, pts)
    score = (F[:, 0] - F[:, 1]) / (2.0 * params.output.v)
    return np.clip(score, 0.0, 1.0)


def rho_curve(params: NetworkParams, samples: int = 512) -> tuple[np.ndarray, np.ndarray]:
    if samples < 3:
        raise ValueError("need at least 3 samples")
    thetas = np.arange(samples) * (2.0 * math.pi / samples)
    return thetas, rho_at(params, thetas)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _check_biases(biases, width: int) -> None:
    if biases is None:
        return
    if len(biases) != width:
        raise ConfigError(f"biases must list one value per hidden unit ({width}), got {len(biases)}")
    if any(b < 0.0 for b in biases):
        raise ConfigError("biases must be nonnegative")
    total = sum(biases)
    if total != 0.0 and not (0.0 < total < 1.0):
        raise ConfigError(f"nonzero biases must sum into (0, 1), got {total}")


def _percentiles(values: np.ndarray) -> tuple[float, float, float]:
    q25, med, q75 = np.percentile(values, [25.0, 50.0, 75.0])
    return float(q25), float(med), float(q75)


def _iteration_stats(iters: list[int]) -> tuple[float, float, float, float, float]:
    """mean, std, median, q25, q75 over converged iteration counts."""
    arr = np.array([i for i in iters if i >= 0], dtype=float)
    if arr.size == 0:
        return (-1.0, -1.0, -1.0, -1.0, -1.0)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    q25, med, q75 = _percentiles(arr)
    return (float(arr.mean()), std, med, q25, q75)


# ---------------------------------------------------------------------------
# train


@dataclass(frozen=True)
class TrainCommandConfig:
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


_TRAIN_SPEC = {
    "task": (_as_str, "planar-grid"),
    "width": (_as_int, 8),
    "v": (_as_float, 0.5),
    "eta": (_as_float, 0.1),
    "max_iters": (_as_int, 5000),
    "stop_loss": (_as_float, 0.0),
    "record_every": (_as_int, 1),
    "seed": (_as_int, 0),
    "init": (_as_str, "random"),
    "theta": (_as_float, math.pi / 2),
    "noise_std": (_as_float, 0.0),
    "biases": (_as_opt_float_list, None),
}


def _trajectory_rows(result: TrainResult, class_count: int, gc_classes: tuple[int, ...]):
    rows = []
    for rec in result.records:
        row = [rec.t, rec.loss, rec.weight_norm, rec.grad_norm]
        row += [rec.loss_per_class[c] for c in range(1, class_count + 1)]
        row += list(rec.neuron_norms)
        flags = rec.gc_flags or {}
        row += [bool(flags.get(c, False)) for c in gc_classes]
        rows.append(row)
    return rows


def _write_trajectory(out: str, result: TrainResult, gc_classes: tuple[int, ...]):
    labels = result.data_labels
    class_count = len(labels)
    if set(labels) != set(range(1, class_count + 1)):
        raise RuntimeError(f"trajectory export expects labels 1..n, got {labels}")
    path = os.path.join(out, "trajectory.csv")
    write_csv(
        path,
        SCHEMAS["trajectory"],
        _trajectory_rows(result, class_count, gc_classes),
        group_sizes={
            "loss_class": class_count,
            "neuron_norm": result.params.k,
            "gc_class": len(gc_classes),
        },
    )
    validate_csv(path)


def _result_json(result: TrainResult) -> dict:
    return {
        "stop_reason": result.stop_reason,
        "converged_at": result.converged_at,
        "max_weight_norm": result.max_weight_norm,
        "diverged": result.diverged,
        "trained_classes": list(result.trained_classes),
        "records": [
            {
                "t": rec.t,
                "loss": rec.loss,
                "loss_per_class": {str(k): v for k, v in sorted(rec.loss_per_class.items())},
                "neuron_norms": list(rec.neuron_norms),
                "weight_norm": rec.weight_norm,
                "grad_norm": rec.grad_norm,
                "gc_flags": {str(k): v for k, v in sorted((rec.gc_flags or {}).items())},
            }
            for rec in result.records
        ],
    }


def cmd_train(cfg: TrainCommandConfig, out: str) -> dict:
    _require(cfg.width >= 2, f"width must be at least 2, got {cfg.width}")
    _require(cfg.max_iters >= 1, f"max_iters must be at least 1, got {cfg.max_iters}")
    _require(math.isfinite(cfg.eta) and cfg.eta > 0.0, f"eta must be positive, got {cfg.eta}")
    _require(cfg.stop_loss >= 0.0, "stop_loss must be nonnegative")
    _require(cfg.record_every >= 1, "record_every must be at least 1")
    _check_biases(cfg.biases, cfg.width)
    train_classes = (1,) if cfg.task == "planar-grid" else (1, 2)
    spec = RunSpec(
        task=cfg.task,
        width=cfg.width,
        v=cfg.v,
        eta=cfg.eta,
        max_iters=cfg.max_iters,
        init=cfg.init,
        seed=cfg.seed,
        theta=cfg.theta,
        noise_std=cfg.noise_std,
        stop_loss=cfg.stop_loss,
        record_every=cfg.record_every,
        keep_weights=True,
        train_classes=train_classes,
        biases=cfg.biases,
    )
    result, data = execute_run(spec)
    reports = {c: detect_phases(result, c) for c in train_classes}
    audits = {c: critical_point_audit(result.params, data.subset([c])) for c in train_classes}

    _write_trajectory(out, result, train_classes)
    write_json(os.path.join(out, "trajectory.json"), _result_json(result))
    write_json(
        os.path.join(out, "phase_report.json"),
        {f"class_{c}": rep.to_json_dict() for c, rep in reports.items()},
    )
    write_json(
        os.path.join(out, "audit.json"),
        {f"class_{c}": audit.to_json_dict() for c, audit in audits.items()},
    )
    ts = [rec.t for rec in result.records]
    losses = [rec.loss for rec in result.records]
    svg = line_chart([("objective", ts, losses)], "training objective", "iteration", "loss")
    with open(os.path.join(out, "loss_curve.svg"), "w") as fh:
        fh.write(svg)
    return {
        "stop_reason": result.stop_reason,
        "converged_at": result.converged_at,
        "final_loss": result.records[-1].loss,
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


_SWEEP_WIDTH_SPEC = {
    "widths": (_as_int_list, SweepWidthConfig.widths),
    "inits": (_as_str_list, SweepWidthConfig.inits),
    "runs": (_as_int, 100),
    "seed_base": (_as_int, 0),
    "v": (_as_float, 0.5),
    "eta": (_as_float, 0.1),
    "max_iters": (_as_int, 5000),
    "threads": (_as_int, 1),
}


def cmd_sweep_width(cfg: SweepWidthConfig, out: str) -> dict:
    _require(cfg.runs >= 1, f"runs must be at least 1, got {cfg.runs}")
    _require(cfg.max_iters >= 1, "max_iters must be at least 1")
    _require(math.isfinite(cfg.eta) and cfg.eta > 0.0, f"eta must be positive, got {cfg.eta}")
    for w in cfg.widths:
        if w < 4 or w % 2:
            raise ConfigError(f"widths must be even and at least 4, got {w}")
    for init in cfg.inits:
        if init not in ("random", "halfspace"):
            raise ConfigError(f"sweep-width inits must be 'random' or 'halfspace', got {init!r}")
    run_rows = []
    summary_rows = []
    means: dict[str, list[float]] = {init: [] for init in cfg.inits}
    boxes = []
    for width in cfg.widths:
        for ci, init in enumerate(cfg.inits):
            specs = [
                RunSpec(
                    task="planar-grid",
                    width=width,
                    v=cfg.v,
                    eta=cfg.eta,
                    max_iters=cfg.max_iters,
                    init=init,
                    seed=cfg.seed_base + r,
                    record_every=max(1, cfg.max_iters),
                )
                for r in range(cfg.runs)
            ]
            results = map_runs(_summary_worker, specs, cfg.threads)
            iters = []
            for r, (seed, it, conv, floss, mnorm) in enumerate(results):
                run_rows.append([width, init, r, seed, it, conv, floss, mnorm])
                iters.append(it)
            mean, std, med, q25, q75 = _iteration_stats(iters)
            converged = sum(1 for i in iters if i >= 0)
            summary_rows.append([width, init, cfg.runs, converged, mean, std, med, q25, q75])
            means[init].append(mean)
            good = sorted(i for i in iters if i >= 0)
            if good:
                boxes.append(
                    (f"{width} {init}", (float(good[0]), q25, med, q75, float(good[-1])), ci)
                )
    if not boxes:
        raise RuntimeError("no run converged in any cell; nothing to summarize")
    runs_path = os.path.join(out, "width_runs.csv")
    write_csv(runs_path, SCHEMAS["width_runs"], run_rows)
    validate_csv(runs_path)
    summary_path = os.path.join(out, "width_summary.csv")
    write_csv(summary_path, SCHEMAS["width_summary"], summary_rows)
    validate_csv(summary_path)
    with open(os.path.join(out, "width_box.svg"), "w") as fh:
        fh.write(box_chart(boxes, "iterations to zero loss by width and init", "iterations"))
    with open(os.path.join(out, "width_means.svg"), "w") as fh:
        fh.write(
            line_chart(
                [(init, list(cfg.widths), means[init]) for init in cfg.inits],
                "mean iterations to zero loss",
                "total hidden units",
                "iterations",
            )
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


_SWEEP_ANGLE_SPEC = {
    "angles": (_as_float_list, SweepAngleConfig.angles),
    "runs": (_as_int, 20),
    "seed_base": (_as_int, 0),
    "width": (_as_int, 8),
    "v": (_as_float, 0.5),
    "eta": (_as_float, 0.2),
    "max_iters": (_as_int, 20000),
    "noise_std": (_as_float, 0.0),
    "init": (_as_str, "random"),
    "threads": (_as_int, 1),
}


def cmd_sweep_angle(cfg: SweepAngleConfig, out: str) -> dict:
    _require(cfg.runs >= 1, f"runs must be at least 1, got {cfg.runs}")
    _require(cfg.max_iters >= 1, "max_iters must be at least 1")
    _require(math.isfinite(cfg.eta) and cfg.eta > 0.0, f"eta must be positive, got {cfg.eta}")
    _require(cfg.width >= 4 and cfg.width % 2 == 0, f"width must be even and at least 4, got {cfg.width}")
    run_rows = []
    summary_rows = []
    mean_by_angle = []
    for theta in cfg.angles:
        if not (0.0 < theta <= math.pi / 2):
            raise ConfigError(f"angles must lie in (0, pi/2], got {theta}")
        specs = [
            RunSpec(
                task="subspace-pair",
                width=cfg.width,
                v=cfg.v,
                eta=cfg.eta,
                max_iters=cfg.max_iters,
                init=cfg.init,
                seed=cfg.seed_base + r,
                theta=theta,
                noise_std=cfg.noise_std,
                train_classes=(1, 2),
                record_every=max(1, cfg.max_iters),
            )
            for r in range(cfg.runs)
        ]
        results = map_runs(_summary_worker, specs, cfg.threads)
        iters = []
        for r, (seed, it, conv, floss, mnorm) in enumerate(results):
            run_rows.append([theta, r, seed, it, conv, floss, mnorm])
            iters.append(it)
        mean, std, med, q25, q75 = _iteration_stats(iters)
        converged = sum(1 for i in iters if i >= 0)
        summary_rows.append([theta, cfg.runs, converged, mean, std, med, q25, q75])
        mean_by_angle.append(mean)
    runs_path = os.path.join(out, "angle_runs.csv")
    write_csv(runs_path, SCHEMAS["angle_runs"], run_rows)
    validate_csv(runs_path)
    summary_path = os.path.join(out, "angle_summary.csv")
    write_csv(summary_path, SCHEMAS["angle_summary"], summary_rows)
    validate_csv(summary_path)
    with open(os.path.join(out, "angle_sweep.svg"), "w") as fh:
        fh.write(
            line_chart(
                [
                    ("mean", list(cfg.angles), mean_by_angle),
                    ("q25", list(cfg.angles), [row[6] for row in summary_rows]),
                    ("q75", list(cfg.angles), [row[7] for row in summary_rows]),
                ],
                "iterations to zero loss vs subspace angle",
                "principal angle (radians)",
                "iterations",
            )
        )
    return {"angles": list(cfg.angles), "mean_iterations": mean_by_angle}


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


_NORM_HIST_SPEC = {
    "runs": (_as_int, 200),
    "seed_base": (_as_int, 0),
    "width": (_as_int, 8),
    "v": (_as_float, 0.5),
    "eta": (_as_float, 0.1),
    "max_iters": (_as_int, 5000),
    "init": (_as_str, "random"),
    "bins": (_as_int, 20),
    "threads": (_as_int, 1),
}


def _final_norm_worker(spec: RunSpec) -> tuple[int, int, bool, float, float]:
    result, _ = execute_run(spec)
    converged = result.stop_reason == "converged"
    iters = result.converged_at if converged else -1
    return (spec.seed, int(iters), converged, result.records[-1].weight_norm, result.max_weight_norm)


def cmd_norm_hist(cfg: NormHistConfig, out: str) -> dict:
    _require(cfg.runs >= 1, f"runs must be at least 1, got {cfg.runs}")
    _require(cfg.max_iters >= 1, "max_iters must be at least 1")
    _require(cfg.bins >= 1, "bins must be at least 1")
    specs = [
        RunSpec(
            task="planar-grid",
            width=cfg.width,
            v=cfg.v,
            eta=cfg.eta,
            max_iters=cfg.max_iters,
            init=cfg.init,
            seed=cfg.seed_base + r,
            record_every=max(1, cfg.max_iters),
        )
        for r in range(cfg.runs)
    ]
    results = map_runs(_final_norm_worker, specs, cfg.threads)
    rows = [[r, seed, it, conv, fnorm, mnorm] for r, (seed, it, conv, fnorm, mnorm) in enumerate(results)]
    runs_path = os.path.join(out, "norm_runs.csv")
    write_csv(runs_path, SCHEMAS["norm_runs"], rows)
    validate_csv(runs_path)
    max_norms = np.array([row[5] for row in rows])
    counts, edges = np.histogram(max_norms, bins=cfg.bins)
    hist_path = os.path.join(out, "norm_hist.csv")
    write_csv(
        hist_path,
        SCHEMAS["histogram"],
        [[edges[i], edges[i + 1], int(c)] for i, c in enumerate(counts)],
    )
    validate_csv(hist_path)
    with open(os.path.join(out, "norm_hist.svg"), "w") as fh:
        fh.write(histogram_chart(edges, counts, "largest weight norm per run", "max weight norm"))
    return {"max_norm_overall": float(max_norms.max()), "mean_max_norm": float(max_norms.mean())}


# ---------------------------------------------------------------------------
# gc-prob


@dataclass(frozen=True)
class GcProbConfig:
    cells: tuple[tuple[int, int], ...] = ((2, 3), (2, 4), (3, 5), (4, 8))
    trials: int = 100000
    seed: int = 0


_GC_PROB_SPEC = {
    "cells": (_as_pair_list, GcProbConfig.cells),
    "trials": (_as_int, 100000),
    "seed": (_as_int, 0),
}


def cmd_gc_prob(cfg: GcProbConfig, out: str) -> dict:
    _require(cfg.trials >= 1, f"trials must be at least 1, got {cfg.trials}")
    for d, k in cfg.cells:
        _require(d >= 1 and k >= 1, f"cells need d >= 1 and k >= 1, got ({d}, {k})")
    rng = Rng(cfg.seed)
    rows = []
    for i, (d, k) in enumerate(cfg.cells):
        exact = gc_probability(d, k)
        est, se = gc_probability_mc(d, k, cfg.trials, rng.child(i))
        err = abs(est - exact)
        rows.append([d, k, cfg.trials, exact, est, se, err, bool(err <= 3.0 * se or err == 0.0)])
    path = os.path.join(out, "gc_prob.csv")
    write_csv(path, SCHEMAS["gc_prob"], rows)
    validate_csv(path)
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


_TRACE_SPEC = {
    "snapshots": (_as_int_list, TraceDynamicsConfig.snapshots),
    "eta": (_as_float, 0.1),
    "v": (_as_float, 0.5),
    "max_iters": (_as_int, 5000),
    "seed": (_as_int, 0),
    "init": (_as_str, "three-rays"),
    "rho_samples": (_as_int, 512),
}


def cmd_trace_dynamics(cfg: TraceDynamicsConfig, out: str) -> dict:
    if cfg.rho_samples < 3:
        raise ConfigError(f"rho_samples must be at least 3, got {cfg.rho_samples}")
    _require(cfg.max_iters >= 1, "max_iters must be at least 1")
    _require(math.isfinite(cfg.eta) and cfg.eta > 0.0, f"eta must be positive, got {cfg.eta}")
    spec = RunSpec(
        task="planar-grid",
        width=6,
        v=cfg.v,
        eta=cfg.eta,
        max_iters=cfg.max_iters,
        init=cfg.init,
        seed=cfg.seed,
        keep_weights=True,
        record_every=1,
    )
    result, data = execute_run(spec)
    final_t = result.records[-1].t
    wanted = sorted({min(max(t, 0), final_t) for t in cfg.snapshots} | {final_t})
    t_to_index = {rec.t: i for i, rec in enumerate(result.records)}

    inverted = kelvin(data.X)
    sample_angles = np.arctan2(data.X[:, 1], data.X[:, 0])
    sample_targets = 1.0 / np.linalg.norm(data.X, axis=1)
    owner = result.params.output.owner
    frames = []
    for t in wanted:
        idx = t_to_index[t]
        W = result.weights[idx]
        params_t = result.params.with_weights(W)
        pos = W[:, owner == 1]
        norms = np.linalg.norm(pos, axis=0)
        live = norms > 1e-12
        pos_dirs = (pos[:, live] / norms[live]).T
        neg = W[:, owner == 2].T
        angles, rho = rho_curve(params_t, cfg.rho_samples)
        covered = bool(np.all(rho_at(params_t, sample_angles) >= sample_targets - 1e-12))
        frames.append(
            {
                "t": t,
                "loss": result.records[idx].loss,
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
            f"t = {t}, loss = {result.records[idx].loss:.6g}",
        )
        with open(os.path.join(out, f"frame_t{t:05d}.svg"), "w") as fh:
            fh.write(svg)
    write_json(
        os.path.join(out, "dynamics.json"),
        {
            "stop_reason": result.stop_reason,
            "converged_at": result.converged_at,
            "rho_samples": cfg.rho_samples,
            "frames": frames,
        },
    )
    _write_trajectory(out, result, ())
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


_LANDSCAPE_SPEC = {
    "width": (_as_int, 8),
    "v": (_as_float, 0.5),
    "subspace_dim": (_as_int, 2),
    "data_min": (_as_float, 1.0),
    "data_max": (_as_float, 2.0),
    "samples_per_class": (_as_int, 400),
    "audit_runs": (_as_int, 5),
    "eta": (_as_float, 0.1),
    "max_iters": (_as_int, 5000),
    "pairs": (_as_int, 10000),
    "biases": (_as_opt_float_list, None),
    "seed": (_as_int, 0),
}


def cmd_landscape_audit(cfg: LandscapeAuditConfig, out: str) -> dict:
    _require(cfg.pairs >= 1, "pairs must be at least 1")
    _require(cfg.audit_runs >= 0, "audit_runs must be nonnegative")
    _require(cfg.samples_per_class >= 1, "samples_per_class must be at least 1")
    _require(cfg.subspace_dim >= 1, "subspace_dim must be at least 1")
    _require(0.0 < cfg.data_min < cfg.data_max, "need 0 < data_min < data_max")
    _require(cfg.width >= 4 and cfg.width % 2 == 0, f"width must be even and at least 4, got {cfg.width}")
    _check_biases(cfg.biases, cfg.width)
    if cfg.biases is not None and sum(cfg.biases) == 0.0:
        raise ConfigError("the weight-perturbation diagnostic needs nonzero biases")
    rng = Rng(cfg.seed)
    output = binary_output_map(cfg.width, cfg.v)
    dist = AnnulusDistribution(np.eye(cfg.subspace_dim), cfg.data_min, cfg.data_max)

    constructed = {}
    for label in (1, 2):
        W = construct_zero_loss(output, label, cfg.subspace_dim, cfg.data_min)
        params = network_params(W, output)
        sample = sample_annulus(dist, cfg.samples_per_class, rng.child(label), label=label)
        constructed[f"class_{label}"] = critical_point_audit(params, sample).to_json_dict()

    trained = []
    for r in range(cfg.audit_runs):
        spec = RunSpec(
            task="planar-grid",
            width=cfg.width,
            v=cfg.v,
            eta=cfg.eta,
            max_iters=cfg.max_iters,
            init="random",
            seed=cfg.seed + r,
            record_every=max(1, cfg.max_iters),
        )
        result, data = execute_run(spec)
        audit = critical_point_audit(result.params, data)
        trained.append({"seed": cfg.seed + r, "stop_reason": result.stop_reason, **audit.to_json_dict()})

    biases = cfg.biases if cfg.biases is not None else tuple([0.4 / cfg.width] * cfg.width)
    bias_arr = np.asarray(biases, dtype=float)
    lip_data = grid_dataset_planar(GridDatasetSpec())

    def sampler(r: Rng) -> NetworkParams:
        return network_params(r.normal((2, cfg.width)), output, bias_arr)

    report = lipschitz_estimate(sampler, lip_data, cfg.pairs, rng.child(99))
    hist_path = os.path.join(out, "lipschitz_hist.csv")
    write_csv(
        hist_path,
        SCHEMAS["histogram"],
        [
            [report.hist_edges[i], report.hist_edges[i + 1], report.hist_counts[i]]
            for i in range(len(report.hist_counts))
        ],
    )
    validate_csv(hist_path)
    with open(os.path.join(out, "lipschitz_hist.svg"), "w") as fh:
        fh.write(
            histogram_chart(
                report.hist_edges,
                report.hist_counts,
                "loss difference ratios over weight pairs",
                "|loss gap| / |weight gap|",
            )
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
    "train": (TrainCommandConfig, _TRAIN_SPEC, cmd_train),
    "sweep-width": (SweepWidthConfig, _SWEEP_WIDTH_SPEC, cmd_sweep_width),
    "sweep-angle": (SweepAngleConfig, _SWEEP_ANGLE_SPEC, cmd_sweep_angle),
    "norm-hist": (NormHistConfig, _NORM_HIST_SPEC, cmd_norm_hist),
    "gc-prob": (GcProbConfig, _GC_PROB_SPEC, cmd_gc_prob),
    "trace-dynamics": (TraceDynamicsConfig, _TRACE_SPEC, cmd_trace_dynamics),
    "landscape-audit": (LandscapeAuditConfig, _LANDSCAPE_SPEC, cmd_landscape_audit),
}


def run_command(name: str, mapping: dict, out: str) -> dict:
    if name not in COMMANDS:
        raise ConfigError(f"unknown command {name!r}; expected one of {sorted(COMMANDS)}")
    cls, spec, runner = COMMANDS[name]
    cfg = _build_config(cls, spec, mapping)
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "config.json"), _config_snapshot(name, cfg))
    return runner(cfg, out)
