"""Deterministic full-batch subgradient descent on the hidden-layer weights.

Exact stopping semantics: the loop evaluates loss and subgradient at the
current state W^t before stepping, so "converged" means the recorded state
itself meets the stop threshold, and a run that starts at a flat point is
reported as such instead of looping.  A run whose loss, subgradient or
weight norm turns non-finite stops at the last finite iterate with stop
reason "nonfinite" and is flagged diverged.  Biases and the output map are
never updated.  The matrix norm used throughout is the sum of column norms.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import NetworkParams
from .datagen import LabeledDataset
from .losses import batch_loss_grad, subgradient

__all__ = [
    "TrainConfig",
    "TrajectoryRecord",
    "TrainResult",
    "gd_step",
    "train",
    "iterations_to_convergence",
    "weight_matrix_norm",
]

# A run whose weight matrix norm ever exceeds this is flagged diverged.
R_MAX = 1e3


def weight_matrix_norm(W: np.ndarray) -> float:
    """Sum of Euclidean column norms, the matrix size measure used everywhere here."""
    return float(np.linalg.norm(W, axis=0).sum())


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one run, which trains on every sample of its dataset."""

    eta: float
    max_iters: int
    stop_loss: float = 0.0
    record_every: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.stop_loss < 0.0:
            raise ValueError("stop_loss must be nonnegative")


@dataclass
class TrajectoryRecord:
    """State of the run at iteration t, measured before any step is taken.

    loss is the trained objective (mean over every sample); loss_per_class
    covers every class present in the dataset.  weights is the (d, k)
    hidden-layer matrix W^t itself.
    """

    t: int
    loss: float
    loss_per_class: dict[int, float]
    neuron_norms: np.ndarray
    grad_norm: float
    weights: np.ndarray

    @property
    def weight_norm(self) -> float:
        return float(self.neuron_norms.sum())


@dataclass
class TrainResult:
    params: NetworkParams
    records: list[TrajectoryRecord]
    stop_reason: str  # converged | dead_start | stalled | max_iters | nonfinite
    max_weight_norm: float
    config: TrainConfig
    data_labels: tuple[int, ...]

    @property
    def converged_at(self) -> int | None:
        """The iteration the run converged at: its last record's t, if it converged."""
        return self.records[-1].t if self.stop_reason == "converged" else None

    @property
    def diverged(self) -> bool:
        """A non-finite stop, or a weight norm that exceeded R_MAX along the way."""
        return self.stop_reason == "nonfinite" or self.max_weight_norm > R_MAX


def gd_step(params: NetworkParams, data: LabeledDataset, eta: float) -> NetworkParams:
    """One descent step W - eta * subgradient; eta = 0 returns the state unchanged."""
    if not (np.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"step size must be finite and nonnegative, got {eta}")
    grad = subgradient(params, data)
    return params.with_weights(params.weights - eta * grad)


def _check_activation(params: NetworkParams, data: LabeledDataset) -> list[int]:
    """Classes whose owner units see no sample with |<w_j, x>| > b_j at init."""
    silent = []
    for label in data.labels:
        cols = params.output.owner_columns(label)
        if cols.size == 0:
            continue
        dots = np.abs(data.X[data.indices_for(label)] @ params.weights[:, cols])
        if not np.any(dots > params.biases[cols]):
            silent.append(label)
    return silent


def train(params: NetworkParams, data: LabeledDataset, config: TrainConfig) -> TrainResult:
    rows = np.arange(data.n_samples)
    class_rows = {label: data.indices_for(label) for label in data.labels}

    silent = _check_activation(params, data)
    if silent:
        warnings.warn(
            f"initial weights activate no owner unit on any sample of classes {silent}; "
            "those classes cannot start learning",
            RuntimeWarning,
        )

    # glibc's malloc serves each block at or above its mmap threshold (128 KiB
    # at start-up) with a fresh mmap, so every N x k temporary of a wide run
    # (880 x 24 float64 is 169 KB) would fault in new pages on each kernel
    # call.  Freeing an mmapped block raises the threshold to its size, so one
    # 2 MiB block allocated and freed here keeps those temporaries on the heap.
    np.empty(1 << 18)
    W = np.array(params.weights, dtype=float, copy=True)
    b, values = params.biases, params.output.values
    X, y0 = data.X, data.y - 1

    records: list[TrajectoryRecord] = []
    max_norm = 0.0
    # Overflow on the way to a non-finite iterate is expected and recorded
    # as the "nonfinite" stop reason, so numpy's warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in itertools.count():
            state = batch_loss_grad(W, b, values, X, y0, rows), np.linalg.norm(W, axis=0)
            (loss, losses, grad), col_norms = state
            norm = float(col_norms.sum())
            if not (np.isfinite(loss) and np.isfinite(norm) and np.all(np.isfinite(grad))):
                if t == 0:
                    raise RuntimeError("non-finite loss, gradient or weight norm at the initial weights")
                # Stop at the last iterate whose loss, gradient and norm were finite.
                t, W, ((loss, losses, grad), col_norms) = t - 1, previous_W, previous_state
                stop_reason = "nonfinite"
            else:
                max_norm = max(max_norm, norm)
                if loss <= config.stop_loss:
                    stop_reason = "converged"
                elif not grad.any():
                    stop_reason = "dead_start" if t == 0 else "stalled"
                elif t == config.max_iters:
                    stop_reason = "max_iters"
                else:
                    stop_reason = None
            due = stop_reason is not None or t % config.record_every == 0
            if due and not (records and records[-1].t == t):
                records.append(
                    TrajectoryRecord(
                        t=t,
                        loss=loss,
                        loss_per_class={c: float(losses[idx].mean()) for c, idx in class_rows.items()},
                        neuron_norms=col_norms,
                        grad_norm=weight_matrix_norm(grad),
                        # The loop rebinds W each step and never writes into it.
                        weights=W,
                    )
                )
            if stop_reason is not None:
                break
            previous_W, previous_state = W, state
            W = W - config.eta * grad

    return TrainResult(
        params=params.with_weights(W),
        records=records,
        stop_reason=stop_reason,
        max_weight_norm=max_norm,
        config=config,
        data_labels=data.labels,
    )


def iterations_to_convergence(records: list[TrajectoryRecord], threshold: float = 0.0) -> int | None:
    """First recorded iteration whose objective is at or below the threshold."""
    for rec in records:
        if rec.loss <= threshold:
            return rec.t
    return None
