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
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import NetworkParams
from .datagen import LabeledDataset
from .losses import KernelWorkspace, batch_loss_grad

__all__ = [
    "TrainConfig",
    "TrajectoryRecord",
    "Trajectory",
    "TrainResult",
    "train",
    "weight_matrix_norm",
]

# A run whose weight matrix norm ever exceeds this is flagged diverged.
R_MAX = 1e3


def _column_norms(W: np.ndarray) -> np.ndarray:
    """Column norms of W or of a stack of matrices: np.linalg.norm(W, axis=-2)'s formula, bit for bit."""
    return np.sqrt(np.add.reduce(W * W, axis=-2))


def weight_matrix_norm(W: np.ndarray) -> float:
    """Sum of Euclidean column norms, the matrix size measure used everywhere here."""
    return float(_column_norms(W).sum())


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
        if not (self.stop_loss >= 0.0):
            raise ValueError(f"stop_loss must be nonnegative, got {self.stop_loss}")


@dataclass
class TrajectoryRecord:
    """State of the run at iteration t, measured before any step is taken.

    loss is the trained objective (mean over every sample); loss_per_class
    covers every class present in the dataset.  weights is the (d, k)
    hidden-layer matrix W^t.
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
class Trajectory:
    """A run's TrajectoryRecords by column: row i is the record of iteration t[i].

    loss_per_class[:, j] is the loss over class labels[j].  records[i] reads
    row i as a TrajectoryRecord whose arrays are views of the row.
    """

    labels: tuple[int, ...]
    t: np.ndarray
    loss: np.ndarray
    loss_per_class: np.ndarray
    neuron_norms: np.ndarray
    grad_norm: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> TrajectoryRecord:
        return TrajectoryRecord(
            t=int(self.t[i]),
            loss=float(self.loss[i]),
            loss_per_class=dict(zip(self.labels, self.loss_per_class[i].tolist())),
            neuron_norms=self.neuron_norms[i],
            grad_norm=float(self.grad_norm[i]),
            weights=self.weights[i],
        )


@dataclass
class TrainResult:
    params: NetworkParams
    records: Trajectory
    stop_reason: str  # converged | dead_start | stalled | max_iters | nonfinite
    max_weight_norm: float
    config: TrainConfig

    @property
    def converged_at(self) -> int | None:
        """The iteration the run converged at: its last record's t, if it converged."""
        return int(self.records.t[-1]) if self.stop_reason == "converged" else None

    @property
    def diverged(self) -> bool:
        """A non-finite stop, or a weight norm that exceeded R_MAX along the way."""
        return self.stop_reason == "nonfinite" or self.max_weight_norm > R_MAX


def _check_activation(params: NetworkParams, X: np.ndarray, class_rows: dict[int, np.ndarray]) -> list[int]:
    """Classes whose owner units see no sample with |<w_j, x>| > b_j at init; class_rows holds each label's rows."""
    silent = []
    for label, rows in class_rows.items():
        cols = params.output.owner_columns(label)
        dots = np.abs(X[rows] @ params.weights[:, cols])
        if not np.any(dots > params.biases[cols]):
            silent.append(label)
    return silent


def train(params: NetworkParams, data: LabeledDataset, config: TrainConfig) -> TrainResult:
    rows = np.arange(data.n_samples)
    W = np.array(params.weights, dtype=float, copy=True)
    b, values = params.biases, params.output.values
    X, y0 = data.X, data.y - 1
    # Built first: it refuses a label the output map has no class for.
    ws = KernelWorkspace(values, X, y0, b)

    class_rows = {label: data.indices_for(label) for label in data.labels}
    silent = _check_activation(params, X, class_rows)
    # A class that holds every sample records the run's loss, np.add.reduce(losses) / N, which is losses.mean().
    class_rows = {c: idx if idx.size < data.n_samples else None for c, idx in class_rows.items()}
    if silent:
        warnings.warn(
            f"initial weights activate no owner unit on any sample of classes {silent}; "
            "those classes cannot start learning",
            RuntimeWarning,
        )

    # The record columns, grown by doubling: a run holds room for at most twice
    # the records it makes, however many max_iters would allow.
    size = min(config.max_iters // config.record_every + 2, 64)
    shapes = ((), (len(class_rows),), (W.shape[1],), W.shape, W.shape)
    store = [np.empty(size, dtype=np.int64), *(np.empty((size, *shape)) for shape in shapes)]
    ts, loss_col, class_col, norm_col, weight_col, grad_col = store
    n = 0
    max_norm = 0.0
    # Overflow on the way to a non-finite iterate is expected and recorded
    # as the "nonfinite" stop reason, so numpy's warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in itertools.count():
            loss, losses, grad = batch_loss_grad(W, b, values, X, y0, rows, ws)
            col_norms = _column_norms(W)
            norm = float(col_norms.sum())
            if not (math.isfinite(loss) and math.isfinite(norm) and np.isfinite(grad).all()):
                if t == 0:
                    raise RuntimeError("non-finite loss, gradient or weight norm at the initial weights")
                # Stop at the last iterate whose loss, gradient and norm were
                # finite.  This call overwrote the workspace that held its
                # losses and gradient, so they are computed again; the kernel
                # is deterministic, so they are the same bytes.
                t, W, col_norms = t - 1, previous_W, previous_norms
                loss, losses, grad = batch_loss_grad(W, b, values, X, y0, rows, ws)
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
            if due and not (n and ts[n - 1] == t):
                if n == len(ts):
                    store = [np.concatenate((col, np.empty_like(col))) for col in store]
                    ts, loss_col, class_col, norm_col, weight_col, grad_col = store
                ts[n], loss_col[n], norm_col[n], weight_col[n], grad_col[n] = t, loss, col_norms, W, grad
                for j, idx in enumerate(class_rows.values()):
                    class_col[n, j] = loss if idx is None else losses[idx].mean()
                n += 1
            if stop_reason is not None:
                break
            previous_W, previous_norms = W, col_norms
            W = W - config.eta * grad

    records = Trajectory(
        labels=tuple(class_rows),
        t=ts[:n],
        loss=loss_col[:n],
        loss_per_class=class_col[:n],
        neuron_norms=norm_col[:n],
        # Each row is weight_matrix_norm of its record's gradient, bit for bit.
        grad_norm=_column_norms(grad_col[:n]).sum(axis=1),
        weights=weight_col[:n],
    )
    return TrainResult(
        params=params.with_weights(W),
        records=records,
        stop_reason=stop_reason,
        max_weight_norm=max_norm,
        config=config,
    )
