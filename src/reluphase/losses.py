"""Multiclass hinge loss and its exact subgradient.

For a sample (x, y) the loss is sum_{i != y} max(0, 1 - f_y(x) + f_i(x)).
The subgradient follows the rule

    d/dw_j = - sum_{i != y} (V[y,j] - V[i,j]) * [f_y < f_i + 1] * [<w_j, x> > b_j] * x

with both indicators strict, so samples sitting exactly on a hinge or ReLU
boundary contribute nothing.  Dataset quantities are plain means over the
selected samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NetworkParams, forward, forward_arrays, forward_batch
from .datagen import LabeledDataset

__all__ = [
    "ActiveSets",
    "sample_loss",
    "per_sample_losses",
    "dataset_loss",
    "class_loss",
    "subgradient",
    "active_sets",
    "directional_derivative_fd",
    "batch_loss_grad",
]


def _select(data: LabeledDataset, classes) -> np.ndarray:
    if classes is None:
        return np.arange(data.n_samples)
    rows = np.flatnonzero(np.isin(data.y, list(classes)))
    if rows.size == 0:
        raise ValueError(f"no samples with labels in {tuple(classes)}")
    return rows


def _margins(F: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """(N, n) hinge margins 1 - f_y + f_i with the i = y column zeroed."""
    rows = np.arange(F.shape[0])
    m = 1.0 - F[rows, y0][:, None] + F
    m[rows, y0] = 0.0
    return m


def batch_loss_grad(W, b, values, X, y0, rows):
    """Mean loss and mean subgradient over the given sample rows.

    Array-level workhorse shared by the public ops and the training loop so
    both follow bit-identical arithmetic.  y0 holds 0-based labels.
    """
    F, H = forward_arrays(W, b, values, X)
    margins = _margins(F, y0)
    losses = np.maximum(margins, 0.0).sum(axis=1)
    active = margins > 0.0
    # coefficient of x in d/dw_j, per sample: sum_i active * (V[y,j] - V[i,j])
    coef = active.sum(axis=1)[:, None] * values[y0, :] - active @ values
    coef = coef * (H > 0.0)
    sel = coef[rows]
    grad = -(X[rows].T @ sel) / rows.size
    return float(losses[rows].mean()), losses, grad


def sample_loss(params: NetworkParams, x: np.ndarray, y: int) -> float:
    scores, _ = forward(params, x)
    others = np.delete(scores, y - 1)
    return float(np.maximum(0.0, 1.0 - scores[y - 1] + others).sum())


def per_sample_losses(params: NetworkParams, data: LabeledDataset) -> np.ndarray:
    F, _ = forward_batch(params, data.X)
    return np.maximum(_margins(F, data.y - 1), 0.0).sum(axis=1)


def dataset_loss(params: NetworkParams, data: LabeledDataset, classes=None) -> float:
    rows = _select(data, classes)
    return float(per_sample_losses(params, data)[rows].mean())


def class_loss(params: NetworkParams, data: LabeledDataset, label: int) -> float:
    return dataset_loss(params, data, classes=(label,))


def subgradient(params: NetworkParams, data: LabeledDataset, classes=None) -> np.ndarray:
    """Exact mean subgradient of the hinge loss with respect to W, shape (d, k)."""
    rows = _select(data, classes)
    _, _, grad = batch_loss_grad(
        params.weights, params.biases, params.output.values, data.X, data.y - 1, rows
    )
    return grad


@dataclass(frozen=True)
class ActiveSets:
    """Strict activity indicators: margin[s, i] marks hinge pairs, relu[s, j] live units."""

    margin: np.ndarray  # (N, n) bool, diagonal class i = y_s always False
    relu: np.ndarray  # (N, k) bool


def active_sets(params: NetworkParams, data: LabeledDataset) -> ActiveSets:
    F, H = forward_batch(params, data.X)
    return ActiveSets(margin=_margins(F, data.y - 1) > 0.0, relu=H > 0.0)


def directional_derivative_fd(
    params: NetworkParams, data: LabeledDataset, direction: np.ndarray, h: float, classes=None
) -> float:
    """Central finite difference of the mean loss along a weight-space direction."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != params.weights.shape:
        raise ValueError("direction must match the weight shape")
    lo = dataset_loss(params.with_weights(params.weights - h * direction), data, classes)
    hi = dataset_loss(params.with_weights(params.weights + h * direction), data, classes)
    return (hi - lo) / (2.0 * h)
