"""Multiclass hinge loss and its exact subgradient.

For a sample (x, y) the loss is sum_{i != y} max(0, 1 - f_y(x) + f_i(x)).
The subgradient follows the rule

    d/dw_j = - sum_{i != y} (V[y,j] - V[i,j]) * [f_y < f_i + 1] * [<w_j, x> > b_j] * x

with both indicators strict, so samples sitting exactly on a hinge or ReLU
boundary contribute nothing.  Dataset quantities are plain means over the
samples; to restrict them to some classes, pass data.subset(labels).
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
    "subgradient",
    "active_sets",
    "directional_derivative_fd",
    "batch_loss_grad",
]


def _hinge(F: np.ndarray, y0: np.ndarray):
    """Hinge terms class by class: (losses (N,), strict flags (N, n), flag count (N,)).

    Class c has margin m_c = 1 - f_y + F[:, c].  For c != y it adds
    max(m_c, 0) to the sample's loss (a NaN margin makes the loss NaN) and
    is active when m_c > 0.
    """
    N, n = F.shape
    slack = 1.0 - F[np.arange(N), y0]
    losses = np.zeros(N)
    count = np.zeros(N)
    active = np.empty((N, n), dtype=bool)
    for c in range(n):
        margin = slack + F[:, c]
        other = y0 != c
        np.add(losses, np.maximum(margin, 0.0), out=losses, where=other)
        flag = np.greater(margin, 0.0, out=active[:, c])
        flag &= other
        count += flag
    return losses, active, count


def batch_loss_grad(W, b, values, X, y0, rows):
    """Mean loss and mean subgradient over the given sample rows.

    Array-level workhorse shared by the public ops and the training loop so
    both follow bit-identical arithmetic.  y0 holds 0-based labels and rows
    distinct sample indices; values is an OutputMap's matrix.
    """
    F, H = forward_arrays(W, b, values, X)
    losses, active, count = _hinge(F, y0)
    # Column j of values is +v on its owner class o_j and -v on every other
    # class, so the coefficient sum_i active_i (V[y, j] - V[i, j]) of x in
    # d/dw_j equals 2v (count [o_j = y] - active[o_j]); table[:, c] holds it
    # for the units that class c owns.
    table = np.negative(active, dtype=float)
    table[np.arange(y0.size), y0] = count
    table *= 2.0 * values.max()
    coef = table[:, values.argmax(axis=0)]
    coef *= H > 0.0
    if rows.size == y0.size:
        return float(losses.mean()), losses, -(X.T @ coef) / rows.size
    return float(losses[rows].mean()), losses, -(X[rows].T @ coef[rows]) / rows.size


def sample_loss(params: NetworkParams, x: np.ndarray, y: int) -> float:
    scores, _ = forward(params, x)
    others = np.delete(scores, y - 1)
    return float(np.maximum(0.0, 1.0 - scores[y - 1] + others).sum())


def per_sample_losses(params: NetworkParams, data: LabeledDataset) -> np.ndarray:
    F, _ = forward_batch(params, data.X)
    losses, _, _ = _hinge(F, data.y - 1)
    return losses


def dataset_loss(params: NetworkParams, data: LabeledDataset) -> float:
    return float(per_sample_losses(params, data).mean())


def subgradient(params: NetworkParams, data: LabeledDataset) -> np.ndarray:
    """Exact mean subgradient of the hinge loss with respect to W, shape (d, k)."""
    _, _, grad = batch_loss_grad(
        params.weights, params.biases, params.output.values, data.X, data.y - 1, np.arange(data.n_samples)
    )
    return grad


@dataclass(frozen=True)
class ActiveSets:
    """Strict activity indicators: margin[s, i] marks hinge pairs, relu[s, j] live units."""

    margin: np.ndarray  # (N, n) bool, diagonal class i = y_s always False
    relu: np.ndarray  # (N, k) bool


def active_sets(params: NetworkParams, data: LabeledDataset) -> ActiveSets:
    F, H = forward_batch(params, data.X)
    _, margin, _ = _hinge(F, data.y - 1)
    return ActiveSets(margin=margin, relu=H > 0.0)


def directional_derivative_fd(
    params: NetworkParams, data: LabeledDataset, direction: np.ndarray, h: float
) -> float:
    """Central finite difference of the mean loss along a weight-space direction."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != params.weights.shape:
        raise ValueError("direction must match the weight shape")
    lo = dataset_loss(params.with_weights(params.weights - h * direction), data)
    hi = dataset_loss(params.with_weights(params.weights + h * direction), data)
    return (hi - lo) / (2.0 * h)
