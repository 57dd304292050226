"""Two-class hinge loss and its exact subgradient.

For a sample (x, y) with other class o the loss is max(0, 1 - f_y(x) + f_o(x)).
The subgradient follows the rule

    d/dw_j = - (V[y,j] - V[o,j]) * [f_y < f_o + 1] * [<w_j, x> > b_j] * x

with both indicators strict, so samples sitting exactly on a hinge or ReLU
boundary contribute nothing.  Dataset quantities are plain means over the
samples; to restrict them to some classes, pass data.subset(labels).
"""
from __future__ import annotations

import math

import numpy as np

from .core import NetworkParams, bias_term, forward_arrays
from .datagen import LabeledDataset

__all__ = [
    "per_sample_losses",
    "dataset_loss",
    "subgradient",
    "directional_derivative_fd",
]


class _HingeWorkspace:
    """The invariants and buffers of the two-class hinge for 0-based labels y0.

    per_sample_losses and lipschitz_estimate build only this part, which
    holds what the losses need: margin keeps each sample's one hinge margin
    for the kernel's flags.  The kernel's workspace adds the forward and
    gradient buffers.  label is the one label every sample has, or None, in
    which case label_index and other_index are the flat indices of each
    sample's own and other score in the class-major scores.
    """

    def __init__(self, y0: np.ndarray):
        N, lo, hi = y0.size, int(y0.min()), int(y0.max())
        for label in (lo, hi):
            if not 0 <= label < 2:
                raise ValueError(f"label {label + 1} has no class in an output map of 2 classes")
        self.label = lo if lo == hi else None
        if self.label is None:
            self.label_index = y0 * N + np.arange(N)  # F[y0[s], s]
            self.other_index = (1 - y0) * N + np.arange(N)  # F[1 - y0[s], s]
        self.slack, self.margin, self.losses = np.empty((3, N))


def _scales_exactly(two_v: float, X: np.ndarray) -> bool:
    """Whether scaling by 2v commutes with rounding in every product and partial sum of X's rows.

    At 2v = 1 it does for every finite X.  Another power of two must keep
    every value normal: each nonzero |x| >= 2**-900 (a nonzero partial sum
    is a multiple of the least), N max|x| max(1, 2v) < 2**1000 and
    2**-60 <= 2v <= 2**60.
    """
    if two_v == 1.0:
        return True
    size = np.abs(X)
    return bool(
        math.frexp(two_v)[0] == 0.5
        and 2.0**-60 <= two_v <= 2.0**60
        and X.shape[0] * size.max() * max(1.0, two_v) < 2.0**1000
        and size[size != 0.0].min(initial=np.inf) >= 2.0**-900
    )


class KernelWorkspace(_HingeWorkspace):
    """The per-run invariants and buffers of the loss kernel for one (values, X, y0, b).

    train builds one per run and passes it to every batch_loss_grad call, so
    a call allocates nothing.  The bias term is built here, once, by
    core.bias_term.  Each call overwrites the buffers: the losses and grad
    it returns stay valid only until the next call.  F (2, N) holds the
    class-major scores.

    Unit j's subgradient is -2v tau_j sum_s sigma_s a_s [h_sj > 0] x_s, with
    a_s the sample's one strict hinge flag, sign holding sigma_s (+1 for
    label 1, -1 for label 2) and scale 2v tau_j (+2v on class 1's units,
    -2v on class 2's).  weight (N,) holds sigma_s a_s and live (N, k) the
    ReLU flags.  The operand form is chosen here, once.  scaled:
    _scales_exactly(2v, X), and left (N, d) holds the rows sigma_s a_s x_s,
    whose product with live is scaled by 2v tau_j after the sum.  Otherwise
    the product form: left is X, and live is multiplied by weight and scale,
    so each entry is +-2v or +-0.
    """

    def __init__(self, values: np.ndarray, X: np.ndarray, y0: np.ndarray, b: np.ndarray):
        (N, d), k = X.shape, values.shape[1]
        super().__init__(y0)
        self.bias = bias_term(b, N)
        self.F, self.H, self.relu = np.empty((2, N)), np.empty((N, k)), np.empty((N, k))
        self.grad, self.weight, self.live = np.empty((d, k)), np.empty(N), np.empty((N, k))
        self.sign, self.scale = 1.0 - 2.0 * y0, 2.0 * values[0]
        self.scaled = _scales_exactly(2.0 * values.max(), X)
        self.left = np.empty((N, d)) if self.scaled else X
        self.XT = self.left.T


def _hinge(F: np.ndarray, ws: _HingeWorkspace) -> np.ndarray:
    """Hinge losses (N,) into ws, each sample's margin kept in ws.margin.

    F is the contiguous class-major (2, N) scores.  A sample of label y has
    the one margin m = 1 - f_y + f_other and the loss max(m, 0) (a NaN
    margin makes the loss NaN).  With one label the scores are the rows
    F[label] and F[1 - label]; with both, each sample's are gathered.
    """
    slack, margin = ws.slack, ws.margin
    if ws.label is None:
        # The workspace checked the labels, so every index is in range and
        # mode="clip" never acts; unlike the default mode, it lets np.take
        # write into out without an intermediate copy.
        np.subtract(1.0, np.take(F, ws.label_index, out=slack, mode="clip"), out=slack)
        other = np.take(F, ws.other_index, out=margin, mode="clip")
    else:
        np.subtract(1.0, F[ws.label], out=slack)
        other = F[1 - ws.label]
    np.add(slack, other, out=margin)
    return np.maximum(margin, 0.0, out=ws.losses)


def batch_loss_grad(W, b, values, X, y0, rows, ws: KernelWorkspace | None = None):
    """Mean loss and mean subgradient over the given sample rows.

    Array-level workhorse shared by the public ops and the training loop so
    both follow bit-identical arithmetic.  y0 holds 0-based labels and rows
    distinct sample indices; values is an OutputMap's matrix.  ws is a
    workspace built from the same values, X, y0 and b, whose bias term the
    call subtracts; without one, the call builds its own.  The returned
    losses, and over every row the returned grad, are ws's buffers.
    """
    if ws is None:
        ws = KernelWorkspace(values, X, y0, b)
    F, H = forward_arrays(W, ws.bias, values, X, out=(ws.F, ws.H, ws.relu))
    losses = _hinge(F, ws)
    weight = np.greater(ws.margin, 0.0, out=ws.weight)
    weight *= ws.sign
    right = np.greater(H, 0.0, out=ws.live)
    if ws.scaled:
        # Each product and partial sum of the product form's matmul, with the
        # same operand layouts, is this one's times 2v tau_j: the same bits scaled.
        np.multiply(X, weight[:, None], out=ws.left)
    else:
        right *= weight[:, None]
        right *= ws.scale
    full = rows.size == y0.size
    grad = np.matmul(ws.XT, right, out=ws.grad) if full else ws.left[rows].T @ right[rows]
    if ws.scaled:
        grad *= ws.scale
        grad += 0.0  # a zero sum is +0.0 on both forms; a factor -2v would make it -0.0
    np.negative(grad, out=grad)
    grad /= rows.size
    # Over every row, the sum and division np.mean makes.
    loss = np.add.reduce(losses) / rows.size if full else losses[rows].mean()
    return float(loss), losses, grad


def per_sample_losses(params: NetworkParams, data: LabeledDataset) -> np.ndarray:
    F, _ = forward_arrays(params.weights, bias_term(params.biases, data.n_samples), params.output.values, data.X)
    return _hinge(F, _HingeWorkspace(data.y - 1))


def dataset_loss(params: NetworkParams, data: LabeledDataset) -> float:
    return float(per_sample_losses(params, data).mean())


def subgradient(params: NetworkParams, data: LabeledDataset) -> np.ndarray:
    """Exact mean subgradient of the hinge loss with respect to W, shape (d, k)."""
    _, _, grad = batch_loss_grad(
        params.weights, params.biases, params.output.values, data.X, data.y - 1, np.arange(data.n_samples)
    )
    return grad


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
