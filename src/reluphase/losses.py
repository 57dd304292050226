"""Multiclass hinge loss and its exact subgradient.

For a sample (x, y) the loss is sum_{i != y} max(0, 1 - f_y(x) + f_i(x)).
The subgradient follows the rule

    d/dw_j = - sum_{i != y} (V[y,j] - V[i,j]) * [f_y < f_i + 1] * [<w_j, x> > b_j] * x

with both indicators strict, so samples sitting exactly on a hinge or ReLU
boundary contribute nothing.  Dataset quantities are plain means over the
samples; to restrict them to some classes, pass data.subset(labels).
"""
from __future__ import annotations

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
    """The invariants and buffers of the class-by-class hinge for 0-based labels y0 of n classes.

    per_sample_losses and lipschitz_estimate build only this part, which
    holds what the losses need: margin[i] is the margin of the i-th class
    in others, kept for the kernel's flags.  The kernel's workspace adds
    the flags and the forward and gradient buffers.  Two facts of the
    labels are decided here, once: label is the one label every sample
    has, or None, in which case label_index is the flat index of each
    sample's own score in the class-major scores; direct says that the
    first class in others is against every sample.
    """

    def __init__(self, y0: np.ndarray, n: int):
        N, lo, hi = y0.size, int(y0.min()), int(y0.max())
        for label in (lo, hi):
            if not 0 <= label < n:
                raise ValueError(f"label {label + 1} has no class in an output map of {n} classes")
        self.label = lo if lo == hi else None
        self.label_index = None if self.label is not None else y0 * N + np.arange(N)  # F[y0[s], s]
        # A class no sample is labelled against adds no hinge term, so it is
        # skipped and the kernel's active column stays False.  A mask that covers
        # every sample is stored as None: it masks nothing.
        masks = [(c, y0 != c) for c in range(n)]
        self.others = [(c, None if other.all() else other) for c, other in masks if other.any()]
        self.direct = bool(self.others) and self.others[0][1] is None
        self.margin = list(np.empty((len(self.others), N)))
        self.slack, self.hinge, self.losses = np.empty((3, N))


class KernelWorkspace(_HingeWorkspace):
    """The per-run invariants and buffers of the loss kernel for one (values, X, y0, b).

    train builds one per run and passes it to every batch_loss_grad call, so
    a call allocates nothing.  The bias term is built here, once, by
    core.bias_term.  Each call overwrites the buffers: the losses and grad
    it returns stay valid only until the next call.  F (n, N) holds the
    class-major scores.  active (N, n) holds the strict hinge flags and
    count (N,) their number per sample, which batch_loss_grad derives from
    the hinge's margins: flags pairs each class's margin row with its
    active column and its mask.  table (N, n) stays sample-major, indexed
    by table_index: every other coef layout tried changed the grad bits.
    """

    def __init__(self, values: np.ndarray, X: np.ndarray, y0: np.ndarray, b: np.ndarray):
        (N, d), (n, k) = X.shape, values.shape
        super().__init__(y0, n)
        self.active, self.count = np.zeros((N, n), dtype=bool), np.empty(N)
        self.flags = [(margin, self.active[:, c], other) for (c, other), margin in zip(self.others, self.margin)]
        self.bias = bias_term(b, N)
        self.owner = values.argmax(axis=0)  # 0-based owner class of each unit
        self.two_v = 2.0 * values.max()
        self.XT = X.T
        self.F, self.table = np.empty((n, N)), np.empty((N, n))
        self.table_index = np.arange(N) * n + y0  # flat index of table[s, y0[s]]
        self.H, self.relu, self.coef = np.empty((N, k)), np.empty((N, k)), np.empty((N, k))
        self.live = np.empty((N, k), dtype=bool)
        self.grad = np.empty((d, k))


def _hinge(F: np.ndarray, ws: _HingeWorkspace) -> np.ndarray:
    """Hinge losses (N,) class by class into ws, each class's margin kept in ws.margin.

    F is the contiguous class-major (n, N) scores, so each class's scores
    are one row.  Class c has margin m_c = 1 - f_y + F[c].  For c != y it
    adds max(m_c, 0) to the sample's loss (a NaN margin makes the loss NaN).
    A class whose mask is None is against every sample, so it is added
    without a where= mask; when it is the first class, max(m_c, 0) is
    written into the losses, which is 0 + max(m_c, 0) bit for bit because a
    margin is never -0.0 (1 - f_y never is, and x + y is -0.0 only when both
    terms are).  The class-order loss sum is numpy's row sum for n < 8;
    from n = 8 numpy sums pairwise, so the last bits can differ.
    """
    slack, hinge, losses = ws.slack, ws.hinge, ws.losses
    if ws.label is None:
        # The workspace checked the labels, so every index is in range and
        # mode="clip" never acts; unlike the default mode, it lets np.take
        # write into out without an intermediate copy.
        np.take(F, ws.label_index, out=slack, mode="clip")
        np.subtract(1.0, slack, out=slack)
    else:
        np.subtract(1.0, F[ws.label], out=slack)
    terms = zip(ws.others, ws.margin)
    if ws.direct:
        (c, _), margin = next(terms)
        np.add(slack, F[c], out=margin)
        np.maximum(margin, 0.0, out=losses)
    else:
        losses.fill(0.0)
    for (c, other), margin in terms:
        np.add(slack, F[c], out=margin)
        np.maximum(margin, 0.0, out=hinge)
        np.add(losses, hinge, out=losses, where=True if other is None else other)
    return losses


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
    # The strict flags m_c > 0 of the classes each sample is against, and
    # their count.
    count = ws.count
    count.fill(0.0)
    for margin, flag, other in ws.flags:
        np.greater(margin, 0.0, out=flag)
        if other is not None:
            flag &= other
        count += flag
    # Column j of values is +v on its owner class o_j and -v on every other
    # class, so the coefficient sum_i active_i (V[y, j] - V[i, j]) of x in
    # d/dw_j equals 2v (count [o_j = y] - active[o_j]); table[:, c] holds it
    # for the units that class c owns.  That is the sum of the +-v entries
    # bit for bit for n = 2 at any v, and for any n when v is a power of two;
    # for other v it can differ in the last bits.
    table = np.negative(ws.active, dtype=float, out=ws.table)
    table.ravel()[ws.table_index] = count
    table *= ws.two_v
    coef = np.take(table, ws.owner, axis=1, out=ws.coef, mode="clip")
    coef *= np.greater(H, 0.0, out=ws.live)
    if rows.size == y0.size:
        grad = np.negative(np.matmul(ws.XT, coef, out=ws.grad), out=ws.grad)
        grad /= rows.size
        # The sum and division np.mean makes.
        return float(np.add.reduce(losses) / rows.size), losses, grad
    return float(losses[rows].mean()), losses, -(X[rows].T @ coef[rows]) / rows.size


def per_sample_losses(params: NetworkParams, data: LabeledDataset) -> np.ndarray:
    F, _ = forward_arrays(params.weights, bias_term(params.biases, data.n_samples), params.output.values, data.X)
    return _hinge(F, _HingeWorkspace(data.y - 1, params.n))


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
