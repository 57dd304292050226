import math

import numpy as np
import pytest

from reluphase import (
    LabeledDataset,
    Rng,
    active_sets,
    build_output_map,
    dataset_loss,
    directional_derivative_fd,
    network_params,
    per_sample_losses,
    sample_loss,
    subgradient,
)
from reluphase.core import forward_arrays
from reluphase.experiments import build_task, initial_weights
from reluphase.losses import batch_loss_grad


def brute_force_grad(params, data, classes=None):
    """Straight per-sample, per-unit transcription of the subgradient rule."""
    W, b, V = params.weights, params.biases, params.output.values
    rows = range(data.n_samples) if classes is None else [
        s for s in range(data.n_samples) if data.y[s] in classes
    ]
    grad = np.zeros_like(W)
    for s in rows:
        x, y = data.X[s], int(data.y[s]) - 1
        h = W.T @ x - b
        f = V @ np.maximum(h, 0.0)
        for j in range(W.shape[1]):
            if not (h[j] > 0.0):
                continue
            for i in range(V.shape[0]):
                if i == y:
                    continue
                if 1.0 - f[y] + f[i] > 0.0:
                    grad[:, j] -= (V[y, j] - V[i, j]) * x
    return grad / len(list(rows))


def random_instance(seed, n=3, k=5, d=4, N=30):
    rng = Rng(seed)
    params = network_params(
        rng.normal((d, k)), build_output_map(n, k, 0.6), np.abs(rng.normal(k)) * 0.02
    )
    X = rng.normal((N, d))
    y = (np.arange(N) % n) + 1
    return params, LabeledDataset(X, y)


def test_hand_oracle_loss_and_grad():
    """One active sample, one live unit and one dead unit, worked by hand."""
    params = network_params(
        np.array([[0.1, 0.0], [0.0, 0.0]]), build_output_map(2, 2, 1.0)
    )
    data = LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]))
    assert sample_loss(params, data.X[0], 1) == pytest.approx(0.8, abs=0)
    assert dataset_loss(params, data) == pytest.approx(0.8, abs=0)
    g = subgradient(params, data)
    np.testing.assert_array_equal(g, [[-2.0, 0.0], [0.0, 0.0]])


def test_matches_brute_force_reference():
    for seed in range(6):
        params, data = random_instance(seed)
        np.testing.assert_allclose(
            subgradient(params, data), brute_force_grad(params, data), atol=1e-12
        )


def test_class_restriction_matches_brute_force():
    params, data = random_instance(11)
    np.testing.assert_allclose(
        subgradient(params, data.subset([2])),
        brute_force_grad(params, data, classes=(2,)),
        atol=1e-12,
    )


def test_per_sample_losses_agree_with_sample_loss():
    params, data = random_instance(4)
    losses = per_sample_losses(params, data)
    for s in range(data.n_samples):
        assert losses[s] == pytest.approx(sample_loss(params, data.X[s], int(data.y[s])), abs=1e-12)
    assert dataset_loss(params, data) == pytest.approx(losses.mean(), abs=1e-12)
    rows = data.indices_for(2)
    assert dataset_loss(params, data.subset([2])) == pytest.approx(losses[rows].mean(), abs=1e-12)


def test_relu_boundary_contributes_nothing():
    # Unit 1 sits exactly on its activation boundary for the only sample.
    params = network_params(np.array([[0.0, 0.3], [1.0, 0.0]]), build_output_map(2, 2, 1.0))
    data = LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]))
    g = subgradient(params, data)
    np.testing.assert_array_equal(g[:, 0], [0.0, 0.0])
    assert np.any(g[:, 1] != 0.0)


def test_hinge_boundary_contributes_nothing():
    # Margin exactly zero: f1 - f2 = 1, strict inequality excludes it.
    params = network_params(np.array([[0.5, 0.0], [0.0, 0.0]]), build_output_map(2, 2, 1.0))
    data = LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]))
    assert dataset_loss(params, data) == 0.0
    np.testing.assert_array_equal(subgradient(params, data), np.zeros((2, 2)))


def test_gradient_lies_in_data_span():
    """Rows of the subgradient live in the span of the training samples."""
    rng = Rng(9)
    X2 = rng.normal((12, 2))
    X = np.hstack([X2, np.zeros((12, 2))])  # data confined to the first two axes
    data = LabeledDataset(X, np.ones(12, dtype=int))
    params = network_params(rng.normal((4, 6)), build_output_map(2, 6, 0.5))
    g = subgradient(params, data)
    np.testing.assert_array_equal(g[2:, :], np.zeros((2, 6)))


def test_directional_derivative_matches_fd():
    params, data = random_instance(21)
    rng = Rng(33)
    g = subgradient(params, data)
    for _ in range(5):
        D = rng.normal(params.weights.shape)
        fd = directional_derivative_fd(params, data, D, h=1e-6)
        assert fd == pytest.approx(float((g * D).sum()), rel=1e-4, abs=1e-8)


def test_directional_derivative_shape_check():
    params, data = random_instance(2)
    with pytest.raises(ValueError):
        directional_derivative_fd(params, data, np.ones(3), h=1e-6)


def test_active_sets_flags():
    params, data = random_instance(5)
    acts = active_sets(params, data)
    assert acts.margin.shape == (data.n_samples, params.n)
    assert acts.relu.shape == (data.n_samples, params.k)
    rows = np.arange(data.n_samples)
    assert not acts.margin[rows, data.y - 1].any()  # own class never active against itself
    H = data.X @ params.weights - params.biases
    np.testing.assert_array_equal(acts.relu, H > 0.0)


def reference_margins(F, y0):
    """(N, n) hinge margins 1 - f_y + f_i with the i = y column zeroed."""
    rows = np.arange(F.shape[0])
    m = 1.0 - F[rows, y0][:, None] + F
    m[rows, y0] = 0.0
    return m


def reference_batch_loss_grad(W, b, values, X, y0, rows):
    """The loss kernel before the owner-table form, kept as a byte-level oracle.

    It builds every margin, sums the hinge over classes, and forms the
    coefficients as count * V[y, :] - active @ V.
    """
    F, H = forward_arrays(W, b, values, X)
    margins = reference_margins(F, y0)
    losses = np.maximum(margins, 0.0).sum(axis=1)
    active = margins > 0.0
    # coefficient of x in d/dw_j, per sample: sum_i active * (V[y,j] - V[i,j])
    coef = active.sum(axis=1)[:, None] * values[y0, :] - active @ values
    coef = coef * (H > 0.0)
    sel = coef[rows]
    grad = -(X[rows].T @ sel) / rows.size
    return float(losses[rows].mean()), losses, grad


def assert_kernel_matches(W, b, values, X, y0, rows, grad_atol=None):
    """Byte-equal loss, losses and grad; with grad_atol, grad within that bound."""
    want = reference_batch_loss_grad(W, b, values, X, y0, rows)
    got = batch_loss_grad(W, b, values, X, y0, rows)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    if grad_atol is None:
        assert got[2].tobytes() == want[2].tobytes()
    else:
        np.testing.assert_allclose(got[2], want[2], rtol=0.0, atol=grad_atol)
    return want


def check_trajectory(W, b, values, X, y0, rows, steps, eta, grad_atol=None):
    """Compare the kernels at every iterate of a descent run driven by the reference."""
    for _ in range(steps):
        _, _, grad = assert_kernel_matches(W, b, values, X, y0, rows, grad_atol)
        W = W - eta * grad


def task_arrays(task, width, bias=0.0, classes=None, seed=0):
    rng = Rng(seed)
    data = build_task(task, math.pi / 3, 0.0, rng.child(1))
    W = initial_weights("random", data.dim, width, rng.child(0))
    rows = np.arange(data.n_samples) if classes is None else np.flatnonzero(np.isin(data.y, classes))
    return W, np.full(width, bias), build_output_map(2, width, 0.5).values, data.X, data.y - 1, rows


@pytest.mark.parametrize(
    "task, width, bias, classes",
    [
        ("planar-grid", 6, 0.0, None),
        ("planar-grid", 14, 0.0, None),
        ("planar-grid", 24, 0.0, None),
        ("subspace-pair", 8, 0.0, None),
        ("planar-grid", 8, 0.05, None),
        ("subspace-pair", 8, 0.0, (2,)),
    ],
    ids=["planar-k6", "planar-k14", "planar-k24", "subspace-k8", "planar-k8-biased", "subspace-k8-class2"],
)
def test_kernel_trajectory_matches_reference_bytes(task, width, bias, classes):
    check_trajectory(*task_arrays(task, width, bias, classes), steps=150, eta=0.1)


@pytest.mark.parametrize("bias", [0.0, 0.05])
def test_kernel_all_dead_start_matches_reference_bytes(bias):
    W, b, values, X, y0, rows = task_arrays("planar-grid", 8, bias)
    want = assert_kernel_matches(np.zeros_like(W), b, values, X, y0, rows)
    assert want[0] == 1.0 and not want[2].any()


def test_kernel_at_kinks_matches_reference_bytes():
    # v = 1/2 and one unit per class, so the margin against class 2 is
    # 1 - (h_1 - h_2): x = (1, 0) sits exactly on the hinge, and every sample
    # on the first axis sits exactly on unit 2's ReLU boundary.
    W = np.eye(2)
    values = build_output_map(2, 2, 0.5).values
    X = np.array([[1.0, 0.0], [0.5, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [-1.0, 0.5]])
    y0 = np.array([0, 0, 0, 1, 1, 0, 1])
    F, H = forward_arrays(W, np.zeros(2), values, X)
    margins = reference_margins(F, y0)
    assert np.any(H == 0.0) and margins[0, 1] == 0.0
    for rows in (np.arange(7), np.array([0, 2, 5])):
        assert_kernel_matches(W, np.zeros(2), values, X, y0, rows)


def multiclass_arrays(n, v, seed=0, k=7, d=4, N=60):
    rng = Rng(seed)
    values = build_output_map(n, k, v).values
    X = rng.normal((N, d))
    return rng.normal((d, k)), np.abs(rng.normal(k)) * 0.02, values, X, np.arange(N) % n, np.arange(N)


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_multiclass_power_of_two_v_matches_reference_bytes(n):
    check_trajectory(*multiclass_arrays(n, 0.5), steps=100, eta=0.05)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("v", [0.6, 0.1])
def test_kernel_multiclass_other_v_within_rounding(n, v):
    # count * v against a repeated sum of v: a few roundings of size 2v per
    # sample, scaled by |x| and averaged over the samples.
    W, b, values, X, y0, rows = multiclass_arrays(n, v)
    atol = 4 * n * np.finfo(float).eps * 2 * v * np.abs(X).max()
    check_trajectory(W, b, values, X, y0, rows, steps=100, eta=0.05, grad_atol=atol)


def test_kernel_nonfinite_weights_match_reference():
    # inf weights make inf - inf scores; a NaN margin must reach the loss.
    W, b, values, X, y0, rows = task_arrays("planar-grid", 6)
    W[0, :2] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        want = reference_batch_loss_grad(W, b, values, X, y0, rows)
        got = batch_loss_grad(W, b, values, X, y0, rows)
    assert np.isnan(want[0]) and np.isnan(got[0])
    np.testing.assert_array_equal(got[1], want[1])
    np.testing.assert_array_equal(got[2], want[2])


def test_loss_helpers_match_reference_bytes():
    W, b, values, X, y0, rows = multiclass_arrays(3, 0.6, seed=8)
    params = network_params(W, build_output_map(3, 7, 0.6), b)
    data = LabeledDataset(X, y0 + 1)
    _, losses, _ = reference_batch_loss_grad(W, b, values, X, y0, rows)
    assert per_sample_losses(params, data).tobytes() == losses.tobytes()
    F, _ = forward_arrays(W, b, values, X)
    np.testing.assert_array_equal(active_sets(params, data).margin, reference_margins(F, y0) > 0.0)
