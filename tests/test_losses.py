import math
import tracemalloc

import numpy as np
import pytest

from reluphase import (
    LabeledDataset,
    OutputMap,
    Rng,
    TrainConfig,
    build_output_map,
    critical_point_audit,
    dataset_loss,
    directional_derivative_fd,
    forward,
    forward_batch,
    lipschitz_estimate,
    network_params,
    per_sample_losses,
    subgradient,
    train,
)
from reluphase.core import bias_term, forward_arrays
from reluphase.experiments import build_task, initial_weights
from reluphase.losses import KernelWorkspace, _hinge, _HingeWorkspace, batch_loss_grad
from openblas_core import ROW_MAJOR_KERNELS, blas_corename


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


def random_instance(seed, k=5, d=4, N=30):
    rng = Rng(seed)
    params = network_params(
        rng.normal((d, k)), build_output_map(k, 0.6), np.abs(rng.normal(k)) * 0.02
    )
    X = rng.normal((N, d))
    y = (np.arange(N) % 2) + 1
    return params, LabeledDataset(X, y)


def test_hand_oracle_loss_and_grad():
    """One active sample, one live unit and one dead unit, worked by hand."""
    params = network_params(
        np.array([[0.1, 0.0], [0.0, 0.0]]), build_output_map(2, 1.0)
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
    params = network_params(np.array([[0.0, 0.3], [1.0, 0.0]]), build_output_map(2, 1.0))
    data = LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]))
    g = subgradient(params, data)
    np.testing.assert_array_equal(g[:, 0], [0.0, 0.0])
    assert np.any(g[:, 1] != 0.0)


def test_hinge_boundary_contributes_nothing():
    # Margin exactly zero: f1 - f2 = 1, strict inequality excludes it.
    params = network_params(np.array([[0.5, 0.0], [0.0, 0.0]]), build_output_map(2, 1.0))
    data = LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]))
    assert dataset_loss(params, data) == 0.0
    np.testing.assert_array_equal(subgradient(params, data), np.zeros((2, 2)))


def test_gradient_lies_in_data_span():
    """Rows of the subgradient live in the span of the training samples."""
    rng = Rng(9)
    X2 = rng.normal((12, 2))
    X = np.hstack([X2, np.zeros((12, 2))])  # data confined to the first two axes
    data = LabeledDataset(X, np.ones(12, dtype=int))
    params = network_params(rng.normal((4, 6)), build_output_map(6, 0.5))
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


def test_hinge_flags():
    # The kernel derives each sample's one strict flag from the hinge's
    # margin into its workspace, signed by the sample's label.
    params, data = random_instance(5)
    y0 = data.y - 1
    F, _ = forward_batch(params, data.X)
    rows = np.arange(data.n_samples)
    W, b, values = params.weights, params.biases, params.output.values
    ws = KernelWorkspace(values, data.X, y0, b)
    _, losses, _ = batch_loss_grad(W, b, values, data.X, y0, rows, ws)
    # The kernel's scores are class-major, forward_batch's view of them is (N, 2).
    assert ws.F.tobytes() == F.T.tobytes()
    assert _hinge(F.T, _HingeWorkspace(y0)).tobytes() == losses.tobytes()
    margin = 1.0 - F[rows, y0] + F[rows, 1 - y0]
    np.testing.assert_array_equal(ws.margin, margin)
    np.testing.assert_array_equal(ws.weight, np.where(margin > 0.0, 1.0 - 2.0 * y0, 0.0))
    np.testing.assert_allclose(losses, np.maximum(margin, 0.0), rtol=1e-14, atol=0.0)


def sample_loss(params, x, y):
    """Hinge loss of one sample through core.forward, the per-sample oracle for per_sample_losses."""
    scores, _ = forward(params, x)
    others = np.delete(scores, y - 1)
    return float(np.maximum(0.0, 1.0 - scores[y - 1] + others).sum())


def reference_margins(F, y0):
    """(N, 2) hinge margins 1 - f_y + f_i with the i = y column zeroed."""
    rows = np.arange(F.shape[0])
    m = 1.0 - F[rows, y0][:, None] + F
    m[rows, y0] = 0.0
    return m


def reference_batch_loss_grad(W, b, values, X, y0, rows):
    """The loss kernel before its two-class operand forms, kept as a byte-level oracle.

    It shares no code with the kernel: it runs its own forward pass, builds
    every margin, sums the hinge over classes, and forms the coefficients as
    count * V[y, :] - active @ V.
    """
    H = X @ W - b
    # The class-major product the kernel makes: under some BLAS kernels
    # (Nehalem) the row-major one differs from it in the last bits.
    F = (values @ np.maximum(H, 0.0).T).T
    margins = reference_margins(F, y0)
    losses = np.maximum(margins, 0.0).sum(axis=1)
    active = margins > 0.0
    # coefficient of x in d/dw_j, per sample: sum_i active * (V[y,j] - V[i,j])
    coef = active.sum(axis=1)[:, None] * values[y0, :] - active @ values
    coef = coef * (H > 0.0)
    sel = coef[rows]
    grad = -(X[rows].T @ sel) / rows.size
    return float(losses[rows].mean()), losses, grad


def assert_kernel_matches(W, b, values, X, y0, rows, grad_atol=None, ws=None):
    """Byte-equal loss, losses and grad; with grad_atol, grad within that bound."""
    want = reference_batch_loss_grad(W, b, values, X, y0, rows)
    got = batch_loss_grad(W, b, values, X, y0, rows, ws)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    if grad_atol is None:
        assert got[2].tobytes() == want[2].tobytes()
    else:
        np.testing.assert_allclose(got[2], want[2], rtol=0.0, atol=grad_atol)
    return want


def check_trajectory(W, b, values, X, y0, rows, steps, eta, grad_atol=None, scaled=None):
    """Compare the kernels at every iterate of a descent run driven by the reference.

    One workspace serves every step, as in train; with scaled given, it
    must have chosen that operand form.
    """
    ws = KernelWorkspace(values, X, y0, b)
    assert scaled is None or ws.scaled is scaled
    for _ in range(steps):
        _, _, grad = assert_kernel_matches(W, b, values, X, y0, rows, grad_atol, ws)
        W = W - eta * grad


def task_arrays(task, width, bias=0.0, classes=None, seed=0, keep=None, v=0.5):
    """A task's arrays for a two-class map of magnitude v; rows selects the classes, keep drops the other samples."""
    rng = Rng(seed)
    data = build_task(task, math.pi / 3, 0.0, rng.child(1))
    W = initial_weights("random", data.dim, width, rng.child(0))
    if keep is not None:
        data = data.subset(keep)
    rows = np.arange(data.n_samples) if classes is None else np.flatnonzero(np.isin(data.y, classes))
    return W, np.full(width, bias), build_output_map(width, v).values, data.X, data.y - 1, rows


@pytest.mark.parametrize(
    "task, width, bias, classes, keep, v, scaled",
    [
        ("planar-grid", 6, 0.0, None, None, 0.5, True),
        ("planar-grid", 14, 0.0, None, None, 0.5, True),
        ("planar-grid", 24, 0.0, None, None, 0.5, True),
        ("subspace-pair", 8, 0.0, None, None, 0.5, True),
        ("planar-grid", 8, 0.05, None, None, 0.5, True),
        ("planar-grid", 24, -0.0, None, None, 0.5, True),
        ("subspace-pair", 8, 0.05, None, None, 0.5, True),
        ("subspace-pair", 8, -0.0, None, None, 0.5, True),
        ("subspace-pair", 8, 0.0, (2,), None, 0.5, True),
        ("subspace-pair", 8, 0.0, None, (2,), 0.5, True),
        ("planar-grid", 8, 0.0, None, None, 0.25, True),
        ("subspace-pair", 8, 0.05, None, None, 1.0, True),
        ("subspace-pair", 14, 0.0, None, None, 2.0, True),
        ("planar-grid", 8, 0.0, None, None, 0.7, False),
        ("planar-grid", 8, 0.05, None, None, 0.3, False),
        ("subspace-pair", 8, 0.0, None, None, 0.7, False),
        ("subspace-pair", 8, 0.05, None, None, 0.7, False),
        ("subspace-pair", 8, 0.0, None, None, 0.3, False),
        ("subspace-pair", 8, 0.05, None, None, 0.3, False),
        ("subspace-pair", 8, 0.05, None, (2,), 0.7, False),
        ("planar-grid", 8, 0.05, None, None, 1.5, False),
        ("subspace-pair", 8, 0.0, None, None, 1.5, False),
    ],
    ids=[
        "planar-k6",
        "planar-k14",
        "planar-k24",
        "subspace-k8",
        "planar-k8-biased",
        "planar-k24-negzero-bias",
        "subspace-k8-biased",
        "subspace-k8-negzero-bias",
        "subspace-k8-class2",
        "subspace-k8-class2-data",
        "planar-k8-v0.25",
        "subspace-k8-biased-v1",
        "subspace-k14-v2",
        "planar-k8-v0.7",
        "planar-k8-biased-v0.3",
        "subspace-k8-v0.7",
        "subspace-k8-biased-v0.7",
        "subspace-k8-v0.3",
        "subspace-k8-biased-v0.3",
        "subspace-k8-class2-data-biased-v0.7",
        "planar-k8-biased-v1.5",
        "subspace-k8-v1.5",
    ],
)
def test_kernel_trajectory_matches_reference_bytes(task, width, bias, classes, keep, v, scaled):
    # The kernel takes the scaled form when 2v is a power of two, the
    # product form otherwise.
    W, b, values, X, y0, rows = task_arrays(task, width, bias, classes, keep=keep, v=v)
    check_trajectory(W, b, values, X, y0, rows, steps=150, eta=0.1, scaled=scaled)


@pytest.mark.parametrize("bias", [0.0, -0.0, 0.05])
def test_forward_arrays_matches_inline_forward_bytes(bias):
    # Products that underflow below the least subnormal are -0.0 in column 1.
    # Whether X @ W keeps that sign depends on the BLAS kernel, so the bias
    # rule is checked on pre-activations built elementwise, -0.0 on every
    # kernel: a -0.0 bias must turn those entries into +0.0, and a +0.0
    # bias, which gives no term, must leave them alone.
    W, _, values, X, _, _ = task_arrays("planar-grid", 6)
    W[:, 1] = 1e-200
    X = -1e-200 * np.abs(X)
    b = np.full(6, bias)
    pre = X[:, :1] * W[:1] + X[:, 1:] * W[1:]
    assert np.all((pre[:, 1] == 0.0) & np.signbit(pre[:, 1]))
    term = bias_term(b, X.shape[0])
    assert (term is None) == (math.copysign(1.0, bias) > 0.0 and bias == 0.0)
    assert (pre if term is None else pre - term).tobytes() == (pre - b).tobytes()
    F, H = forward_arrays(W, term, values, X)
    buffers = (np.empty_like(F), np.empty_like(H), np.empty_like(H))
    F_out, H_out = forward_arrays(W, term, values, X, out=buffers)
    want_H = X @ W - b
    want_F = np.maximum(want_H, 0.0) @ values.T
    for got_F, got_H in ((F, H), (F_out, H_out)):
        assert got_H.tobytes() == want_H.tobytes()
        # Class-major scores: the transpose of the row-major product.
        assert got_F.tobytes() == want_F.T.tobytes()
    assert F_out is buffers[0] and H_out is buffers[1]


@pytest.mark.parametrize("bias", [0.0, -0.0, 0.05], ids=["plus-zero", "minus-zero", "positive"])
def test_workspace_bias_term_matches_reference_bytes(bias):
    # The workspace decides the bias term once: none for +0.0, a tile of b
    # for -0.0 (which turns -0.0 into +0.0) and for a positive bias.
    W, b, values, X, y0, rows = task_arrays("subspace-pair", 8, bias)
    ws = KernelWorkspace(values, X, y0, b)
    if math.copysign(1.0, bias) > 0.0 and bias == 0.0:
        assert ws.bias is None
    else:
        assert ws.bias.tobytes() == np.tile(b, (X.shape[0], 1)).tobytes()
    check_trajectory(W, b, values, X, y0, rows, steps=100, eta=0.1)


@pytest.mark.parametrize(
    "task, bias, v, scaled",
    [
        ("planar-grid", 0.0, 0.5, True),
        ("planar-grid", 0.05, 0.5, True),
        ("subspace-pair", 0.05, 0.5, True),
        ("subspace-pair", 0.0, 2.0, True),
        ("subspace-pair", 0.05, 0.7, False),
    ],
    ids=[
        "planar-grid-0.0",
        "planar-grid-0.05",
        "subspace-pair-0.05",
        "subspace-pair-0.0-v2",
        "subspace-pair-0.05-v0.7",
    ],
)
def test_workspace_rows_subset_matches_reference_bytes(task, bias, v, scaled):
    # Every third sample: the losses, masks and bias term cover every row,
    # and the loss and gradient read the subset.
    W, b, values, X, y0, _ = task_arrays(task, 8, bias, v=v)
    check_trajectory(W, b, values, X, y0, np.arange(0, X.shape[0], 3), steps=100, eta=0.1, scaled=scaled)


def test_forward_arrays_stack_with_tiled_bias_matches_unstacked_bytes():
    # The (N, k) bias term broadcasts over a (m, d, k) stack of matrices.
    _, b, values, X, _, _ = task_arrays("planar-grid", 8, 0.05)
    stack = Rng(3).normal((5, 2, 8))
    term = bias_term(b, X.shape[0])
    F, H = forward_arrays(stack, term, values, X)
    for i in range(5):
        F_i, H_i = forward_arrays(stack[i], term, values, X)
        assert H[i].tobytes() == H_i.tobytes() == (X @ stack[i] - b).tobytes()
        assert F[i].tobytes() == F_i.tobytes()


def row_major_scores(W, b, values, X):
    """The scores as the row-major product relu(X @ W - b) @ values.T, (N, 2) or (m, N, 2)."""
    return np.matmul(np.maximum(np.matmul(X, W) - b, 0.0), values.T)


def assert_row_major_product(got, W, b, values, X, axes):
    """got equals row_major_scores(W, b, values, X).transpose(axes).

    Byte for byte under the OpenBLAS kernels README names; under any other
    kernel (Nehalem sums the two products in different orders), within a
    few ulps of the sum of the terms' magnitudes.
    """
    want = row_major_scores(W, b, values, X).transpose(axes)
    if blas_corename() in ROW_MAJOR_KERNELS:
        assert got.tobytes() == want.tobytes()
    else:
        size = row_major_scores(W, b, np.abs(values), X).transpose(axes)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * size)


@pytest.mark.parametrize("task", ["planar-grid", "subspace-pair"])
@pytest.mark.parametrize("bias", [0.0, -0.0, 0.05], ids=["plus-zero", "minus-zero", "positive"])
def test_class_major_scores_equal_row_major_product_bytes(task, bias):
    # values @ relu(H).T is the row-major product with its operands' roles
    # swapped: the same sums in the same order, so the same bits.
    for width in range(4, 41, 2):
        W, b, values, X, y0, _ = task_arrays(task, width, bias)
        F, _ = forward_arrays(W, bias_term(b, X.shape[0]), values, X)
        assert F.shape == (2, X.shape[0]) and F.flags.c_contiguous
        assert_row_major_product(F, W, b, values, X, (1, 0))
        ws = KernelWorkspace(values, X, y0, b)
        batch_loss_grad(W, b, values, X, y0, np.arange(X.shape[0]), ws)
        assert ws.F.tobytes() == F.tobytes()


def test_class_major_scores_of_a_lipschitz_stack_equal_row_major_product_bytes():
    # lipschitz_estimate's chunk: 16 pairs as a (32, 2, 8) stack, written as
    # (2, 32, N) through a transposed out.
    _, b, values, X, _, _ = task_arrays("planar-grid", 8, 0.05)
    stack = Rng(4).normal((32, 2, 8))
    buf = np.empty((2, 32, X.shape[0]))
    F, _ = forward_arrays(stack, bias_term(b, X.shape[0]), values, X, out=(buf.transpose(1, 0, 2), None, None))
    assert F.base is buf
    assert_row_major_product(buf, stack, b, values, X, (2, 0, 1))


def check_fast_paths(ws, label):
    """The per-run fact a hinge workspace decides: the one label, if any.

    With both labels it gathers each sample's own and other scores.
    """
    assert ws.label == label
    assert hasattr(ws, "label_index") == hasattr(ws, "other_index") == (label is None)


@pytest.mark.parametrize("width", [6, 24])
def test_single_label_not_one_matches_reference_bytes(width):
    # Class 2 alone: the slack is 1 - F[1], and every margin adds F[0].
    W, b, values, X, y0, rows = task_arrays("subspace-pair", width, 0.04, keep=(2,))
    ws = KernelWorkspace(values, X, y0, b)
    check_fast_paths(ws, 1)
    check_trajectory(W, b, values, X, y0, rows, steps=100, eta=0.1)
    assert per_sample_losses(
        network_params(W, build_output_map(width, 0.5), b), LabeledDataset(X, y0 + 1)
    ).tobytes() == reference_batch_loss_grad(W, b, values, X, y0, rows)[1].tobytes()


def test_two_masked_classes_take_no_fast_path_and_match_reference_bytes():
    # Both subspace-pair labels: each sample's own score is gathered through
    # the flat label index, and its other class's through the flat other index.
    W, b, values, X, y0, rows = task_arrays("subspace-pair", 8, 0.05)
    ws = KernelWorkspace(values, X, y0, b)
    check_fast_paths(ws, None)
    np.testing.assert_array_equal(ws.label_index, y0 * X.shape[0] + np.arange(X.shape[0]))
    np.testing.assert_array_equal(ws.other_index, (1 - y0) * X.shape[0] + np.arange(X.shape[0]))
    check_trajectory(W, b, values, X, y0, rows, steps=100, eta=0.1)


def test_kernel_call_with_workspace_allocates_no_n_by_k_array():
    # The scaled form with one label and with two, and the product form,
    # whose left operand is X itself.
    for task, v, scaled in (("planar-grid", 0.5, True), ("subspace-pair", 0.5, True), ("subspace-pair", 0.7, False)):
        W, b, values, X, y0, rows = task_arrays(task, 24, v=v)
        ws = KernelWorkspace(values, X, y0, b)
        assert ws.scaled is scaled and (ws.left is X) is not scaled
        assert ws.live.dtype == float
        batch_loss_grad(W, b, values, X, y0, rows, ws)
        tracemalloc.start()
        try:
            batch_loss_grad(W, b, values, X, y0, rows, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.shape[0] * 24 * 8


@pytest.mark.parametrize("bias", [0.0, 0.05])
def test_kernel_all_dead_start_matches_reference_bytes(bias):
    W, b, values, X, y0, rows = task_arrays("planar-grid", 8, bias)
    want = assert_kernel_matches(np.zeros_like(W), b, values, X, y0, rows)
    assert want[0] == 1.0 and not want[2].any()


@pytest.mark.parametrize("task", ["planar-grid", "subspace-pair"])
@pytest.mark.parametrize("v, scaled", [(0.5, True), (2.0, True), (0.7, False)])
def test_zero_gradient_columns_are_minus_zero_on_both_paths(task, v, scaled):
    # A column with no live term sums to +0.0, and the mean negates it to
    # -0.0.  The scaled form scales the sum by -2v on the units class 2
    # owns (the odd ones), which must not flip that zero.  States: an
    # all-dead start, then class 2's units dead and class 1's live.
    W, b, values, X, y0, rows = task_arrays(task, 8, v=v)
    ws = KernelWorkspace(values, X, y0, b)
    assert ws.scaled is scaled
    half_dead = W.copy()
    half_dead[:, 1::2] = 0.0
    for state, dead in ((np.zeros_like(W), slice(None)), (half_dead, slice(1, None, 2))):
        _, _, grad = assert_kernel_matches(state, b, values, X, y0, rows, ws=ws)
        assert not grad[:, dead].any() and np.signbit(grad[:, dead]).all()
    assert grad[:, 0::2].any()


@pytest.mark.parametrize("v", [0.25, 0.5, 2.0])
@pytest.mark.parametrize("scale", [2.0**-1000, 2.0**900, 2.0**990], ids=["2^-1000", "2^900", "2^990"])
def test_scaled_data_matches_reference_bytes_on_the_path_its_check_picks(scale, v):
    # Scaling by 2v is exact only while every value stays normal: nonzero
    # entries of at least 2**-900 and N max|x| max(1, 2v) < 2**1000.  The
    # subspace-pair data has N = 1760, max|x| = 2 and entries down to 6e-17,
    # so 2**900 passes and 2**-1000 and 2**990 fail; at 2v = 1 the scaled
    # form is exact anyway.
    W, b, values, X, y0, rows = task_arrays("subspace-pair", 8, v=v)
    X = X * scale
    scaled = v == 0.5 or scale == 2.0**900
    check_trajectory(W, b, values, X, y0, rows, steps=20, eta=0.1 / scale, scaled=scaled)


def test_least_subnormal_samples_take_the_table_path():
    # Three samples at the least subnormal x with 2v = 1/2 take the product
    # form, which rounds each term x/2 to 0, while the scaled form would
    # round its sum 3x, scaled by 1/2, to 2x.
    X = np.array([[2.0**-1074, 0.0]] * 3)
    W, b, values = np.eye(2), np.zeros(2), build_output_map(2, 0.25).values
    y0, rows = np.zeros(3, dtype=int), np.arange(3)
    ws = KernelWorkspace(values, X, y0, b)
    assert not ws.scaled
    _, _, grad = assert_kernel_matches(W, b, values, X, y0, rows, ws=ws)
    assert not grad.any()


def test_kernel_at_kinks_matches_reference_bytes():
    # v = 1/2 and one unit per class, so the margin against class 2 is
    # 1 - (h_1 - h_2): x = (1, 0) sits exactly on the hinge, and every sample
    # on the first axis sits exactly on unit 2's ReLU boundary.
    W = np.eye(2)
    values = build_output_map(2, 0.5).values
    X = np.array([[1.0, 0.0], [0.5, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [-1.0, 0.5]])
    y0 = np.array([0, 0, 0, 1, 1, 0, 1])
    F, H = forward_arrays(W, None, values, X)
    assert F.tobytes() == row_major_scores(W, 0.0, values, X).T.tobytes()
    margins = reference_margins(F.T, y0)
    assert np.any(H == 0.0) and margins[0, 1] == 0.0
    for rows in (np.arange(7), np.array([0, 2, 5])):
        assert_kernel_matches(W, np.zeros(2), values, X, y0, rows)


def gaussian_arrays(v, seed=0, k=7, d=4, N=60):
    """Gaussian arrays for a round-robin map of magnitude v, labels alternating between the two classes."""
    rng = Rng(seed)
    values = build_output_map(k, v).values
    X = rng.normal((N, d))
    return rng.normal((d, k)), np.abs(rng.normal(k)) * 0.02, values, X, np.arange(N) % 2, np.arange(N)


def test_kernel_non_round_robin_owners_match_reference_bytes():
    # Units owned in no round-robin order, in both operand forms.
    for v, scaled in ((0.5, True), (0.7, False)):
        W, b, _, X, y0, rows = gaussian_arrays(v, k=4)
        values = OutputMap(owner=np.array([2, 1, 1, 2]), v=v).values
        check_trajectory(W, b, values, X, y0, rows, steps=100, eta=0.05, scaled=scaled)


def check_nonfinite_weights(reuse):
    # inf weights make inf - inf scores; a NaN margin must reach the loss.
    # A reused workspace first serves a finite call.
    W, b, values, X, y0, rows = task_arrays("planar-grid", 6)
    ws = KernelWorkspace(values, X, y0, b) if reuse else None
    if reuse:
        assert_kernel_matches(W, b, values, X, y0, rows, ws=ws)
    W[0, :2] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        want = reference_batch_loss_grad(W, b, values, X, y0, rows)
        got = batch_loss_grad(W, b, values, X, y0, rows, ws)
    assert np.isnan(want[0]) and np.isnan(got[0])
    np.testing.assert_array_equal(got[1], want[1])
    np.testing.assert_array_equal(got[2], want[2])


def test_kernel_nonfinite_weights_match_reference():
    check_nonfinite_weights(reuse=False)


def test_kernel_nonfinite_weights_match_reference_after_a_finite_call_on_the_workspace():
    check_nonfinite_weights(reuse=True)


def check_loss_helpers(labels):
    W, b, values, X, y0, rows = gaussian_arrays(0.6, seed=8)
    keep = np.flatnonzero(np.isin(y0, labels))
    X, y0, rows = X[keep], y0[keep], np.arange(keep.size)
    params = network_params(W, build_output_map(7, 0.6), b)
    data = LabeledDataset(X, y0 + 1)
    _, losses, _ = reference_batch_loss_grad(W, b, values, X, y0, rows)
    assert per_sample_losses(params, data).tobytes() == losses.tobytes()
    F = np.maximum(X @ W - b, 0.0) @ values.T
    ws = KernelWorkspace(values, X, y0, b)
    _, kernel_losses, _ = batch_loss_grad(W, b, values, X, y0, rows, ws)
    assert per_sample_losses(params, data).tobytes() == kernel_losses.tobytes()
    np.testing.assert_array_equal(ws.weight != 0.0, (reference_margins(F, y0) > 0.0).any(axis=1))


def test_loss_helpers_match_reference_bytes():
    check_loss_helpers((0, 1))


def test_loss_helpers_on_one_class_data_match_reference_bytes():
    # Class 2 alone: every sample's one margin is against class 1.
    check_loss_helpers((1,))


@pytest.mark.parametrize(
    "entry",
    [
        per_sample_losses,
        dataset_loss,
        subgradient,
        lambda params, data: directional_derivative_fd(params, data, np.ones((2, 4)), 1e-6),
        lambda params, data: lipschitz_estimate(
            lambda rng, count: rng.normal((count, 2, 4)), params.output, params.biases, data, 3, Rng(1)
        ),
        lambda params, data: train(params, data, TrainConfig(eta=0.1, max_iters=5)),
        critical_point_audit,
    ],
    ids=[
        "per_sample_losses",
        "dataset_loss",
        "subgradient",
        "directional_derivative_fd",
        "lipschitz_estimate",
        "train",
        "critical_point_audit",
    ],
)
def test_label_outside_the_output_map_is_refused(entry):
    # Label 3 has no row in a 2-class map: each path builds a hinge
    # workspace, which refuses it before any score is read.
    rng = Rng(5)
    params = network_params(rng.normal((2, 4)), build_output_map(4, 0.5), np.full(4, 0.05))
    data = LabeledDataset(rng.normal((20, 2)), np.arange(20) % 2 * 2 + 1)  # labels 1 and 3
    with pytest.raises(ValueError, match="label 3 has no class in an output map of 2 classes"):
        entry(params, data)


@pytest.mark.parametrize("y0", [[0, -1, 0], [-1, 1, 1]], ids=["middle", "first"])
def test_negative_label_is_refused(y0):
    # A 0-based label of -1 would read a neighbouring score through the
    # flat label index and count both classes as others.
    rng = Rng(5)
    W, b, values, X = rng.normal((2, 4)), np.full(4, 0.05), build_output_map(4, 0.5).values, rng.normal((3, 2))
    with pytest.raises(ValueError, match="label 0 has no class in an output map of 2 classes"):
        batch_loss_grad(W, b, values, X, np.array(y0), np.arange(3))
