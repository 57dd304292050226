"""Loss-landscape operations: constructive global minima, critical-point audits,
and an empirical Lipschitz modulus for the bias-mode loss.

The constructive minimum places a class's owner units on a scaled regular
simplex so every sample of that class wins each hinge comparison with margin
to spare; all margins are then strictly inactive, so the loss and the exact
subgradient both vanish identically.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .core import NetworkParams, OutputMap, Rng, bias_term, forward_arrays, forward_batch, network_params
from .datagen import LabeledDataset
from .losses import _hinge, _HingeWorkspace, dataset_loss, subgradient
from .training import _column_norms, weight_matrix_norm

__all__ = [
    "LandscapeAudit",
    "LipschitzReport",
    "regular_simplex_vertices",
    "construct_zero_loss",
    "critical_point_audit",
    "lipschitz_estimate",
]

# critical_point_audit calls a state with a live output a global minimum
# when its subgradient norm and its loss are both at most these.
EPS_CRITICAL = 1e-8
LOSS_TOLERANCE = 1e-8
# lipschitz_estimate's histogram bins, and the weight gap below which a
# sampled pair counts as coincident and is skipped.
_LIPSCHITZ_BINS = 32
_SKIP_TOL = 1e-14
# lipschitz_estimate draws _LIPSCHITZ_DRAW pairs per sampler call and scores
# them in chunks whose (2c, N, n) scores and (2c, N, k) pre-activations fit
# _LIPSCHITZ_CHUNK_BYTES: at 880 samples and 8 units, 64 KiB of draws and
# 8-pair chunks of 1.07 MiB, inside a 2 MiB L2.  A 1,250-pair call took 32
# ms there, against 41 ms with one call per 16-pair chunk, and 96 against
# 127 ms at 24 units, in 3-pair chunks.  Chunks of 4 to 8 pairs (8 units)
# and 2 to 4 (24 units) ran equally fast (BENCH_lipschitz_blocks.json).
_LIPSCHITZ_DRAW = 256
_LIPSCHITZ_CHUNK_BYTES = 9 << 17


def regular_simplex_vertices(d: int) -> np.ndarray:
    """(d+1, d) unit vectors forming a regular simplex centered at the origin.

    Built from e_i - centroid in R^(d+1), expressed in an orthonormal basis of
    the hyperplane orthogonal to the all-ones vector, then normalized.  The
    inradius of their convex hull is 1/d, so every unit direction has some
    vertex with inner product at least 1/d.
    """
    if d < 1:
        raise ValueError("simplex dimension must be at least 1")
    eye = np.eye(d + 1)
    span = eye[:, 1:] - eye[:, :1]  # columns span the ones-orthogonal hyperplane
    q, _ = np.linalg.qr(span)
    centered = eye - np.full((d + 1, d + 1), 1.0 / (d + 1))
    verts = centered @ q
    return verts / np.linalg.norm(verts, axis=1, keepdims=True)


def construct_zero_loss(
    output_map: OutputMap,
    class_label: int,
    subspace_dim: int,
    data_min: float,
    biases: np.ndarray | None = None,
) -> np.ndarray:
    """Weight matrix (subspace_dim, k) with exactly zero loss on any dataset of
    the given class whose sample norms are at least data_min.

    Owner units sit on regular-simplex vertices scaled so the best activation
    beats 1/(2v) plus the largest owner bias with a 1% margin; with the fixed
    +-v output map that drives every hinge margin strictly negative.  All
    other units are zero and, with nonnegative biases, strictly inactive, so
    the subgradient vanishes too.
    """
    owners = output_map.owner_columns(class_label)
    if owners.size == 0:
        raise ValueError(f"class {class_label} owns no hidden units")
    if owners.size < subspace_dim + 1:
        raise ValueError(
            f"zero-loss construction needs at least subspace_dim + 1 = {subspace_dim + 1} "
            f"owner units, class {class_label} has {owners.size}"
        )
    if not (data_min > 0.0):
        raise ValueError("data_min must be positive")
    k = output_map.k
    if biases is None:
        biases = np.zeros(k)
    biases = np.asarray(biases, dtype=float)
    if biases.shape != (k,) or np.any(biases < 0.0):
        raise ValueError("biases must be a nonnegative (k,) vector")

    bias_max = float(biases[owners].max())
    radius = 1.01 * subspace_dim * (1.0 / (2.0 * output_map.v) + bias_max) / data_min
    verts = regular_simplex_vertices(subspace_dim)
    W = np.zeros((subspace_dim, k))
    for i, col in enumerate(owners):
        W[:, col] = radius * verts[i % (subspace_dim + 1)]
    return W


@dataclass(frozen=True)
class LandscapeAudit:
    """Outcome of probing one weight state against one dataset.

    The verdict follows from the measurements: a state whose output is zero
    on every sample is degenerate; otherwise it is a global minimum when its
    subgradient norm and its loss are both at most EPS_CRITICAL and
    LOSS_TOLERANCE.
    """

    grad_norm: float
    loss: float
    nonzero_output_witness: int | None

    @property
    def verdict(self) -> str:
        if self.nonzero_output_witness is None:
            return "degenerate_zero_output"
        if self.grad_norm <= EPS_CRITICAL and self.loss <= LOSS_TOLERANCE:
            return "global_min"
        return "not_critical"

    def to_json_dict(self) -> dict:
        return {**asdict(self), "verdict": self.verdict, "eps_critical": EPS_CRITICAL, "loss_tolerance": LOSS_TOLERANCE}


def critical_point_audit(params: NetworkParams, data: LabeledDataset) -> LandscapeAudit:
    """Classify a weight state: near-critical with a live output means global minimum.

    A network that outputs exactly zero on every sample is flat but useless;
    that case is reported separately so it is never mistaken for optimality.
    The witness is the first sample with a nonzero score.
    """
    F, _ = forward_batch(params, data.X)
    live = np.flatnonzero(np.any(F != 0.0, axis=1))
    witness = int(live[0]) if live.size else None
    grad_norm = weight_matrix_norm(subgradient(params, data))
    return LandscapeAudit(grad_norm=grad_norm, loss=dataset_loss(params, data), nonzero_output_witness=witness)


@dataclass(frozen=True)
class LipschitzReport:
    max_ratio: float
    mean_ratio: float
    pairs_used: int
    skipped: int
    hist_counts: tuple[int, ...]
    hist_edges: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)


def lipschitz_estimate(
    sampler: Callable[[Rng, int], np.ndarray],
    output: OutputMap,
    biases: np.ndarray,
    data: LabeledDataset,
    pairs: int,
    rng: Rng,
) -> LipschitzReport:
    """Empirical modulus max |l(W1) - l(W2)| / |W1 - W2| over sampled weight pairs.

    sampler(rng, count) draws count (d, k) weight matrices as one
    (count, d, k) array; each pair is two consecutive draws, scored as
    network_params(W, output, biases) on data.  It is called once per draw
    block of at most _LIPSCHITZ_DRAW pairs, so its draws must not depend
    on how the pairs are split, as Rng.normal_draws's do not.
    Only bias-mode states are accepted: without biases the loss is positively
    homogeneous and the ratio is unbounded, so the diagnostic would be
    meaningless there.  Pairs closer than _SKIP_TOL in weight norm are skipped.

    A block is checked and its gaps computed at once, then scored in
    chunks of whole pairs, at least one, whose buffers fit
    _LIPSCHITZ_CHUNK_BYTES; a block is whole chunks, so only a call's last
    chunk is partial.  A chunk is one forward pass over its stacked
    matrices, which writes the scores as (n, 2c, N) through
    out=buf.transpose(1, 0, 2), so the hinge reads each class as one
    contiguous row; a partial chunk takes the head of the same buffer.
    The loss sums fill one row per block.  Every slice runs dataset_loss's
    per-matrix arithmetic, and np.add.reduce(...) / N is its mean, so each
    ratio, and the report, is pair-by-pair scoring's, bit for bit.

    Memory: one chunk's buffers, its hinge workspace (at most five (2c N,)
    rows) and the (N, k) bias; twice one draw block of weights; about 24 B
    per pair for the ratios and their histogram.
    """
    if pairs < 1:
        raise ValueError("pairs must be positive")
    (N, d), k, n = data.X.shape, output.k, output.n
    params = network_params(np.zeros((d, k)), output, biases)  # checks the biases
    if params.mode != "bias":
        raise ValueError("lipschitz_estimate refuses no-bias states: the no-bias loss has no finite modulus")
    bias, values, y0 = bias_term(params.biases, N), output.values, data.y - 1

    # A chunk and a draw block as counts of matrices, two per pair.
    chunk = 2 * max(min(pairs, _LIPSCHITZ_DRAW, _LIPSCHITZ_CHUNK_BYTES // (16 * N * (n + k))), 1)
    block = 2 * _LIPSCHITZ_DRAW // chunk * chunk
    F, H, sums = np.empty(n * chunk * N), np.empty((chunk, N, k)), np.empty(min(2 * pairs, block))
    ws = _HingeWorkspace(np.tile(y0, chunk))
    ratios = np.empty(pairs)
    used = 0
    for start in range(0, 2 * pairs, block):
        b = min(block, 2 * pairs - start)
        stack = np.ascontiguousarray(sampler(rng, b), dtype=float)
        if stack.shape != (b, d, k):
            raise ValueError(f"sampled weights must have shape {(b, d, k)}, got {stack.shape}")
        if not np.all(np.isfinite(stack)):
            raise ValueError("weights must be finite")
        # Each pair's weight_matrix_norm(W1 - W2), the sum of its column norms.
        gaps = _column_norms(stack[0::2] - stack[1::2]).sum(axis=1)
        for lo in range(0, b, chunk):
            m = min(chunk, b - lo)
            if m < chunk:  # the call's last, partial chunk
                ws = _HingeWorkspace(np.tile(y0, m))
            # The ReLU overwrites the pre-activations, which no ratio reads.
            scores = F[: n * m * N].reshape(n, m, N)
            forward_arrays(stack[lo : lo + m], bias, values, data.X, out=(scores.transpose(1, 0, 2), H[:m], H[:m]))
            np.add.reduce(_hinge(scores.reshape(n, m * N), ws).reshape(m, N), axis=1, out=sums[lo : lo + m])
        means, kept = sums[:b] / N, gaps >= _SKIP_TOL
        found = np.abs(means[0::2] - means[1::2])[kept] / gaps[kept]
        ratios[used : used + found.size] = found
        used += found.size
    skipped = pairs - used
    if used == 0:
        raise ValueError("every sampled pair was coincident; nothing to estimate")
    ratios = ratios[:used]
    counts, edges = np.histogram(ratios, bins=_LIPSCHITZ_BINS)
    return LipschitzReport(
        max_ratio=float(ratios.max()),
        mean_ratio=float(ratios.mean()),
        pairs_used=used,
        skipped=skipped,
        hist_counts=tuple(int(c) for c in counts),
        hist_edges=tuple(float(e) for e in edges),
    )
