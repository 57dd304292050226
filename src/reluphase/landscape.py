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
# Pairs per lipschitz_estimate chunk.  At landscape-audit's defaults (880
# samples, 8 units) its largest buffer, the (32, 880, 8) pre-activations,
# which the ReLU overwrites in place, takes 1.7 MiB.  32-pair chunks were no
# faster and raised landscape-mc's peak RSS by 2 MiB.
_LIPSCHITZ_CHUNK = 16


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
    network_params(W, output, biases) on data.  It is called once per chunk
    with twice the chunk's pairs, so its draws must not depend on how the
    pairs are chunked, as Rng.normal_draws's do not.
    Only bias-mode states are accepted: without biases the loss is positively
    homogeneous and the ratio is unbounded, so the diagnostic would be
    meaningless there.  Pairs closer than _SKIP_TOL in weight norm are skipped.

    The pairs are scored in chunks: one forward pass over the chunk's stacked
    matrices, with the bias term built once per call, and one hinge over its
    tiled labels.  The pass writes the scores as (n, 2c, N) through
    out=buf.transpose(1, 0, 2), so the hinge reads each class across the
    whole chunk as one contiguous row; a partial last chunk takes the head
    of the same flat buffer, so no reshape copies.  Every slice runs the
    per-matrix arithmetic of dataset_loss, so each ratio, and the report,
    is the one pair-by-pair scoring gives, bit for bit, whatever the chunk
    size.
    """
    if pairs < 1:
        raise ValueError("pairs must be positive")
    (N, d), k, n = data.X.shape, output.k, output.n
    params = network_params(np.zeros((d, k)), output, biases)  # checks the biases
    if params.mode != "bias":
        raise ValueError("lipschitz_estimate refuses no-bias states: the no-bias loss has no finite modulus")
    bias, values, y0 = bias_term(params.biases, N), output.values, data.y - 1

    m = min(pairs, _LIPSCHITZ_CHUNK)
    F, H = np.empty(n * 2 * m * N), np.empty((2 * m, N, k))
    ws = _HingeWorkspace(np.tile(y0, 2 * m), n)
    ratios = np.empty(pairs)
    used = 0
    for start in range(0, pairs, m):
        c = min(m, pairs - start)
        if c < m:  # the last, partial chunk
            ws = _HingeWorkspace(np.tile(y0, 2 * c), n)
        stack = np.ascontiguousarray(sampler(rng, 2 * c), dtype=float)
        if stack.shape != (2 * c, d, k):
            raise ValueError(f"sampled weights must have shape {(2 * c, d, k)}, got {stack.shape}")
        if not np.all(np.isfinite(stack)):
            raise ValueError("weights must be finite")
        # Each pair's weight_matrix_norm(W1 - W2), the sum of its column norms.
        gaps = _column_norms(stack[0::2] - stack[1::2]).sum(axis=1)
        # The ReLU overwrites the pre-activations, which no ratio reads.
        scores = F[: n * 2 * c * N].reshape(n, 2 * c, N)
        forward_arrays(stack, bias, values, data.X, out=(scores.transpose(1, 0, 2), H[: 2 * c], H[: 2 * c]))
        means = _hinge(scores.reshape(n, 2 * c * N), ws).reshape(2 * c, N).mean(axis=1)
        kept = gaps >= _SKIP_TOL
        chunk = np.abs(means[0::2] - means[1::2])[kept] / gaps[kept]
        ratios[used : used + chunk.size] = chunk
        used += chunk.size
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
