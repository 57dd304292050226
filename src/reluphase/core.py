"""Core model: deterministic RNG, fixed output maps, network parameters, forward passes.

The classifier is a two-layer network with k hidden ReLU units and a fixed
output layer.  Hidden unit j computes sigma(<w_j, x> - b_j); the score of
class i is a signed sum of the hidden activations with coefficients +-v.
Only the hidden-layer weight matrix W is ever trained; the biases b and the
output map V stay fixed for the lifetime of a model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Rng",
    "OutputMap",
    "NetworkParams",
    "build_output_map",
    "network_params",
    "forward",
    "forward_batch",
    "forward_binary",
]


class Rng:
    """Deterministic random source with named child streams.

    Uniforms come straight from a PCG64 generator.  Gaussians are produced
    by an explicit Box-Muller transform on those uniforms so the exact
    sampling algorithm is pinned down in-repo and cannot drift with library
    internals: draw u1 in (0, 1], u2 in [0, 1), set r = sqrt(-2 ln u1) and
    emit r*cos(2 pi u2), r*sin(2 pi u2).

    Child streams are derived through SeedSequence spawn keys, so
    ``Rng(seed).child(i)`` is reproducible and independent of how many draws
    the parent has made.
    """

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        self.stream = tuple(int(s) for s in stream)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def child(self, index: int) -> "Rng":
        """Independent substream; same (seed, stream, index) -> same draws."""
        return Rng(self.seed, self.stream + (int(index),))

    def uniform(self, size=None) -> np.ndarray | float:
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None) -> np.ndarray | float:
        """Standard normal draws via Box-Muller pairs (C-order fill)."""
        if size is None:
            shape: tuple[int, ...] = ()
            count = 1
        elif np.isscalar(size):
            shape = (int(size),)
            count = int(size)
        else:
            shape = tuple(int(s) for s in size)
            count = int(np.prod(shape)) if shape else 1
        pairs = (count + 1) // 2
        # 1 - U keeps u1 in (0, 1] so the log stays finite.
        u1 = 1.0 - self._gen.random(pairs)
        u2 = self._gen.random(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        out = z[:count].reshape(shape)
        return float(out) if size is None else out


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class OutputMap:
    """Fixed output layer: values[i, j] = +v when class i owns unit j, else -v.

    Built from the owner labels (1..n, each owning at least one unit) and
    the magnitude v; values is derived from them once and frozen, so a
    matrix that disagrees with its owners cannot exist.
    """

    owner: np.ndarray  # (k,) owning class per hidden unit, labels 1..n
    v: float
    values: np.ndarray = field(init=False, repr=False)  # (n, k)

    def __post_init__(self):
        owner = _frozen(self.owner, dtype=None)
        v = float(self.v)
        if owner.ndim != 1 or owner.size == 0 or not np.issubdtype(owner.dtype, np.integer):
            raise ValueError("owner must be a non-empty 1-d array of integer labels")
        labels = np.arange(1, owner.max() + 1)
        if owner.min() < 1 or not np.all(np.isin(labels, owner)):
            raise ValueError("every class 1..n must own at least one hidden unit")
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"output magnitude v must be positive and finite, got v={v}")
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "values", _frozen(np.where(owner == labels[:, None], v, -v)))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def owner_columns(self, label: int) -> np.ndarray:
        """Indices of the hidden units owned by the given class label."""
        return np.flatnonzero(self.owner == label)


def build_output_map(n: int, k: int, v: float) -> OutputMap:
    """Round-robin output map: unit j is owned by class (j mod n) + 1."""
    if n < 2:
        raise ValueError(f"output map needs at least two classes, got n={n}")
    if k < n:
        raise ValueError(f"output map needs k >= n so every class owns a unit, got k={k} < n={n}")
    return OutputMap(owner=np.arange(k) % n + 1, v=v)


@dataclass(frozen=True)
class NetworkParams:
    """Immutable snapshot of the full model state.

    weights: (d, k), column j is hidden unit j.  biases: (k,) nonnegative,
    either all zero or summing into (0, 1).
    """

    weights: np.ndarray
    biases: np.ndarray
    output: OutputMap

    def __post_init__(self):
        w = _frozen(self.weights)
        b = _frozen(self.biases)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)
        if w.ndim != 2:
            raise ValueError("weights must be a (d, k) array")
        if b.shape != (w.shape[1],):
            raise ValueError(f"biases must have shape (k,)={w.shape[1:]}, got {b.shape}")
        if w.shape[1] != self.output.k:
            raise ValueError(f"weights have {w.shape[1]} units but output map has {self.output.k}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.all(np.isfinite(b)) or np.any(b < 0):
            raise ValueError("biases must be finite and nonnegative")
        if b.any() and not (0.0 < float(b.sum()) < 1.0):
            raise ValueError(f"nonzero biases must sum into (0, 1), got {float(b.sum())}")

    @property
    def mode(self) -> str:
        """Either "no-bias" (every bias zero, the positively homogeneous case) or "bias"."""
        return "bias" if self.biases.any() else "no-bias"

    @property
    def d(self) -> int:
        return self.weights.shape[0]

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    @property
    def n(self) -> int:
        return self.output.n

    def with_weights(self, weights: np.ndarray) -> "NetworkParams":
        return NetworkParams(weights=weights, biases=self.biases, output=self.output)


def network_params(weights: np.ndarray, output: OutputMap, biases=None) -> NetworkParams:
    """Build params; absent biases are all zero (no-bias mode)."""
    weights = np.asarray(weights, dtype=float)
    if biases is None:
        biases = np.zeros(weights.shape[1])
    return NetworkParams(weights=weights, biases=biases, output=output)


def forward(params: NetworkParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores and pre-activations for one input: (scores (n,), pre (k,))."""
    pre = params.weights.T @ np.asarray(x, dtype=float) - params.biases
    scores = params.output.values @ np.maximum(pre, 0.0)
    return scores, pre


def forward_arrays(W: np.ndarray, b: np.ndarray, values: np.ndarray, X: np.ndarray, out=None):
    """Array-level forward pass, (F (N, n), H (N, k)), shared by forward_batch and the loss kernel.

    out, when given, is a triple of buffers (F (N, n), H (N, k), relu(H)
    (N, k)) that the pass fills and returns instead of allocating.  W may
    stack m matrices as (m, d, k); F and H then gain the same leading axis,
    and every slice is computed as the pass on its own matrix would be.
    """
    F, H, A = (None, None, None) if out is None else out
    H = np.matmul(X, W, out=H)
    # x - (+0.0) is x for every float, so a bias of all +0.0 is skipped; a
    # -0.0 bias still subtracts, since it turns -0.0 into +0.0.
    if b.any() or np.signbit(b).any():
        np.subtract(H, b, out=H)
    A = np.maximum(H, 0.0, out=A)
    return np.matmul(A, values.T, out=F), H


def forward_batch(params: NetworkParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched scores and pre-activations: (F (N, n), H (N, k))."""
    return forward_arrays(params.weights, params.biases, params.output.values, np.asarray(X, dtype=float))


def forward_binary(params: NetworkParams, x: np.ndarray) -> float:
    """Two-class scalar score: sum of class-1-owned activations minus class-2-owned.

    Equals (score_1 - score_2) / (2 v); computed directly from the owner
    mask so it stays a genuinely independent path.
    """
    if params.n != 2:
        raise ValueError(f"binary forward needs exactly 2 classes, got n={params.n}")
    _, pre = forward(params, x)
    act = np.maximum(pre, 0.0)
    own1 = params.output.owner == 1
    return float(act[own1].sum() - act[~own1].sum())
