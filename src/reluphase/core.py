"""Core model: deterministic RNG, fixed output maps, network parameters, forward passes.

The classifier is a two-layer network with k hidden ReLU units and a fixed
output layer.  Hidden unit j computes sigma(<w_j, x> - b_j); the score of
class i is a signed sum of the hidden activations with coefficients +-v.
Only the hidden-layer weight matrix W is ever trained; the biases b and the
output map V stay fixed for the lifetime of a model.
"""
from __future__ import annotations

import copy
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

    Uniforms come straight from a PCG64 generator.  Gaussians come from an
    in-repo Box-Muller transform on those uniforms, so the exact sampling
    algorithm cannot drift with library internals.

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
        out = self.normal_draws(1, () if size is None else size)[0]
        return float(out) if size is None else out

    def normal_draws(self, count: int, shape) -> np.ndarray:
        """What count successive normal(shape) calls return, stacked as (count, *shape).

        The numbers are the same bit for bit, and the generator ends in the
        same state: each call draws its radius uniforms and then its angle
        uniforms, so the count calls' uniforms are one stream, taken here in
        one call and transformed in place.
        """
        shape = _shape(shape)
        size = math.prod(shape)
        pairs = (size + 1) // 2
        u = self._gen.random(count * 2 * pairs).reshape(count, 2, pairs)
        return _box_muller(u)[:, :size].reshape((count, *shape))

    def normal_blocks(self, rows: int, shape, block: int):
        """What normal((rows, *shape)) returns, as successive (b, *shape) blocks of at most block rows.

        The numbers are the same bit for bit, and the generator moves at
        once to the state that call leaves, so other draws may be made
        while the blocks are read.  A block's pairs p0..p1 take their
        radius uniforms at offset p0 and their angle uniforms at offset
        pairs + p0 of the one call's stream, read by a copy of the starting
        state advanced to each offset; a pair that straddles two blocks is
        drawn for both.  The memory is one block and its Box-Muller
        temporaries, whatever rows is.
        """
        shape = _shape(shape)
        rows, block = int(rows), int(block)
        if block < 1:
            raise ValueError(f"block must be positive, got {block}")
        pairs = (rows * math.prod(shape) + 1) // 2
        reader = copy.deepcopy(self._gen)
        self._gen.bit_generator.advance(2 * pairs)
        return _normal_blocks(reader, rows, shape, pairs, block)


def _shape(shape) -> tuple[int, ...]:
    return (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """The Box-Muller numbers of a (..., 2, pairs) array of uniforms, radius
    uniforms then angle uniforms, as (..., 2 * pairs) pairs r*cos, r*sin.

    1 - U keeps u1 in (0, 1] so the log stays finite.  u1 is turned into the
    radius and u2 into the angle in place, and the numbers overwrite the
    uniforms they came from, so the largest temporary is half of u.
    """
    radius, angle = u[..., 0, :], u[..., 1, :]
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(angle, 2.0 * np.pi, out=angle)
    cos, sin = np.cos(angle), np.sin(angle)
    cos *= radius
    sin *= radius
    z = u.reshape(*u.shape[:-2], 2 * u.shape[-1])
    z[..., 0::2] = cos
    z[..., 1::2] = sin
    return z


def _normal_blocks(reader: np.random.Generator, rows: int, shape: tuple, pairs: int, block: int):
    """Rng.normal_blocks's blocks, drawn by reader from its starting state."""
    size = math.prod(shape)
    start = reader.bit_generator.state
    for r0 in range(0, rows, block):
        r1 = min(rows, r0 + block)
        lo, hi = r0 * size, r1 * size
        p0, p1 = lo // 2, (hi + 1) // 2
        u = np.empty((2, p1 - p0))
        reader.bit_generator.state = start
        reader.bit_generator.advance(p0)
        reader.random(out=u[0])
        reader.bit_generator.advance(pairs - (p1 - p0))
        reader.random(out=u[1])
        yield _box_muller(u)[lo - 2 * p0 : hi - 2 * p0].reshape((r1 - r0, *shape))


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


def bias_term(b: np.ndarray, N: int) -> np.ndarray | None:
    """The term forward_arrays subtracts from the (N, k) pre-activations for biases b.

    x - (+0.0) is x for every float, so a bias of all +0.0 gives no term;
    any other bias, a -0.0 one included (it turns -0.0 into +0.0), gives
    b tiled to (N, k), which numpy subtracts in one flat loop rather than
    one loop of length k per row.
    """
    if not (b.any() or np.signbit(b).any()):
        return None
    return np.tile(b, (N, 1))


def forward_arrays(W: np.ndarray, bias: np.ndarray | None, values: np.ndarray, X: np.ndarray, out=None):
    """Array-level forward pass, (F (n, N), H (N, k)), shared by forward_batch and the loss kernel.

    The scores are class-major: row F[c] holds class c's score on every
    sample, contiguous, computed as values @ relu(H).T, the transpose of
    relu(H) @ values.T.  bias is the term bias_term builds for X's N rows,
    or None for no term.  out, when given, is a triple of buffers (F (n, N),
    H (N, k), relu(H) (N, k)) that the pass fills and returns instead of
    allocating.  W may stack m matrices as (m, d, k); H then gains the same
    leading axis and F becomes (m, n, N), the (N, k) bias broadcasts over
    it, and every slice is computed as the pass on its own matrix would be.
    """
    F, H, A = (None, None, None) if out is None else out
    H = np.matmul(X, W, out=H)
    if bias is not None:
        np.subtract(H, bias, out=H)
    A = np.maximum(H, 0.0, out=A)
    return np.matmul(values, A.swapaxes(-1, -2), out=F), H


def forward_batch(params: NetworkParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched scores and pre-activations: (F (N, n), H (N, k)), F a transposed view of the class-major scores."""
    X = np.asarray(X, dtype=float)
    F, H = forward_arrays(params.weights, bias_term(params.biases, X.shape[0]), params.output.values, X)
    return F.T, H


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
