"""Synthetic data: paired 2-d subspaces, polar grids, annulus sampling, initializers.

All labels are integers starting at 1.  Every generator is deterministic given
its Rng; generators that need no randomness take none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Rng

__all__ = [
    "LabeledDataset",
    "SubspacePair",
    "GridDatasetSpec",
    "AnnulusDistribution",
    "make_subspace_pair",
    "grid_dataset",
    "grid_dataset_planar",
    "sample_annulus",
    "init_random",
    "init_halfspace",
    "init_three_rays",
    "kelvin",
]


@dataclass(frozen=True)
class LabeledDataset:
    """Sample matrix X (N, d) with integer labels y (N,), labels in 1..n.

    labels, the distinct labels in increasing order, is worked out once at
    construction.
    """

    X: np.ndarray
    y: np.ndarray
    labels: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        X = np.array(self.X, dtype=float, copy=True)
        raw = np.asarray(self.y)
        if raw.dtype.kind == "f":
            fractional = np.flatnonzero(~np.isfinite(raw) | (np.trunc(raw) != raw))
            if fractional.size:
                raise ValueError(f"labels must be integers, got {float(raw.flat[fractional[0]])}")
        y = np.array(raw, dtype=int, copy=True)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array (N, d)")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
        if X.shape[0] == 0:
            raise ValueError("a dataset needs at least one sample, got none")
        if not np.all(np.isfinite(X)):
            raise ValueError("samples must be finite")
        if y.min() < 1:
            raise ValueError("labels must be positive integers starting at 1")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "labels", tuple(int(v) for v in np.unique(y)))

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def indices_for(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.y == label)

    def subset(self, labels) -> "LabeledDataset":
        mask = np.isin(self.y, list(labels))
        return LabeledDataset(self.X[mask], self.y[mask])


@dataclass(frozen=True)
class SubspacePair:
    """Two 2-d subspaces of R^4 meeting at a prescribed principal angle theta.

    v1, v2 span the first subspace and v3, v4 the second; v2 leans out of the
    second subspace by theta, so theta = pi/2 makes the two planes orthogonal.
    """

    theta: float
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray

    def basis(self, label: int) -> np.ndarray:
        """Orthonormal (4, 2) basis of the subspace carrying the given class."""
        if label == 1:
            return np.column_stack([self.v1, self.v2])
        if label == 2:
            return np.column_stack([self.v3, self.v4])
        raise ValueError(f"subspace pair has classes 1 and 2, got label {label}")


def make_subspace_pair(theta: float) -> SubspacePair:
    if not (0.0 < theta <= math.pi / 2):
        raise ValueError(f"theta must lie in (0, pi/2], got {theta}")
    v1 = np.array([1.0, 0.0, 0.0, 0.0])
    v2 = np.array([0.0, math.sin(theta), math.cos(theta), 0.0])
    v3 = np.array([0.0, 0.0, 1.0, 0.0])
    v4 = np.array([0.0, 0.0, 0.0, 1.0])
    return SubspacePair(theta=float(theta), v1=v1, v2=v2, v3=v3, v4=v4)


# The polar product grid: 11 radii 20/j (j = 10..20) sweeping [1, 2] times 80
# equispaced angles j*pi/40 (j = 1..80), so each class gets exactly 880 points.
_RADII = tuple(20.0 / j for j in range(10, 21))
_ANGLES = tuple(j * math.pi / 40.0 for j in range(1, 81))


@dataclass(frozen=True)
class GridDatasetSpec:
    """The polar grid's jitter: noise_std > 0 adds isotropic Gaussian noise in the ambient space."""

    noise_std: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError(f"noise_std must be finite and nonnegative, got {self.noise_std}")


def _polar_grid() -> np.ndarray:
    """(880, 2) array of r*(cos phi, sin phi) over the grid, radius-major order."""
    r = np.repeat(_RADII, len(_ANGLES))
    phi = np.tile(_ANGLES, len(_RADII))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def _jittered(X: np.ndarray, y: np.ndarray, spec: GridDatasetSpec, rng: Rng | None) -> LabeledDataset:
    """The grid dataset (X, y), with spec's Gaussian jitter drawn from rng added to X when noise_std > 0."""
    if spec.noise_std > 0.0:
        if rng is None:
            raise ValueError("noise_std > 0 requires an Rng")
        X = X + spec.noise_std * rng.normal(X.shape)
    return LabeledDataset(X, y)


def grid_dataset(pair: SubspacePair, spec: GridDatasetSpec, rng: Rng | None = None) -> LabeledDataset:
    """Both classes' polar grids embedded in R^4 through the subspace pair."""
    planar = _polar_grid()
    X1 = planar @ pair.basis(1).T
    X2 = planar @ pair.basis(2).T
    X = np.vstack([X1, X2])
    y = np.concatenate([np.ones(len(X1), dtype=int), np.full(len(X2), 2, dtype=int)])
    return _jittered(X, y, spec, rng)


def grid_dataset_planar(spec: GridDatasetSpec, rng: Rng | None = None) -> LabeledDataset:
    """Class 1's polar grid in its own 2-d coordinates (no embedding)."""
    X = _polar_grid()
    return _jittered(X, np.ones(len(X), dtype=int), spec, rng)


@dataclass(frozen=True)
class AnnulusDistribution:
    """Uniform distribution on the annulus inner < |x| < outer in R^subspace_dim.

    The density is constant, so both density bounds equal 1/volume.
    """

    subspace_dim: int
    inner: float
    outer: float

    def __post_init__(self):
        if self.subspace_dim < 1:
            raise ValueError("subspace_dim must be at least 1")
        if not (0.0 < self.inner < self.outer < math.inf):
            raise ValueError(f"need 0 < inner < outer < inf, got {self.inner}, {self.outer}")

    def volume(self) -> float:
        """d_sub-dimensional volume of the annulus."""
        d = self.subspace_dim
        ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        return ball * (self.outer**d - self.inner**d)

    def density(self) -> float:
        return 1.0 / self.volume()


def sample_annulus(dist: AnnulusDistribution, count: int, rng: Rng, label: int = 1) -> LabeledDataset:
    """Uniform draws from the annulus.

    Radii use the inverse-CDF transform r = (inner^d + U*(outer^d - inner^d))^(1/d);
    directions are normalized Gaussians.
    """
    if count < 1:
        raise ValueError("count must be positive")
    d = dist.subspace_dim
    raw = rng.normal((count, d))
    norms = np.linalg.norm(raw, axis=1)
    if np.any(norms == 0.0):
        raise RuntimeError("degenerate zero-norm direction draw")
    dirs = raw / norms[:, None]
    u = rng.uniform(count)
    radii = (dist.inner**d + u * (dist.outer**d - dist.inner**d)) ** (1.0 / d)
    return LabeledDataset(radii[:, None] * dirs, np.full(count, int(label), dtype=int))


def init_random(d: int, k: int, rng: Rng) -> np.ndarray:
    """Weight matrix with iid standard normal entries."""
    return rng.normal((d, k))


def init_halfspace(d: int, k: int, rng: Rng) -> np.ndarray:
    """Random init folded into a half-space: first coordinate replaced by its absolute value."""
    W = rng.normal((d, k))
    W[0, :] = np.abs(W[0, :])
    return W


def init_three_rays() -> np.ndarray:
    """Fixed 2-d init for a 6-unit two-class net: three rays, each shared by both classes.

    Ray m (m = 1, 2, 3) points at angle (2 - m)*pi/6 with norm 3/4; columns
    interleave so that under the round-robin output map the class-1 and
    class-2 units of a ray start identical.
    """
    W = np.empty((2, 6))
    for m in (1, 2, 3):
        ang = (2 - m) * math.pi / 6.0
        ray = 0.75 * np.array([math.cos(ang), math.sin(ang)])
        W[:, 2 * (m - 1)] = ray
        W[:, 2 * (m - 1) + 1] = ray
    return W


def kelvin(x: np.ndarray) -> np.ndarray:
    """Inversion through the unit sphere, x -> x / |x|^2 (rows if 2-d)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        nsq = float(x @ x)
        if nsq == 0.0:
            raise ValueError("inversion is undefined at the origin")
        return x / nsq
    nsq = np.einsum("ij,ij->i", x, x)
    if np.any(nsq == 0.0):
        raise ValueError("inversion is undefined at the origin")
    return x / nsq[:, None]
