import math

import numpy as np
import pytest

from reluphase import (
    AnnulusDistribution,
    GridDatasetSpec,
    LabeledDataset,
    Rng,
    grid_dataset,
    grid_dataset_planar,
    init_halfspace,
    init_random,
    init_three_rays,
    kelvin,
    make_subspace_pair,
    sample_annulus,
)


class TestLabeledDataset:
    def test_basic_accessors(self):
        data = LabeledDataset(np.eye(3), np.array([1, 2, 1]))
        assert data.n_samples == 3
        assert data.dim == 3
        assert data.labels == (1, 2)
        np.testing.assert_array_equal(data.indices_for(1), [0, 2])
        sub = data.subset((2,))
        assert sub.n_samples == 1
        np.testing.assert_array_equal(sub.X, [[0.0, 1.0, 0.0]])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.eye(2), np.array([0, 1]))
        with pytest.raises(ValueError):
            LabeledDataset(np.eye(2), np.array([1]))

    def test_rejects_fractional_labels(self):
        with pytest.raises(ValueError, match="labels must be integers, got 1.5"):
            LabeledDataset(np.ones((2, 2)), [1.5, 2.7])
        with pytest.raises(ValueError, match="labels must be integers, got nan"):
            LabeledDataset(np.ones((2, 2)), [1.0, np.nan])

    def test_accepts_integral_float_labels(self):
        data = LabeledDataset(np.ones((2, 2)), [1.0, 2.0])
        assert data.y.dtype.kind == "i"
        assert data.labels == (1, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        data = LabeledDataset(np.eye(3), np.array([1, 2, 1]))
        with pytest.raises(ValueError, match="at least one sample"):
            data.subset([9])


class TestSubspacePair:
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 2])
    def test_principal_angles(self, theta):
        pair = make_subspace_pair(theta)
        B1, B2 = pair.basis(1), pair.basis(2)
        for B in (B1, B2):
            np.testing.assert_allclose(B.T @ B, np.eye(2), atol=1e-12)
        sv = np.linalg.svd(B1.T @ B2, compute_uv=False)
        np.testing.assert_allclose(sorted(sv), sorted([math.cos(theta), 0.0]), atol=1e-12)

    def test_theta_bounds(self):
        for theta in (0.0, -0.1, math.pi / 2 + 1e-6):
            with pytest.raises(ValueError):
                make_subspace_pair(theta)
        with pytest.raises(ValueError):
            make_subspace_pair(math.pi / 4).basis(3)


class TestGridDataset:
    def test_default_sizes_and_norms(self):
        spec = GridDatasetSpec()
        assert spec.points_per_class == 880
        data = grid_dataset_planar(spec)
        assert data.n_samples == 880
        assert data.dim == 2
        norms = np.linalg.norm(data.X, axis=1)
        assert norms.min() >= 1.0 - 1e-12
        assert norms.max() <= 2.0 + 1e-12
        # radius-major layout: the first 80 points share the largest radius
        np.testing.assert_allclose(norms[:80], 2.0, atol=1e-12)
        np.testing.assert_allclose(norms[-80:], 1.0, atol=1e-12)

    def test_embedding_preserves_geometry(self):
        pair = make_subspace_pair(math.pi / 3)
        data = grid_dataset(pair, GridDatasetSpec())
        assert data.n_samples == 1760
        assert data.dim == 4
        planar = grid_dataset_planar(GridDatasetSpec()).X
        for label in (1, 2):
            rows = data.indices_for(label)
            X = data.X[rows]
            np.testing.assert_allclose(np.linalg.norm(X, axis=1), np.linalg.norm(planar, axis=1), atol=1e-12)
            B = pair.basis(label)
            residual = X - (X @ B) @ B.T
            np.testing.assert_allclose(residual, 0.0, atol=1e-12)

    def test_noise_needs_rng(self):
        spec = GridDatasetSpec(noise_std=0.1)
        for build in (lambda spec, rng=None: grid_dataset(make_subspace_pair(1.0), spec, rng), grid_dataset_planar):
            with pytest.raises(ValueError, match="noise_std > 0 requires an Rng"):
                build(spec)
            noisy = build(spec, rng=Rng(0))
            clean = build(GridDatasetSpec())
            delta = noisy.X - clean.X
            assert 0.05 < delta.std() < 0.2
            # one draw of the grid's shape, scaled and added
            assert np.array_equal(noisy.X, clean.X + 0.1 * Rng(0).normal(clean.X.shape))
            assert np.array_equal(noisy.y, clean.y)

    def test_negative_noise_rejected(self):
        for noise_std in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="noise_std must be finite and nonnegative"):
                GridDatasetSpec(noise_std=noise_std)


class TestAnnulus:
    def dist(self):
        return AnnulusDistribution(basis=np.eye(2), inner=1.0, outer=2.0)

    def test_volume_and_density(self):
        d = self.dist()
        assert d.volume() == pytest.approx(3.0 * math.pi, rel=1e-12)
        assert d.density() == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-12)

    def test_sample_norms_and_radial_law(self):
        rng = Rng(11)
        data = sample_annulus(self.dist(), 20000, rng, label=1)
        norms = np.linalg.norm(data.X, axis=1)
        assert norms.min() >= 1.0
        assert norms.max() <= 2.0
        # uniform on the annulus: P(norm <= r) = (r^2 - 1) / 3
        for r in (1.25, 1.5, 1.75):
            frac = float((norms <= r).mean())
            assert frac == pytest.approx((r * r - 1.0) / 3.0, abs=0.02)

    def test_embedded_samples_stay_in_subspace(self):
        basis = np.zeros((4, 2))
        basis[1, 0] = 1.0
        basis[3, 1] = 1.0
        dist = AnnulusDistribution(basis=basis, inner=0.5, outer=1.5)
        data = sample_annulus(dist, 50, Rng(3), label=2)
        assert data.labels == (2,)
        np.testing.assert_allclose(data.X[:, 0], 0.0, atol=0)
        np.testing.assert_allclose(data.X[:, 2], 0.0, atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnulusDistribution(basis=np.eye(2) * 2.0, inner=1.0, outer=2.0)
        with pytest.raises(ValueError):
            AnnulusDistribution(basis=np.eye(2), inner=2.0, outer=1.0)
        with pytest.raises(ValueError):
            sample_annulus(self.dist(), 0, Rng(0))

    @pytest.mark.parametrize("outer", [math.inf, math.nan])
    def test_rejects_non_finite_outer(self, outer):
        # an infinite annulus has no uniform density: its volume would be inf
        with pytest.raises(ValueError, match="inner < outer < inf"):
            AnnulusDistribution(basis=np.eye(2), inner=1.0, outer=outer)


class TestInitializers:
    def test_random_shape_and_determinism(self):
        W1 = init_random(3, 5, Rng(9))
        W2 = init_random(3, 5, Rng(9))
        assert W1.shape == (3, 5)
        np.testing.assert_array_equal(W1, W2)

    def test_halfspace_folds_first_coordinate(self):
        W = init_random(3, 5, Rng(21))
        H = init_halfspace(3, 5, Rng(21))
        np.testing.assert_array_equal(H[0], np.abs(W[0]))
        np.testing.assert_array_equal(H[1:], W[1:])
        assert np.all(H[0] >= 0.0)

    def test_three_rays_geometry(self):
        W = init_three_rays()
        assert W.shape == (2, 6)
        np.testing.assert_allclose(np.linalg.norm(W, axis=0), 0.75, atol=1e-12)
        angles = np.arctan2(W[1], W[0])
        np.testing.assert_allclose(angles[::2], [math.pi / 6, 0.0, -math.pi / 6], atol=1e-12)
        np.testing.assert_array_equal(W[:, ::2], W[:, 1::2])


class TestKelvin:
    def test_involution(self):
        rng = Rng(4)
        X = rng.normal((30, 3))
        np.testing.assert_allclose(kelvin(kelvin(X)), X, atol=1e-12)

    def test_reciprocal_norms_same_direction(self):
        x = np.array([3.0, 4.0])
        y = kelvin(x)
        assert np.linalg.norm(y) == pytest.approx(1.0 / 5.0, rel=1e-12)
        np.testing.assert_allclose(y / np.linalg.norm(y), x / np.linalg.norm(x), atol=1e-12)

    def test_unit_sphere_fixed(self):
        x = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(kelvin(x), x)

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            kelvin(np.zeros(2))
        with pytest.raises(ValueError, match="origin"):
            kelvin(np.array([[1.0, 0.0], [0.0, 0.0]]))

