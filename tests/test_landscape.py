import numpy as np
import pytest

from reluphase import (
    AnnulusDistribution,
    GridDatasetSpec,
    LabeledDataset,
    LandscapeAudit,
    Rng,
    build_output_map,
    construct_zero_loss,
    critical_point_audit,
    dataset_loss,
    grid_dataset_planar,
    lipschitz_estimate,
    network_params,
    regular_simplex_vertices,
    sample_annulus,
    subgradient,
    weight_matrix_norm,
)
from reluphase.landscape import EPS_CRITICAL, LOSS_TOLERANCE


class TestRegularSimplex:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_geometry(self, d):
        V = regular_simplex_vertices(d)
        assert V.shape == (d + 1, d)
        np.testing.assert_allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)
        gram = V @ V.T
        off = gram[~np.eye(d + 1, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / d, atol=1e-12)
        np.testing.assert_allclose(V.sum(axis=0), 0.0, atol=1e-12)

    def test_inradius_cover(self):
        # every direction has some vertex with inner product >= 1/d
        V = regular_simplex_vertices(3)
        rng = Rng(2)
        dirs = rng.normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        best = (dirs @ V.T).max(axis=1)
        assert best.min() >= 1.0 / 3.0 - 1e-9

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            regular_simplex_vertices(0)


def annulus_data(dim, label, inner=1.0, outer=2.0, count=300, seed=5):
    dist = AnnulusDistribution(basis=np.eye(dim), inner=inner, outer=outer)
    return sample_annulus(dist, count, Rng(seed), label=label)


class TestConstructZeroLoss:
    def test_spec_radius_example(self):
        omap = build_output_map(2, 8, 0.5)
        W = construct_zero_loss(omap, 1, 2, 1.0)
        norms = np.linalg.norm(W, axis=0)
        owners = omap.owner_columns(1)
        np.testing.assert_allclose(norms[owners], 2.02, atol=1e-12)
        nonowners = np.setdiff1d(np.arange(8), owners)
        np.testing.assert_array_equal(norms[nonowners], 0.0)

    @pytest.mark.parametrize("v", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_exact_zero_loss_and_subgradient(self, v, dim):
        omap = build_output_map(2, 10, v)
        W = construct_zero_loss(omap, 1, dim, 1.0)
        data = annulus_data(dim, 1)
        params = network_params(W, omap)
        assert dataset_loss(params, data) == 0.0
        np.testing.assert_array_equal(subgradient(params, data), np.zeros_like(W))

    def test_zero_loss_on_grid_data(self):
        omap = build_output_map(2, 6, 0.5)
        W = construct_zero_loss(omap, 1, 2, 1.0)
        data = grid_dataset_planar(GridDatasetSpec())
        params = network_params(W, omap)
        assert dataset_loss(params, data) == 0.0
        np.testing.assert_array_equal(subgradient(params, data), 0.0)

    def test_scales_with_data_min(self):
        omap = build_output_map(2, 8, 0.5)
        W_far = construct_zero_loss(omap, 1, 2, 4.0)
        data = annulus_data(2, 1, inner=4.0, outer=5.0)
        params = network_params(W_far, omap)
        assert dataset_loss(params, data) == 0.0
        owners = omap.owner_columns(1)
        np.testing.assert_allclose(np.linalg.norm(W_far, axis=0)[owners], 2.02 / 4.0, atol=1e-12)

    def test_bias_variant(self):
        omap = build_output_map(2, 8, 0.5)
        biases = np.full(8, 0.05)
        W = construct_zero_loss(omap, 1, 2, 1.0, biases=biases)
        owners = omap.owner_columns(1)
        expected_radius = 1.01 * 2 * (1.0 / (2.0 * 0.5) + 0.05)
        np.testing.assert_allclose(np.linalg.norm(W, axis=0)[owners], expected_radius, atol=1e-12)
        params = network_params(W, omap, biases)
        data = annulus_data(2, 1)
        assert dataset_loss(params, data) == 0.0
        np.testing.assert_array_equal(subgradient(params, data), 0.0)

    def test_works_for_second_class(self):
        omap = build_output_map(3, 9, 0.5)
        W = construct_zero_loss(omap, 2, 2, 1.0)
        data = annulus_data(2, 2)
        params = network_params(W, omap)
        assert dataset_loss(params, data) == 0.0

    def test_errors(self):
        omap = build_output_map(2, 4, 0.5)  # two owners per class
        with pytest.raises(ValueError, match="owner units"):
            construct_zero_loss(omap, 1, 2, 1.0)
        omap8 = build_output_map(2, 8, 0.5)
        with pytest.raises(ValueError, match="data_min"):
            construct_zero_loss(omap8, 1, 2, 0.0)
        with pytest.raises(ValueError, match="biases"):
            construct_zero_loss(omap8, 1, 2, 1.0, biases=np.full(8, -0.1))
        with pytest.raises(ValueError, match="owns no hidden units"):
            construct_zero_loss(omap8, 5, 2, 1.0)


class TestAuditVerdict:
    """The verdict is read off the measurements, with inclusive thresholds."""

    def test_at_both_thresholds_is_global_min(self):
        assert LandscapeAudit(EPS_CRITICAL, LOSS_TOLERANCE, 0).verdict == "global_min"

    @pytest.mark.parametrize(
        "grad_norm, loss",
        [
            (np.nextafter(EPS_CRITICAL, 1.0), LOSS_TOLERANCE),
            (EPS_CRITICAL, np.nextafter(LOSS_TOLERANCE, 1.0)),
        ],
        ids=["grad-one-ulp-above", "loss-one-ulp-above"],
    )
    def test_one_ulp_above_is_not_critical(self, grad_norm, loss):
        assert LandscapeAudit(float(grad_norm), float(loss), 0).verdict == "not_critical"

    def test_no_witness_is_degenerate_even_at_zero_loss(self):
        assert LandscapeAudit(0.0, 0.0, None).verdict == "degenerate_zero_output"


class TestCriticalPointAudit:
    def test_constructed_minimum_is_global_min(self):
        omap = build_output_map(2, 8, 0.5)
        W = construct_zero_loss(omap, 1, 2, 1.0)
        audit = critical_point_audit(network_params(W, omap), annulus_data(2, 1))
        assert audit.verdict == "global_min"
        assert audit.grad_norm == 0.0
        assert audit.loss == 0.0
        assert audit.nonzero_output_witness is not None

    def test_zero_weights_degenerate(self):
        omap = build_output_map(2, 8, 0.5)
        audit = critical_point_audit(network_params(np.zeros((2, 8)), omap), annulus_data(2, 1))
        assert audit.verdict == "degenerate_zero_output"
        assert audit.grad_norm == 0.0
        assert audit.nonzero_output_witness is None

    def test_random_state_not_critical(self):
        omap = build_output_map(2, 8, 0.5)
        params = network_params(Rng(1).normal((2, 8)), omap)
        audit = critical_point_audit(params, annulus_data(2, 1))
        assert audit.verdict == "not_critical"
        assert audit.grad_norm > 1e-3

    def test_json_dict_round_trip(self):
        omap = build_output_map(2, 8, 0.5)
        audit = critical_point_audit(network_params(np.zeros((2, 8)), omap), annulus_data(2, 1))
        d = audit.to_json_dict()
        assert d["verdict"] == "degenerate_zero_output"
        assert set(d) == {
            "verdict",
            "grad_norm",
            "loss",
            "nonzero_output_witness",
            "eps_critical",
            "loss_tolerance",
        }


class TestLipschitzEstimate:
    def sampler(self, omap, scale=1.0):
        biases = np.full(omap.k, 0.4 / omap.k)

        def draw(rng):
            return network_params(scale * rng.normal((2, omap.k)), omap, biases)

        return draw

    def data(self):
        return grid_dataset_planar(GridDatasetSpec(radii=(1.0, 1.5, 2.0), angles=tuple(np.linspace(0.1, 6.2, 24))))

    def test_no_bias_refused(self):
        omap = build_output_map(2, 4, 0.5)

        def bare(rng):
            return network_params(rng.normal((2, 4)), omap)

        with pytest.raises(ValueError, match="no-bias"):
            lipschitz_estimate(bare, self.data(), 5, Rng(0))

    def test_deterministic_and_consistent(self):
        omap = build_output_map(2, 4, 0.5)
        r1 = lipschitz_estimate(self.sampler(omap), self.data(), 200, Rng(9))
        r2 = lipschitz_estimate(self.sampler(omap), self.data(), 200, Rng(9))
        assert r1 == r2
        assert r1.pairs_used == 200
        assert r1.skipped == 0
        assert sum(r1.hist_counts) == r1.pairs_used
        assert len(r1.hist_edges) == len(r1.hist_counts) + 1
        assert 0.0 < r1.mean_ratio <= r1.max_ratio
        assert np.isfinite(r1.max_ratio)

    def test_ratio_definition_on_two_point_check(self):
        # the max ratio is achievable by some concrete pair: resample and
        # verify the reported maximum matches a direct evaluation
        omap = build_output_map(2, 4, 0.5)
        data = self.data()
        draws = []

        def recording(rng):
            p = self.sampler(omap)(rng)
            draws.append(p)
            return p

        report = lipschitz_estimate(recording, data, 50, Rng(3))
        best = 0.0
        for i in range(0, len(draws), 2):
            p1, p2 = draws[i], draws[i + 1]
            gap = weight_matrix_norm(p1.weights - p2.weights)
            best = max(best, abs(dataset_loss(p1, data) - dataset_loss(p2, data)) / gap)
        assert report.max_ratio == pytest.approx(best, rel=1e-12)

    def test_coincident_pairs_rejected(self):
        omap = build_output_map(2, 4, 0.5)
        fixed = network_params(np.ones((2, 4)), omap, np.full(4, 0.1))

        def constant(rng):
            return fixed

        with pytest.raises(ValueError, match="coincident"):
            lipschitz_estimate(constant, self.data(), 5, Rng(0))

    def test_pairs_validated(self):
        omap = build_output_map(2, 4, 0.5)
        with pytest.raises(ValueError):
            lipschitz_estimate(self.sampler(omap), self.data(), 0, Rng(0))
