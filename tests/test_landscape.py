import tracemalloc

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
    forward_batch,
    grid_dataset_planar,
    lipschitz_estimate,
    network_params,
    regular_simplex_vertices,
    sample_annulus,
    subgradient,
    weight_matrix_norm,
)
from reluphase import landscape
from reluphase.landscape import EPS_CRITICAL, LOSS_TOLERANCE, LipschitzReport
from test_training import polar_grid


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
    dist = AnnulusDistribution(subspace_dim=dim, inner=inner, outer=outer)
    return sample_annulus(dist, count, Rng(seed), label=label)


class TestConstructZeroLoss:
    def test_spec_radius_example(self):
        omap = build_output_map(8, 0.5)
        W = construct_zero_loss(omap, 1, 2, 1.0)
        norms = np.linalg.norm(W, axis=0)
        owners = omap.owner_columns(1)
        np.testing.assert_allclose(norms[owners], 2.02, atol=1e-12)
        nonowners = np.setdiff1d(np.arange(8), owners)
        np.testing.assert_array_equal(norms[nonowners], 0.0)

    @pytest.mark.parametrize("v", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_exact_zero_loss_and_subgradient(self, v, dim):
        omap = build_output_map(10, v)
        W = construct_zero_loss(omap, 1, dim, 1.0)
        data = annulus_data(dim, 1)
        params = network_params(W, omap)
        assert dataset_loss(params, data) == 0.0
        np.testing.assert_array_equal(subgradient(params, data), np.zeros_like(W))

    def test_zero_loss_on_grid_data(self):
        omap = build_output_map(6, 0.5)
        W = construct_zero_loss(omap, 1, 2, 1.0)
        data = grid_dataset_planar(GridDatasetSpec())
        params = network_params(W, omap)
        assert dataset_loss(params, data) == 0.0
        np.testing.assert_array_equal(subgradient(params, data), 0.0)

    def test_scales_with_data_min(self):
        omap = build_output_map(8, 0.5)
        W_far = construct_zero_loss(omap, 1, 2, 4.0)
        data = annulus_data(2, 1, inner=4.0, outer=5.0)
        params = network_params(W_far, omap)
        assert dataset_loss(params, data) == 0.0
        owners = omap.owner_columns(1)
        np.testing.assert_allclose(np.linalg.norm(W_far, axis=0)[owners], 2.02 / 4.0, atol=1e-12)

    def test_bias_variant(self):
        omap = build_output_map(8, 0.5)
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
        omap = build_output_map(9, 0.5)
        W = construct_zero_loss(omap, 2, 2, 1.0)
        data = annulus_data(2, 2)
        params = network_params(W, omap)
        assert dataset_loss(params, data) == 0.0

    def test_errors(self):
        omap = build_output_map(4, 0.5)  # two owners per class
        with pytest.raises(ValueError, match="owner units"):
            construct_zero_loss(omap, 1, 2, 1.0)
        omap8 = build_output_map(8, 0.5)
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
        omap = build_output_map(8, 0.5)
        W = construct_zero_loss(omap, 1, 2, 1.0)
        audit = critical_point_audit(network_params(W, omap), annulus_data(2, 1))
        assert audit.verdict == "global_min"
        assert audit.grad_norm == 0.0
        assert audit.loss == 0.0
        assert audit.nonzero_output_witness is not None

    def test_zero_weights_degenerate(self):
        omap = build_output_map(8, 0.5)
        audit = critical_point_audit(network_params(np.zeros((2, 8)), omap), annulus_data(2, 1))
        assert audit.verdict == "degenerate_zero_output"
        assert audit.grad_norm == 0.0
        assert audit.nonzero_output_witness is None

    def test_live_units_with_zero_scores_are_degenerate(self):
        # Each class owns two units with the same weights, so the units fire
        # but every score sums to exactly zero: the output, not H, decides.
        omap = build_output_map(4, 0.5)
        W = np.tile([[1.0], [0.5]], (1, 4))
        audit = critical_point_audit(network_params(W, omap), annulus_data(2, 1))
        assert audit.verdict == "degenerate_zero_output"
        assert audit.loss == 1.0

    def test_random_state_not_critical(self):
        omap = build_output_map(8, 0.5)
        params = network_params(Rng(1).normal((2, 8)), omap)
        audit = critical_point_audit(params, annulus_data(2, 1))
        assert audit.verdict == "not_critical"
        assert audit.grad_norm > 1e-3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    def test_equals_the_three_pass_definition(self, seed, m):
        # One kernel call gives the values forward_batch, subgradient and
        # dataset_loss give, bit for bit, at widths 6 and 9 (where class 1
        # owns one unit more).
        omap = build_output_map(3 * m, 0.5)
        rng = Rng(seed)
        params = network_params(rng.normal((2, omap.k)), omap, np.full(omap.k, 0.6 / omap.k))
        data = LabeledDataset(2.0 * rng.normal((90, 2)), np.arange(90) % 2 + 1)
        audit = critical_point_audit(params, data)
        F, _ = forward_batch(params, data.X)
        live = np.flatnonzero(np.any(F != 0.0, axis=1))
        assert audit.nonzero_output_witness == int(live[0])
        assert audit.grad_norm == weight_matrix_norm(subgradient(params, data))
        assert audit.loss == dataset_loss(params, data)

    def test_json_dict_round_trip(self):
        omap = build_output_map(8, 0.5)
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


def pairwise_lipschitz(sampler, omap, biases, data, pairs, rng):
    """Reference: the estimate scored pair by pair, one matrix per sampler
    call and two dataset_loss calls per pair."""
    ratios, skipped = [], 0
    for _ in range(pairs):
        p1 = network_params(sampler(rng, 1)[0], omap, biases)
        p2 = network_params(sampler(rng, 1)[0], omap, biases)
        gap = weight_matrix_norm(p1.weights - p2.weights)
        if gap < landscape._SKIP_TOL:
            skipped += 1
            continue
        ratios.append(abs(dataset_loss(p1, data) - dataset_loss(p2, data)) / gap)
    ratios = np.array(ratios)
    counts, edges = np.histogram(ratios, bins=landscape._LIPSCHITZ_BINS)
    return LipschitzReport(
        max_ratio=float(ratios.max()),
        mean_ratio=float(ratios.mean()),
        pairs_used=ratios.size,
        skipped=skipped,
        hist_counts=tuple(int(c) for c in counts),
        hist_edges=tuple(float(e) for e in edges),
    )


# lipschitz_estimate's chunk and draw block at landscape-audit's defaults:
# the 880-sample planar grid and 8 units.
CHUNK = 8
DRAW = landscape._LIPSCHITZ_DRAW


def chunk_budget(pairs, N, k, n=2):
    """The _LIPSCHITZ_CHUNK_BYTES at which a chunk of N samples and k units holds pairs pairs."""
    return 16 * N * (n + k) * pairs


def set_blocks(monkeypatch, chunk, draw, N, k):
    monkeypatch.setattr(landscape, "_LIPSCHITZ_CHUNK_BYTES", chunk_budget(chunk, N, k))
    monkeypatch.setattr(landscape, "_LIPSCHITZ_DRAW", draw)


class TestLipschitzEstimate:
    def biases(self, omap):
        return np.full(omap.k, 0.4 / omap.k)

    def sampler(self, omap, scale=1.0):
        def draw(rng, count):
            return scale * rng.normal_draws(count, (2, omap.k))

        return draw

    def data(self):
        return polar_grid((1.0, 1.5, 2.0), np.linspace(0.1, 6.2, 24))

    def test_no_bias_refused(self):
        omap = build_output_map(4, 0.5)
        calls = []

        def bare(rng, count):
            calls.append(1)
            return rng.normal_draws(count, (2, 4))

        for biases in (np.zeros(4), None):
            with pytest.raises(ValueError, match="no-bias"):
                lipschitz_estimate(bare, omap, biases, self.data(), 5, Rng(0))
        assert calls == []

    def test_deterministic_and_consistent(self):
        omap = build_output_map(4, 0.5)
        r1 = lipschitz_estimate(self.sampler(omap), omap, self.biases(omap), self.data(), 200, Rng(9))
        r2 = lipschitz_estimate(self.sampler(omap), omap, self.biases(omap), self.data(), 200, Rng(9))
        assert r1 == r2
        assert r1.pairs_used == 200
        assert r1.skipped == 0
        assert sum(r1.hist_counts) == r1.pairs_used
        assert len(r1.hist_edges) == len(r1.hist_counts) + 1
        assert 0.0 < r1.mean_ratio <= r1.max_ratio
        assert np.isfinite(r1.max_ratio)

    @pytest.mark.parametrize(
        "pairs",
        [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1]
        + [DRAW - 1, DRAW, DRAW + 1, 2 * DRAW + CHUNK + 1, 1250],
    )
    def test_ratio_definition_on_two_point_check(self, pairs):
        # Draw blocks and chunks are exact: every ratio, so the max, the
        # mean and the histogram, equals the pair-by-pair scoring on the
        # same draws.
        omap = build_output_map(8, 0.5)
        data = grid_dataset_planar(GridDatasetSpec())
        args = (self.sampler(omap), omap, self.biases(omap), data, pairs)
        report = lipschitz_estimate(*args, Rng(3))
        assert report == pairwise_lipschitz(*args, Rng(3))
        assert report.pairs_used == pairs

    def test_skipped_pairs_match_pairwise_reference(self, monkeypatch):
        # Every third pair is coincident, the last pair of the first draw
        # block among them, and so is the first pair of the second; each is
        # counted as skipped and the ratios of the other pairs keep their
        # order.
        omap = build_output_map(9, 0.5)
        data = annulus_data(2, 2)
        set_blocks(monkeypatch, 4, 12, data.n_samples, 9)
        fixed = np.ones((2, 9))
        draws = []

        def mixed(rng, count):
            # Indexed by the global draw, whatever the block.
            out = np.empty((count, 2, 9))
            for i in range(count):
                draws.append(1)
                pair = (len(draws) - 1) // 2
                out[i] = fixed if pair % 3 == 2 or pair == 12 else rng.normal((2, 9))
            return out

        pairs = 2 * 12 + 5
        report = lipschitz_estimate(mixed, omap, self.biases(omap), data, pairs, Rng(4))
        assert len(draws) == 2 * pairs
        draws.clear()
        assert report == pairwise_lipschitz(mixed, omap, self.biases(omap), data, pairs, Rng(4))
        assert report.skipped == pairs // 3 + 1

    def test_report_does_not_depend_on_chunk_size(self, monkeypatch):
        # Chunks of 1, 3 and 8 pairs, each in draw blocks of one chunk, of
        # three chunks and of the default _LIPSCHITZ_DRAW pairs.
        omap = build_output_map(8, 0.5)
        data = self.data()
        args = (self.sampler(omap, scale=2.0), omap, self.biases(omap), data, 2 * DRAW + 7)
        reports = []
        for chunk in (1, 3, CHUNK):
            for draw in (chunk, 3 * chunk, DRAW):
                set_blocks(monkeypatch, chunk, draw, data.n_samples, 8)
                reports.append(lipschitz_estimate(*args, Rng(5)))
        assert len(reports) == 9 and all(r == reports[0] for r in reports)
        assert reports[0] == pairwise_lipschitz(*args, Rng(5))

    def test_partial_chunk_reads_the_head_of_the_chunk_buffer(self, monkeypatch):
        # Every chunk's hinge reads contiguous class-major scores in place,
        # the partial last chunk from the head of the same buffer, so neither
        # a reshape nor the hinge's label gather copies a sliced buffer; the
        # report is the pair-by-pair one.
        omap = build_output_map(8, 0.5)
        data = grid_dataset_planar(GridDatasetSpec())
        seen = []

        def spy(F, ws, hinge=landscape._hinge):
            assert F.flags.c_contiguous
            seen.append((F.shape, F.__array_interface__["data"][0]))
            return hinge(F, ws)

        monkeypatch.setattr(landscape, "_hinge", spy)
        args = (self.sampler(omap), omap, self.biases(omap), data, 2 * CHUNK + 5)
        report = lipschitz_estimate(*args, Rng(3))
        N = data.n_samples
        assert [shape for shape, _ in seen] == [(2, 2 * CHUNK * N)] * 2 + [(2, 10 * N)]
        assert len({address for _, address in seen}) == 1
        assert report == pairwise_lipschitz(*args, Rng(3))

    def test_sampler_called_once_per_draw_block(self, monkeypatch):
        # A draw block is a whole number of chunks: 2 chunks of 5 pairs when
        # _LIPSCHITZ_DRAW is 13.
        omap = build_output_map(4, 0.5)
        data = self.data()
        set_blocks(monkeypatch, 5, 13, data.n_samples, 4)
        counts = []

        def counted(rng, count):
            counts.append(count)
            return rng.normal_draws(count, (2, 4))

        report = lipschitz_estimate(counted, omap, self.biases(omap), data, 3 * 10 + 7, Rng(6))
        assert counts == [20, 20, 20, 14]
        assert report == pairwise_lipschitz(self.sampler(omap), omap, self.biases(omap), data, 37, Rng(6))

    @pytest.mark.parametrize(
        "shape, match",
        [
            ((12, 2, 4), "finite"),
            ((11, 2, 4), r"must have shape \(12, 2, 4\)"),
            ((12, 2, 5), r"must have shape \(12, 2, 4\)"),
        ],
        ids=["nan", "one-short", "wrong-k"],
    )
    def test_bad_weights_in_a_later_draw_block_refused(self, monkeypatch, shape, match):
        # The checks run on every draw block, not only the first.
        omap = build_output_map(4, 0.5)
        data = self.data()
        set_blocks(monkeypatch, 3, 6, data.n_samples, 4)
        calls = []

        def late_bad(rng, count):
            calls.append(count)
            if len(calls) == 1:
                return rng.normal_draws(count, (2, 4))
            out = np.ones(shape)
            if match == "finite":
                out[-1, 1, 3] = np.nan
            return out

        with pytest.raises(ValueError, match=match):
            lipschitz_estimate(late_bad, omap, self.biases(omap), data, 3 * 6, Rng(6))
        assert calls == [12, 12]

    def test_peak_memory_is_one_chunk_one_draw_block_and_a_few_rows_per_pair(self):
        # The docstring's bound at landscape-audit's defaults.  Past it, the
        # peak grows only by the ratios and their histogram, about 24 B per
        # pair.
        omap = build_output_map(8, 0.5)
        data = grid_dataset_planar(GridDatasetSpec())
        N, k = data.n_samples, omap.k
        args = (self.sampler(omap), omap, self.biases(omap), data)
        peaks = {}
        for pairs in (1250, 10_000):
            tracemalloc.start()
            try:
                lipschitz_estimate(*args, pairs, Rng(7))
                peaks[pairs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        chunk = chunk_budget(CHUNK, N, k)
        hinge = 5 * 2 * CHUNK * N * 8
        block = 2 * DRAW * 2 * k * 8
        assert chunk <= landscape._LIPSCHITZ_CHUNK_BYTES
        assert peaks[1250] <= chunk + hinge + N * k * 8 + 2 * block + 24 * 1250
        assert peaks[10_000] - peaks[1250] <= 24 * (10_000 - 1250)

    def test_coincident_pairs_rejected(self):
        omap = build_output_map(4, 0.5)

        def constant(rng, count):
            return np.ones((count, 2, 4))

        with pytest.raises(ValueError, match="coincident"):
            lipschitz_estimate(constant, omap, np.full(4, 0.1), self.data(), 5, Rng(0))

    @pytest.mark.parametrize(
        "weights, match",
        [
            (np.array([[1.0, np.nan, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]), "finite"),
            (np.array([[1.0, np.inf, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]), "finite"),
            (np.ones((2, 5)), "shape"),
            (np.ones((3, 4)), "shape"),
            (np.ones(4), "shape"),
        ],
        ids=["nan", "inf", "wrong-k", "wrong-d", "vector"],
    )
    def test_bad_sampled_weights_refused(self, weights, match):
        omap = build_output_map(4, 0.5)
        with pytest.raises(ValueError, match=match):
            lipschitz_estimate(
                lambda rng, count: np.stack([weights] * count), omap, self.biases(omap), self.data(), 5, Rng(0)
            )

    def test_pairs_validated(self):
        omap = build_output_map(4, 0.5)
        with pytest.raises(ValueError):
            lipschitz_estimate(self.sampler(omap), omap, self.biases(omap), self.data(), 0, Rng(0))
