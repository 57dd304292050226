import numpy as np
import pytest

from reluphase import training
from reluphase.losses import batch_loss_grad
from reluphase.training import R_MAX
from reluphase import (
    GridDatasetSpec,
    LabeledDataset,
    Rng,
    TrainConfig,
    build_output_map,
    gd_step,
    grid_dataset_planar,
    init_random,
    iterations_to_convergence,
    network_params,
    train,
    weight_matrix_norm,
)


def one_unit_per_class(weights, biases=None):
    """Binary net, k = 2, v = 1, unit j owned by class j + 1."""
    return network_params(np.asarray(weights, dtype=float), build_output_map(2, 2, 1.0), biases)


def single_point():
    return LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]))


class TestWeightMatrixNorm:
    def test_sums_column_norms(self):
        assert weight_matrix_norm(np.array([[3.0, 0.0], [4.0, 0.0]])) == 5.0
        assert weight_matrix_norm(np.zeros((3, 2))) == 0.0


class TestTrainConfig:
    @pytest.mark.parametrize("eta", [0.0, -0.1, float("inf"), float("nan")])
    def test_bad_eta(self, eta):
        with pytest.raises(ValueError):
            TrainConfig(eta=eta, max_iters=1)

    def test_bad_fields(self):
        with pytest.raises(ValueError):
            TrainConfig(eta=0.1, max_iters=-1)
        with pytest.raises(ValueError):
            TrainConfig(eta=0.1, max_iters=1, record_every=0)
        with pytest.raises(ValueError):
            TrainConfig(eta=0.1, max_iters=1, stop_loss=-1e-9)


class TestGdStep:
    def test_hand_step(self):
        # x = (1, 0), unit 1 at (0.1, 0), unit 2 dead: loss 0.8, grad column 0
        # is (-2, 0), so one step at eta 0.1 lands exactly on (0.3, 0).
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        stepped = gd_step(params, single_point(), 0.1)
        expected = np.array([[0.1 - 0.1 * -2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(stepped.weights, expected)

    def test_zero_step_is_identity(self):
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(gd_step(params, single_point(), 0.0).weights, params.weights)

    def test_negative_step_rejected(self):
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            gd_step(params, single_point(), -0.1)


class TestStopReasons:
    def test_converges_to_exact_zero(self):
        # Margin 1 - 2 w00 hits exactly zero at w00 = 0.5, two steps away.
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        cfg = TrainConfig(eta=0.1, max_iters=50)
        res = train(params, single_point(), cfg)
        assert res.stop_reason == "converged"
        assert res.converged_at == 2
        assert res.records[-1].loss == 0.0
        np.testing.assert_allclose(res.params.weights, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_dead_start_warns_and_stops(self):
        params = one_unit_per_class(np.zeros((2, 2)))
        cfg = TrainConfig(eta=0.1, max_iters=50)
        with pytest.warns(RuntimeWarning, match="cannot start learning"):
            res = train(params, single_point(), cfg)
        assert res.stop_reason == "dead_start"
        assert res.records[-1].t == 0
        assert res.records[-1].loss == 1.0

    def test_stalled_after_progress(self):
        # Unit 1 starts dead at (-0.5, 0); unit 2 shrinks 0.4 -> 0.2 -> 0 and
        # then every activation is gone, stranding the loss at 1.
        params = one_unit_per_class([[-0.5, 0.4], [0.0, 0.0]])
        cfg = TrainConfig(eta=0.1, max_iters=50)
        res = train(params, single_point(), cfg)
        assert res.stop_reason == "stalled"
        assert res.records[-1].t == 2
        assert res.records[-1].loss == 1.0
        assert res.converged_at is None

    def test_max_iters(self):
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        cfg = TrainConfig(eta=0.01, max_iters=3)
        res = train(params, single_point(), cfg)
        assert res.stop_reason == "max_iters"
        assert res.records[-1].t == 3
        assert res.converged_at is None

    def test_diverged_flag_tracks_r_max(self):
        # Unit 2 points along (0, 1), orthogonal to the sample, so it never
        # activates and keeps its norm while unit 1 grows 0.1 -> 0.5.
        cfg = TrainConfig(eta=0.1, max_iters=50)
        below = train(one_unit_per_class([[0.1, 0.0], [0.0, R_MAX - 1.0]]), single_point(), cfg)
        above = train(one_unit_per_class([[0.1, 0.0], [0.0, R_MAX]]), single_point(), cfg)
        assert below.stop_reason == above.stop_reason == "converged"
        assert below.max_weight_norm == pytest.approx(R_MAX - 0.5, abs=1e-12)
        assert above.max_weight_norm == pytest.approx(R_MAX + 0.5, abs=1e-12)
        assert not below.diverged
        assert above.diverged

    def test_nonfinite_stops_at_last_finite_iterate(self):
        # An absurd step size overflows unit 2 along the class 2 sample, whose
        # direction overlaps the class 1 sample; the class 1 sample then sees
        # a +inf score on the wrong class and the hinge overflows.  The run
        # must end on the iterate before that, not absorb the overflow.
        params = one_unit_per_class([[0.1, 0.1], [0.0, 0.0]])
        data = LabeledDataset(np.array([[1.0, 0.0], [2.0, 1.0]]), np.array([1, 2]))
        cfg = TrainConfig(eta=1e308, max_iters=10)
        with np.errstate(over="ignore", invalid="ignore"):
            res = train(params, data, cfg)
        assert res.stop_reason == "nonfinite"
        assert res.diverged
        last = res.records[-1]
        assert np.isfinite(last.loss) and np.isfinite(last.grad_norm)
        assert np.all(np.isfinite(last.weights))
        np.testing.assert_array_equal(res.params.weights, last.weights)

    def test_nonfinite_ends_on_previous_iterate_off_the_record_cadence(self, monkeypatch):
        # The kernel reports an inf loss at t = 5, so the run ends on t = 4,
        # which the cadence of 3 did not record: it is appended, by reference.
        seen = []

        def kernel(W, *rest):
            seen.append(W)
            loss, losses, grad = batch_loss_grad(W, *rest)
            return (np.inf if len(seen) == 6 else loss), losses, grad

        monkeypatch.setattr(training, "batch_loss_grad", kernel)
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        cfg = TrainConfig(eta=0.01, max_iters=100, record_every=3)
        res = train(params, single_point(), cfg)
        assert res.stop_reason == "nonfinite"
        assert [rec.t for rec in res.records] == [0, 3, 4]
        assert res.records[-1].weights is seen[4]
        np.testing.assert_array_equal(res.params.weights, seen[4])

    def test_nonfinite_start_raises(self):
        # The first score is already inf: no finite iterate exists to stop at.
        params = one_unit_per_class([[1e308, 0.1], [0.0, 0.0]])
        data = LabeledDataset(np.array([[2.0, 0.0]]), np.array([2]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="initial weights"):
                train(params, data, TrainConfig(eta=0.1, max_iters=10))


class TestRecording:
    def test_cadence_and_final_record(self):
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        cfg = TrainConfig(eta=0.01, max_iters=100, record_every=3)
        res = train(params, single_point(), cfg)
        times = [rec.t for rec in res.records]
        assert res.converged_at == 20
        assert times == [0, 3, 6, 9, 12, 15, 18, 20]
        assert len(times) == len(set(times))

    def test_record_fields(self):
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        cfg = TrainConfig(eta=0.1, max_iters=50)
        res = train(params, single_point(), cfg)
        assert res.data_labels == (1,)
        first = res.records[0]
        assert first.loss == 0.8
        assert first.loss_per_class == {1: 0.8}
        np.testing.assert_allclose(first.neuron_norms, [0.1, 0.0])
        assert first.weight_norm == pytest.approx(0.1)
        assert first.grad_norm == pytest.approx(2.0)
        np.testing.assert_array_equal(first.weights, params.weights)


class TestAgainstManualSteps:
    def test_train_matches_gd_step_chain_bitwise(self):
        rng = Rng(42)
        spec = GridDatasetSpec(radii=(1.0, 1.5), angles=tuple(np.linspace(0.1, 3.0, 9)))
        data = grid_dataset_planar(spec)
        omap = build_output_map(2, 4, 0.5)
        params = network_params(init_random(2, 4, rng), omap)
        cfg = TrainConfig(eta=0.05, max_iters=10)
        res = train(params, data, cfg)
        manual = params
        for rec in res.records[:-1]:
            np.testing.assert_array_equal(rec.weights, manual.weights, err_msg=f"t={rec.t}")
            manual = gd_step(manual, data, cfg.eta)
        np.testing.assert_array_equal(res.records[-1].weights, manual.weights)
        np.testing.assert_array_equal(res.params.weights, manual.weights)


class TestBiasMode:
    def test_loss_decreases(self):
        rng = Rng(7)
        spec = GridDatasetSpec(radii=(1.0, 2.0), angles=tuple(np.linspace(0.1, 3.0, 11)))
        data = grid_dataset_planar(spec)
        omap = build_output_map(2, 4, 0.5)
        biases = np.full(4, 0.1)
        params = network_params(init_random(2, 4, rng), omap, biases)
        res = train(params, data, TrainConfig(eta=0.05, max_iters=200))
        assert res.records[-1].loss < res.records[0].loss
        np.testing.assert_array_equal(res.params.biases, biases)


class TestIterationsToConvergence:
    def test_reads_records(self):
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        res = train(params, single_point(), TrainConfig(eta=0.1, max_iters=50))
        assert iterations_to_convergence(res.records) == 2
        assert iterations_to_convergence(res.records, threshold=10.0) == 0

    def test_none_when_never_reached(self):
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        res = train(params, single_point(), TrainConfig(eta=0.01, max_iters=3))
        assert iterations_to_convergence(res.records) is None
