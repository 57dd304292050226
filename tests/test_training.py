import itertools
import math
import warnings

import numpy as np
import pytest

from reluphase import training
from reluphase.experiments import RunSpec, build_task, execute_run, initial_weights
from reluphase.losses import KernelWorkspace, batch_loss_grad
from reluphase.training import R_MAX
from reluphase import (
    LabeledDataset,
    Rng,
    TrainConfig,
    build_output_map,
    init_random,
    network_params,
    subgradient,
    train,
    weight_matrix_norm,
)


def gd_step(params, data, eta):
    """One descent step W - eta * subgradient, the oracle train's steps are checked against."""
    return params.with_weights(params.weights - eta * subgradient(params, data))


def one_unit_per_class(weights, biases=None):
    """Binary net, k = 2, v = 1, unit j owned by class j + 1."""
    return network_params(np.asarray(weights, dtype=float), build_output_map(2, 2, 1.0), biases)


def polar_grid(radii, angles):
    """Class 1 on the polar grid r*(cos phi, sin phi) over radii x angles, radius-major, as the library's grid."""
    r, phi = np.repeat(radii, len(angles)), np.tile(angles, len(radii))
    return LabeledDataset(np.column_stack([r * np.cos(phi), r * np.sin(phi)]), np.ones(r.size, dtype=int))


def single_point():
    return LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]))


class TestWeightMatrixNorm:
    def test_sums_column_norms(self):
        assert weight_matrix_norm(np.array([[3.0, 0.0], [4.0, 0.0]])) == 5.0
        assert weight_matrix_norm(np.zeros((3, 2))) == 0.0

    def test_column_norms_equal_linalg_norm_bytes(self):
        W = Rng(5).normal((3, 6))
        W[:, 1], W[:, 2], W[0, 3], W[0, 4], W[1, 5] = 0.0, -0.0, 1e-310, 1e200, np.inf
        with np.errstate(over="ignore"):
            want = np.linalg.norm(W, axis=0)
            assert training._column_norms(W).tobytes() == want.tobytes()
            assert weight_matrix_norm(W) == float(want.sum())


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
        with pytest.raises(ValueError, match="stop_loss must be nonnegative, got nan"):
            TrainConfig(eta=0.1, max_iters=1, stop_loss=float("nan"))


class TestGdStep:
    def test_hand_step(self):
        # x = (1, 0), unit 1 at (0.1, 0), unit 2 dead: loss 0.8, grad column 0
        # is (-2, 0), so one step at eta 0.1 lands exactly on (0.3, 0).
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        stepped = gd_step(params, single_point(), 0.1)
        expected = np.array([[0.1 - 0.1 * -2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(stepped.weights, expected)


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
        # which the cadence of 3 did not record: it is appended.
        # The t = 5 call overwrote the workspace, so the kernel runs once more
        # on the t = 4 weights, and the record holds that call's values.
        seen, results = [], []

        def kernel(W, *rest):
            seen.append(W)
            loss, losses, grad = batch_loss_grad(W, *rest)
            results.append((loss, losses.copy(), grad.copy()))
            return (np.inf if len(seen) == 6 else loss), losses, grad

        monkeypatch.setattr(training, "batch_loss_grad", kernel)
        data = LabeledDataset(np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([1, 2]))
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.1]])
        cfg = TrainConfig(eta=0.01, max_iters=100, record_every=3)
        res = train(params, data, cfg)
        assert res.stop_reason == "nonfinite"
        assert [rec.t for rec in res.records] == [0, 3, 4]
        assert len(seen) == 7 and seen[6] is seen[4]
        last = res.records[-1]
        assert last.weights.tobytes() == seen[4].tobytes()
        np.testing.assert_array_equal(res.params.weights, seen[4])
        loss, losses, grad = results[4]
        assert last.loss == loss and last.grad_norm == weight_matrix_norm(grad)
        assert last.loss_per_class == {1: losses[0], 2: losses[1]}
        # The t = 5 call's values differ, so reading its buffers would show.
        assert results[5][0] != loss and not np.array_equal(results[5][1], losses)

    @pytest.mark.parametrize("bad", ["nan-loss", "nan-grad", "inf-grad"])
    def test_each_nonfinite_value_stops_the_run(self, monkeypatch, bad):
        # The kernel's t = 3 call returns one non-finite value, the others
        # finite: any one of them ends the run on t = 2.
        calls = []

        def kernel(W, *rest):
            calls.append(W)
            loss, losses, grad = batch_loss_grad(W, *rest)
            if len(calls) == 4:
                if bad == "nan-loss":
                    loss = float("nan")
                else:
                    grad = grad.copy()
                    grad[1, 0] = np.nan if bad == "nan-grad" else -np.inf
            return loss, losses, grad

        monkeypatch.setattr(training, "batch_loss_grad", kernel)
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        res = train(params, single_point(), TrainConfig(eta=0.01, max_iters=100))
        assert res.stop_reason == "nonfinite" and res.records[-1].t == 2
        assert calls[2] is calls[4] and res.records.weights[-1].tobytes() == calls[2].tobytes()

    @pytest.mark.parametrize("task", ["planar-grid", "subspace-pair"])
    def test_huge_step_stops_nonfinite_where_the_unfused_checks_do(self, task):
        # The stop rule written with np.linalg.norm and np.all(np.isfinite)
        # on a kernel without a workspace: the run must stop at the iterate
        # before the first one those checks refuse.
        with np.errstate(over="ignore", invalid="ignore"):
            res, data = execute_run(RunSpec(task=task, eta=1e306, max_iters=50))
            W, p = res.records[0].weights, res.params
            args = (p.biases, p.output.values, data.X, data.y - 1, np.arange(data.n_samples))
            for t in itertools.count():
                loss, _, grad = batch_loss_grad(W, *args)
                norm = float(np.linalg.norm(W, axis=0).sum())
                if not (np.isfinite(loss) and np.isfinite(norm) and np.all(np.isfinite(grad))):
                    break
                W = W - 1e306 * grad
        assert t >= 1
        assert res.stop_reason == "nonfinite" and res.records[-1].t == t - 1

    def test_nonfinite_start_raises(self):
        # The first score is already inf: no finite iterate exists to stop at.
        params = one_unit_per_class([[1e308, 0.1], [0.0, 0.0]])
        data = LabeledDataset(np.array([[2.0, 0.0]]), np.array([2]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="initial weights"):
                train(params, data, TrainConfig(eta=0.1, max_iters=10))


class TestKernelCalls:
    """train calls the module-level kernel name once per evaluation, on every row."""

    def record_calls(self, monkeypatch):
        calls = []

        def kernel(*args):
            calls.append(args)
            return batch_loss_grad(*args)

        monkeypatch.setattr(training, "batch_loss_grad", kernel)
        return calls

    def test_one_call_per_iteration(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        data = single_point()
        res = train(one_unit_per_class([[0.1, 0.0], [0.0, 0.0]]), data, TrainConfig(eta=0.1, max_iters=50))
        assert res.converged_at == 2
        assert len(calls) == 3
        workspaces = {id(args[6]) for args in calls}
        assert len(workspaces) == 1
        for W, b, values, X, y0, rows, *_ in calls:
            assert W.shape == (2, 2) and b.shape == (2,) and values.shape == (2, 2)
            assert X is data.X and len(y0) == len(rows) == data.n_samples

    def test_nonfinite_stop_adds_one_call(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        params = one_unit_per_class([[0.1, 0.1], [0.0, 0.0]])
        data = LabeledDataset(np.array([[1.0, 0.0], [2.0, 1.0]]), np.array([1, 2]))
        with np.errstate(over="ignore", invalid="ignore"):
            res = train(params, data, TrainConfig(eta=1e308, max_iters=10))
        assert res.stop_reason == "nonfinite"
        assert len(calls) == res.records[-1].t + 3
        assert all(len(args[5]) == data.n_samples for args in calls)
        assert calls[-1][0] is calls[-3][0]


class TestRecording:
    def test_cadence_and_final_record(self):
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        cfg = TrainConfig(eta=0.01, max_iters=100, record_every=3)
        res = train(params, single_point(), cfg)
        times = [rec.t for rec in res.records]
        assert res.converged_at == 20
        assert times == [0, 3, 6, 9, 12, 15, 18, 20]
        assert len(times) == len(set(times))

    def test_recorded_neuron_norms_equal_linalg_norm_bytes(self):
        # Column 2 is zero and column 3 is -0.0; neither unit ever fires.
        W = init_random(2, 6, Rng(4))
        W[:, 2], W[:, 3] = 0.0, -0.0
        params = network_params(W, build_output_map(2, 6, 0.5))
        res = train(params, polar_grid((1.0, 1.5), np.linspace(0.1, 3.0, 9)), TrainConfig(eta=0.05, max_iters=30))
        assert np.signbit(res.records[0].weights[:, 3]).all() and len(res.records) > 1
        for rec in res.records:
            assert rec.neuron_norms.tobytes() == np.linalg.norm(rec.weights, axis=0).tobytes()
            assert rec.neuron_norms[2] == rec.neuron_norms[3] == 0.0

    @pytest.mark.parametrize("task", ["planar-grid", "subspace-pair"])
    def test_recorded_class_losses_equal_masked_mean_bytes(self, task):
        # planar-grid holds one class, whose loss is the run's loss; subspace-pair two.
        result, data = execute_run(RunSpec(task=task, width=8, seed=3, max_iters=40))
        params = result.params
        rows = np.arange(data.n_samples)
        assert len(data.labels) == (1 if task == "planar-grid" else 2) and len(result.records) > 1
        for rec in result.records:
            _, losses, _ = batch_loss_grad(rec.weights, params.biases, params.output.values, data.X, data.y - 1, rows)
            for c in data.labels:
                expected = float(losses[data.indices_for(c)].mean())
                assert rec.loss_per_class[c].hex() == expected.hex()

    def test_record_fields(self):
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        cfg = TrainConfig(eta=0.1, max_iters=50)
        res = train(params, single_point(), cfg)
        assert res.records.labels == (1,)
        first = res.records[0]
        assert first.loss == 0.8
        assert first.loss_per_class == {1: 0.8}
        np.testing.assert_allclose(first.neuron_norms, [0.1, 0.0])
        assert first.weight_norm == pytest.approx(0.1)
        assert first.grad_norm == pytest.approx(2.0)
        np.testing.assert_array_equal(first.weights, params.weights)


def train_by_records(params, data, config, kernel=batch_loss_grad):
    """Oracle: train's loop as it once recorded, one TrajectoryRecord per record with its
    grad_norm taken on its own; returns (records, stop_reason, max_weight_norm, final W)."""
    rows = np.arange(data.n_samples)
    class_rows = {c: data.indices_for(c) for c in data.labels}
    class_rows = {c: idx if idx.size < data.n_samples else None for c, idx in class_rows.items()}
    W = np.array(params.weights, dtype=float, copy=True)
    b, values, X, y0 = params.biases, params.output.values, data.X, data.y - 1
    ws = KernelWorkspace(values, X, y0, b)
    records, max_norm = [], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in itertools.count():
            loss, losses, grad = kernel(W, b, values, X, y0, rows, ws)
            col_norms = training._column_norms(W)
            norm = float(col_norms.sum())
            if not (math.isfinite(loss) and math.isfinite(norm) and np.isfinite(grad).all()):
                t, W, col_norms = t - 1, previous_W, previous_norms
                loss, losses, grad = kernel(W, b, values, X, y0, rows, ws)
                stop_reason = "nonfinite"
            else:
                max_norm = max(max_norm, norm)
                if loss <= config.stop_loss:
                    stop_reason = "converged"
                elif not grad.any():
                    stop_reason = "dead_start" if t == 0 else "stalled"
                elif t == config.max_iters:
                    stop_reason = "max_iters"
                else:
                    stop_reason = None
            due = stop_reason is not None or t % config.record_every == 0
            if due and not (records and records[-1].t == t):
                records.append(
                    training.TrajectoryRecord(
                        t=t,
                        loss=loss,
                        loss_per_class={
                            c: loss if idx is None else float(losses[idx].mean()) for c, idx in class_rows.items()
                        },
                        neuron_norms=col_norms,
                        grad_norm=weight_matrix_norm(grad),
                        weights=W,
                    )
                )
            if stop_reason is not None:
                return records, stop_reason, max_norm, W
            previous_W, previous_norms = W, col_norms
            W = W - config.eta * grad


def kernel_failing_at(call):
    """The loss kernel, reporting an inf loss on its call-th call."""
    calls = []

    def kernel(*args):
        calls.append(None)
        loss, losses, grad = batch_loss_grad(*args)
        return (math.inf if len(calls) == call else loss), losses, grad

    return kernel


def spec_inputs(spec):
    """The params, dataset and config execute_run trains on."""
    rng = Rng(spec.seed)
    data = build_task(spec.task, spec.theta, spec.noise_std, rng.child(1))
    W0 = initial_weights(spec.init, data.dim, spec.width, rng.child(0))
    return network_params(W0, spec.output_map(), spec.biases), data, spec.train_config()


def zero_start(spec):
    params, data, config = spec_inputs(spec)
    return params.with_weights(np.zeros_like(params.weights)), data, config


class TestColumnStore:
    """Every column of train's record store is, byte for byte, the per-record loop's values stacked."""

    CASES = {
        **{
            f"planar-{init}-{seed}": (RunSpec(seed=seed, init=init), spec_inputs)
            for init in ("random", "halfspace")
            for seed in range(6)
        },
        "subspace-pair": (RunSpec(task="subspace-pair", seed=1), spec_inputs),
        "subspace-pair-every-7": (RunSpec(task="subspace-pair", seed=4, width=12, record_every=7), spec_inputs),
        "planar-every-7": (RunSpec(seed=3, record_every=7), spec_inputs),
        "planar-width-24": (RunSpec(seed=2, width=24), spec_inputs),
        "nonfinite-at-start": (RunSpec(seed=1, eta=1e306, max_iters=50), spec_inputs),
        "dead-start": (RunSpec(width=6), zero_start),
        "max-iters-0": (RunSpec(seed=5), lambda spec: (*spec_inputs(spec)[:2], TrainConfig(eta=0.1, max_iters=0))),
    }

    @staticmethod
    def assert_matches_oracle(result, oracle):
        records, stop_reason, max_norm, W = oracle
        store = result.records
        assert store.labels == tuple(records[0].loss_per_class)
        expected = {
            "t": np.array([rec.t for rec in records], dtype=np.int64),
            "loss": np.array([rec.loss for rec in records]),
            "loss_per_class": np.array([[rec.loss_per_class[c] for c in store.labels] for rec in records]),
            "neuron_norms": np.stack([rec.neuron_norms for rec in records]),
            "grad_norm": np.array([rec.grad_norm for rec in records]),
            "weights": np.stack([rec.weights for rec in records]),
        }
        for name, want in expected.items():
            got = getattr(store, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        assert len(store) == len(records)
        for row, rec in zip(store, records):
            assert (row.t, row.loss, row.loss_per_class, row.grad_norm) == (
                rec.t, rec.loss, rec.loss_per_class, rec.grad_norm
            )
            assert row.weight_norm == rec.weight_norm
        assert (result.stop_reason, result.max_weight_norm) == (stop_reason, max_norm)
        assert result.params.weights.tobytes() == W.tobytes()

    @pytest.mark.parametrize("case", list(CASES))
    def test_columns_equal_per_record_loop(self, case):
        spec, inputs = self.CASES[case]
        params, data, config = inputs(spec)
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = train(params, data, config)
            oracle = train_by_records(params, data, config)
        self.assert_matches_oracle(result, oracle)
        reason = {"nonfinite-at-start": "nonfinite", "dead-start": "dead_start", "max-iters-0": "max_iters"}
        assert result.stop_reason == reason.get(case, "converged")

    def test_off_cadence_nonfinite_stop(self, monkeypatch):
        # The t = 5 call reports inf, so the run ends on t = 4, off the cadence of 3.
        data = LabeledDataset(np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([1, 2]))
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.1]])
        config = TrainConfig(eta=0.01, max_iters=100, record_every=3)
        monkeypatch.setattr(training, "batch_loss_grad", kernel_failing_at(6))
        result = train(params, data, config)
        self.assert_matches_oracle(result, train_by_records(params, data, config, kernel_failing_at(6)))
        assert result.stop_reason == "nonfinite" and result.records.t.tolist() == [0, 3, 4]

    def test_store_grows_past_its_first_size(self):
        # 64 rows are made first; this run records 101 times at every iteration.
        params = one_unit_per_class([[0.1, 0.0], [0.0, 0.0]])
        config = TrainConfig(eta=1e-4, max_iters=100)
        result = train(params, single_point(), config)
        assert len(result.records) == 101
        self.assert_matches_oracle(result, train_by_records(params, single_point(), config))

    def test_rows_read_as_records(self):
        result = train(one_unit_per_class([[0.1, 0.0], [0.0, 0.0]]), single_point(), TrainConfig(eta=0.1, max_iters=50))
        last = result.records[-1]
        assert isinstance(last, training.TrajectoryRecord) and last.t == result.records[2].t == 2
        assert last.weights.base is not None and np.shares_memory(last.weights, result.records.weights)
        with pytest.raises(IndexError):
            result.records[3]
        assert [rec.t for rec in result.records] == [0, 1, 2]


class TestAgainstManualSteps:
    def test_train_matches_gd_step_chain_bitwise(self):
        rng = Rng(42)
        data = polar_grid((1.0, 1.5), np.linspace(0.1, 3.0, 9))
        omap = build_output_map(2, 4, 0.5)
        params = network_params(init_random(2, 4, rng), omap)
        cfg = TrainConfig(eta=0.05, max_iters=10)
        res = train(params, data, cfg)
        manual = params
        for t, W in zip(res.records.t[:-1], res.records.weights[:-1]):
            np.testing.assert_array_equal(W, manual.weights, err_msg=f"t={t}")
            manual = gd_step(manual, data, cfg.eta)
        np.testing.assert_array_equal(res.records[-1].weights, manual.weights)
        np.testing.assert_array_equal(res.params.weights, manual.weights)


class TestBiasMode:
    def test_loss_decreases(self):
        rng = Rng(7)
        data = polar_grid((1.0, 2.0), np.linspace(0.1, 3.0, 11))
        omap = build_output_map(2, 4, 0.5)
        biases = np.full(4, 0.1)
        params = network_params(init_random(2, 4, rng), omap, biases)
        res = train(params, data, TrainConfig(eta=0.05, max_iters=200))
        assert res.records[-1].loss < res.records[0].loss
        np.testing.assert_array_equal(res.params.biases, biases)
