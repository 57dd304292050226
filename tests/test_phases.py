import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad

from reluphase import phases
from reluphase import (
    BoundInputs,
    DirectionSet,
    GcCertificate,
    LabeledDataset,
    NormViolation,
    Rng,
    TrainConfig,
    TrainResult,
    Trajectory,
    build_output_map,
    cp_upper_bound,
    detect_phases,
    gc_check,
    monotonicity_step_threshold,
    monotonicity_audit,
    network_params,
    nonowner_norm_violations,
    owner_norm_violations,
    p_r_lower_bound,
    phase2_sum_bound,
    sphere_area,
    t1_bound,
    train,
)
from reluphase.experiments import RunSpec, execute_run


def toy_inputs(**overrides):
    kw = dict(
        v=1.0,
        eta=0.1,
        radius=1.0,
        data_min=1.0,
        data_max=1.0,
        density_min=1.0,
        density_max=1.0,
        subspace_dim=2,
        n_classes=2,
    )
    kw.update(overrides)
    return BoundInputs(**kw)


class TestSphereArea:
    def test_known_areas(self):
        assert sphere_area(0) == pytest.approx(2.0, rel=1e-14)
        assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sphere_area(-1)


class TestBoundInputs:
    def test_validation(self):
        with pytest.raises(ValueError):
            toy_inputs(v=0.0)
        with pytest.raises(ValueError):
            toy_inputs(eta=-0.1)
        with pytest.raises(ValueError):
            toy_inputs(data_min=2.0, data_max=1.0)
        with pytest.raises(ValueError):
            toy_inputs(density_min=-0.1)
        with pytest.raises(ValueError):
            toy_inputs(density_min=2.0, density_max=1.0)
        with pytest.raises(ValueError):
            toy_inputs(subspace_dim=0)
        with pytest.raises(ValueError):
            toy_inputs(n_classes=1)


class TestGradientCoefficientBound:
    def test_formula(self):
        assert cp_upper_bound(toy_inputs()) == 1.0
        bi = toy_inputs(data_max=2.0, density_min=0.1, density_max=0.25, subspace_dim=3)
        assert cp_upper_bound(bi) == pytest.approx(4.0 * 0.25, rel=1e-14)


class TestCapMassBound:
    def test_planar_toy_value(self):
        # sin(beta) = 1/2 so beta = pi/6; in the plane the bound collapses to
        # density * beta / pi = density / 6.
        assert p_r_lower_bound(toy_inputs()) == pytest.approx(1.0 / 6.0, rel=1e-10)
        assert p_r_lower_bound(toy_inputs(density_min=0.3)) == pytest.approx(0.05, rel=1e-10)

    def test_three_dimensional_value(self):
        bi = toy_inputs(subspace_dim=3)
        beta = math.asin(0.5)
        expected = 1.0 * (sphere_area(1) / sphere_area(2)) * (1.0 - math.cos(beta))
        assert p_r_lower_bound(bi) == pytest.approx(expected, rel=1e-10)

    def test_matches_direct_quadrature(self):
        bi = toy_inputs(v=0.7, data_max=1.5, radius=2.0, subspace_dim=4, density_min=0.2)
        beta = math.asin(1.0 / (2.0 * 0.7 * 1.5 * 2.0))
        integral, _ = quad(lambda t: math.sin(t) ** 2, 0.0, beta)
        expected = 0.2 * (sphere_area(2) / sphere_area(3)) * integral
        assert p_r_lower_bound(bi) == pytest.approx(expected, rel=1e-8)

    # beta from 1e-6 up to 1e-3 below pi/2, on both sides of the pi/4 switch
    CAP_ANGLES = (1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, math.pi / 4, 0.79, 1.0, 1.3, 1.5, math.pi / 2 - 1e-3)

    @pytest.mark.parametrize("dim", range(2, 23))
    def test_matches_tight_quadrature_across_angles(self, dim):
        mismatches = []
        for beta in self.CAP_ANGLES:
            bi = toy_inputs(radius=1.0 / (2.0 * math.sin(beta)), subspace_dim=dim, density_min=0.5)
            b = math.asin(1.0 / (2.0 * bi.radius))
            integral, _ = quad(lambda t: math.sin(t) ** (dim - 2), 0.0, b, epsabs=0.0, epsrel=1e-13, limit=200)
            expected = 0.5 * (sphere_area(dim - 2) / sphere_area(dim - 1)) * integral
            got = p_r_lower_bound(bi)
            if abs(got - expected) > 1e-12 * expected:
                mismatches.append((beta, got, expected))
        assert mismatches == []

    def test_requires_wide_enough_product(self):
        with pytest.raises(ValueError, match="2 \\* v"):
            p_r_lower_bound(toy_inputs(v=0.25))
        with pytest.raises(ValueError, match="subspace_dim"):
            p_r_lower_bound(toy_inputs(subspace_dim=1))
        # The closed-form integral holds 3e-13 relative up to subspace_dim 22;
        # at subspace_dim 102 it would be off by 45%.
        for bound in (p_r_lower_bound, t1_bound):
            with pytest.raises(ValueError, match="up to subspace_dim 22, got 23"):
                bound(toy_inputs(subspace_dim=23))


class TestPhaseBounds:
    def test_t1_toy_value(self):
        # C_p = 1, R = 1, v = 1, eta = 0.1, p_R = 1/6: bound is 1/(0.1/36) = 360.
        assert t1_bound(toy_inputs()) == pytest.approx(360.0, rel=1e-9)

    def test_t1_zero_density_rejected(self):
        with pytest.raises(ValueError, match="density_min"):
            t1_bound(toy_inputs(density_min=0.0))

    def test_phase2_toy_value(self):
        # 4 * v * n^2 * C_p * R^3 * M^2 / eta = 4 * 4 / 0.1 = 160.
        assert phase2_sum_bound(toy_inputs()) == pytest.approx(160.0, rel=1e-12)

    def test_step_threshold(self):
        bi = toy_inputs(data_max=2.0, density_min=0.5, density_max=0.5, n_classes=3)
        cp = cp_upper_bound(bi)  # 2^1 * 0.5 = 1
        r = 0.4
        expected = min(r / (cp * 4.0), r / (2.0 * 1.0 * 3.0 * 2.0))
        assert monotonicity_step_threshold(r, bi) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError):
            monotonicity_step_threshold(0.0, bi)


def fabricated_result(timeline_weights, class1_losses, v=1.0):
    """TrainResult of a class-1 run with hand-picked weight snapshots and losses; class 2 has no loss column."""
    k = timeline_weights[0].shape[1]
    omap = build_output_map(2, k, v)
    params = network_params(timeline_weights[-1], omap)
    T = len(class1_losses)
    weights = np.stack(timeline_weights[:T])
    norms = np.linalg.norm(weights, axis=1)
    records = Trajectory(
        labels=(1,),
        t=np.arange(T),
        loss=np.array(class1_losses, dtype=float),
        loss_per_class=np.array(class1_losses, dtype=float)[:, None],
        neuron_norms=norms,
        grad_norm=np.zeros(T),
        weights=weights,
    )
    return TrainResult(
        params=params,
        records=records,
        stop_reason="max_iters",
        max_weight_norm=float(norms.sum(axis=1).max()),
        config=TrainConfig(eta=0.01, max_iters=T - 1),
    )


def clustered_then_spread():
    """Three snapshots: class-1 owners clustered (fails), then a tripod (holds)."""
    tripod = np.array([[1.0, -0.5, -0.5], [0.0, math.sqrt(3) / 2, -math.sqrt(3) / 2]])
    clustered = np.array([[1.0, 1.0, 1.0], [0.0, 0.1, -0.1]])
    snaps = []
    for owner_dirs in (clustered, tripod, tripod):
        W = np.zeros((2, 6))
        W[:, 0::2] = owner_dirs  # class 1 owns columns 0, 2, 4
        W[:, 1::2] = 0.2 * tripod  # class 2 spread from the start
        snaps.append(W)
    return snaps


class TestDetectPhases:
    def test_hand_built_timeline(self):
        res = fabricated_result(clustered_then_spread(), [0.9, 0.4, 0.1])
        report = detect_phases(res, 1)
        assert report.gc_timeline == (False, True, True)
        assert report.first_hold == 1
        assert report.t1_size == 1
        assert report.t2_size == 2
        assert report.persistence == 1.0
        assert report.sum_sq_loss_t1 == 0.9**2
        assert report.sum_sq_loss_t2 == pytest.approx(0.4**2 + 0.1**2, rel=1e-12)

    def test_flapping_timeline_persistence(self):
        snaps = clustered_then_spread()
        snaps.append(snaps[0])  # holds, then falls back to the clustered state
        res = fabricated_result(snaps, [0.9, 0.4, 0.3, 0.2])
        report = detect_phases(res, 1)
        assert report.gc_timeline == (False, True, True, False)
        assert report.first_hold == 1
        assert report.persistence == pytest.approx(2.0 / 3.0)
        assert report.t1_size == 2
        assert report.t2_size == 2

    def test_never_holds(self):
        snaps = [clustered_then_spread()[0]] * 3
        res = fabricated_result(snaps, [0.9, 0.8, 0.7])
        report = detect_phases(res, 1)
        assert report.first_hold is None
        assert report.persistence is None
        assert report.t2_size == 0
        assert report.sum_sq_loss_t1 == pytest.approx(0.9**2 + 0.8**2 + 0.7**2, rel=1e-12)
        assert report.sum_sq_loss_t2 == 0.0

    def test_second_class_uses_its_own_columns(self):
        res = fabricated_result(clustered_then_spread(), [0.9, 0.4, 0.1])
        report = detect_phases(res, 2)
        assert report.gc_timeline == (True, True, True)

    def test_zero_columns_count_as_not_holding(self):
        snaps = clustered_then_spread()
        snaps[0][:, 0::2] = 0.0
        res = fabricated_result(snaps, [0.9, 0.4, 0.1])
        report = detect_phases(res, 1)
        assert report.gc_timeline == (False, True, True)

    def test_records_left_unchanged(self):
        res = fabricated_result(clustered_then_spread(), [0.9, 0.4, 0.1])
        before = pickle.dumps(res.records)
        for c in (1, 2):
            detect_phases(res, c)
        assert pickle.dumps(res.records) == before

    def test_unowned_class_rejected(self):
        res = fabricated_result(clustered_then_spread(), [0.9, 0.4, 0.1])
        with pytest.raises(ValueError, match="owns no hidden units"):
            detect_phases(res, 3)


def hand_report(timeline):
    """A report for snapshots at t = 0, 5, 10, ..., so a time differs from its index."""
    times = tuple(range(0, 5 * len(timeline), 5))
    return phases.PhaseReport(class_label=1, times=times, gc_timeline=timeline, sum_sq_loss_t1=0.0, sum_sq_loss_t2=0.0)


class TestPhaseReport:
    """The phase sizes, first hold and persistence are read off the timeline."""

    def test_no_hold(self):
        report = hand_report((False, False, False))
        assert report.first_hold is None
        assert (report.t1_size, report.t2_size) == (3, 0)
        assert report.persistence is None

    def test_hold_at_first_snapshot(self):
        report = hand_report((True, True, False))
        assert report.first_hold == 0
        assert (report.t1_size, report.t2_size) == (1, 2)
        assert report.persistence == 2.0 / 3.0

    def test_hold_that_lapses(self):
        report = hand_report((False, True, False, True))
        assert report.first_hold == 5
        assert (report.t1_size, report.t2_size) == (2, 2)
        assert report.persistence == 2.0 / 3.0

    def test_json_keeps_every_key(self):
        out = hand_report((False, True, False, True)).to_json_dict()
        assert list(out) == [
            "class_label",
            "times",
            "gc_timeline",
            "first_hold",
            "t1_size",
            "t2_size",
            "persistence",
            "sum_sq_loss_t1",
            "sum_sq_loss_t2",
        ]
        assert (out["first_hold"], out["t1_size"], out["t2_size"]) == (5, 2, 2)
        assert out["persistence"] == 2.0 / 3.0


def lp_report(result, class_label):
    """Reference: gc_check on every snapshot, the report built from that timeline."""
    cols = result.params.output.owner_columns(class_label)
    timeline = []
    for rec in result.records:
        try:
            ds = DirectionSet.from_weight_matrix(rec.weights, columns=cols)
        except ValueError:
            timeline.append(False)
            continue
        timeline.append(gc_check(ds).verdict == "holds")
    flags = np.array(timeline, dtype=bool)
    losses = np.array([rec.loss_per_class.get(class_label, 0.0) for rec in result.records])
    return phases.PhaseReport(
        class_label=class_label,
        times=tuple(rec.t for rec in result.records),
        gc_timeline=tuple(timeline),
        sum_sq_loss_t1=float((losses[~flags] ** 2).sum()),
        sum_sq_loss_t2=float((losses[flags] ** 2).sum()),
    )


def assert_matches_lp(result, class_label):
    expected = lp_report(result, class_label)
    report = detect_phases(result, class_label)
    assert report == expected
    return report


@pytest.fixture
def lp_calls(monkeypatch):
    """Direction sets detect_phases hands to gc_check (lp_report's calls are not seen)."""
    seen = []

    def recording(ds):
        seen.append(ds.dirs)
        return gc_check(ds)

    monkeypatch.setattr(phases, "gc_check", recording)
    return seen


def arc_owners(angles):
    """Width-6 snapshot whose class-1 owners (columns 0, 2, 4) point at the angles."""
    W = np.zeros((2, 6))
    W[:, 0::2] = np.array([np.cos(angles), np.sin(angles)])
    W[:, 1::2] = 0.2 * np.array([[1.0, -0.5, -0.5], [0.0, math.sqrt(3) / 2, -math.sqrt(3) / 2]])
    return W


class TestBatchTimelineMatchesLp:
    @pytest.mark.parametrize(
        "task, width, init, seeds",
        [
            ("planar-grid", 8, "random", range(4)),
            ("planar-grid", 24, "random", range(2)),
            ("planar-grid", 8, "halfspace", range(2)),
            ("planar-grid", 6, "three-rays", range(1)),
        ],
    )
    def test_planar_runs(self, task, width, init, seeds):
        for seed in seeds:
            spec = RunSpec(task=task, width=width, v=0.5, eta=0.1, max_iters=5000, init=init, seed=seed)
            result, _ = execute_run(spec)
            assert_matches_lp(result, 1)

    def test_subspace_pair_both_classes(self):
        for width in (8, 24):
            spec = RunSpec(
                task="subspace-pair", width=width, v=0.5, eta=0.2, max_iters=150, init="random", seed=1
            )
            result, _ = execute_run(spec)
            assert result.params.d == 4
            for c in (1, 2):
                assert_matches_lp(result, c)

    def test_fabricated_edge_snapshots(self, lp_calls):
        tripod = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
        snaps = [
            arc_owners([0.0, 0.1, -0.1]),  # clustered: fails
            arc_owners(tripod),  # holds
            arc_owners([0.0, math.pi / 2, math.pi + 1e-8]),  # gap pi - 1e-8: LP margin > tol
            arc_owners([0.0, math.pi / 2, math.pi + 1e-10]),  # gap pi - 1e-10: LP degenerate
            arc_owners([0.0, math.pi / 2, math.pi]),  # max gap exactly pi: degenerate
            arc_owners(tripod),
            arc_owners(tripod),
            arc_owners([0.0, 0.0, math.pi]),  # shared ray
        ]
        snaps[5][:, 0] = 0.0  # one owner column dropped
        snaps[6][:, 0::2] = 0.0  # every owner column zero
        res = fabricated_result(snaps, [0.5] * len(snaps))
        report = assert_matches_lp(res, 1)
        assert report.gc_timeline == (False, True, True, False, False, False, False, False)

        def sent_to_lp(i):
            cols = res.params.output.owner_columns(1)
            dirs = DirectionSet.from_weight_matrix(snaps[i], columns=cols).dirs
            return any(seen.shape == dirs.shape and np.array_equal(seen, dirs) for seen in lp_calls)

        # both near-pi gaps sit inside the band, so their verdict is the LP's
        assert sent_to_lp(2) and sent_to_lp(3)
        assert sent_to_lp(4) and sent_to_lp(5)

    def test_at_most_d_owners_needs_no_lp_after_snapshot_zero(self, lp_calls):
        # class 1 owns columns 0 and 2, antipodal: the LP calls that degenerate
        k2 = [np.array([[1.0, 0.0, -1.0, 0.5], [0.0, 1.0, 0.0, -1.0]]) * s for s in (1.0, -1.0, 2.0)]
        res = fabricated_result(k2, [0.5, 0.4, 0.3])
        assert assert_matches_lp(res, 1).gc_timeline == (False, False, False)
        assert len(lp_calls) == 1

    def test_disagreeing_check_recomputes_the_whole_timeline(self, monkeypatch):
        calls = []

        def never_holds(ds):
            calls.append(ds)
            return GcCertificate(verdict="fails", margin=None)

        monkeypatch.setattr(phases, "gc_check", never_holds)
        res = fabricated_result(clustered_then_spread(), [0.9, 0.4, 0.1])
        report = detect_phases(res, 1)
        # the flip at snapshot 1 is checked, disagrees, and every snapshot is redone
        assert report.gc_timeline == (False, False, False)
        assert len(calls) == 2 + 3


class TestNormViolationDetectors:
    def test_owner_decrease_flagged(self):
        norms = np.array([[1.0, 5.0], [0.9, 5.0], [1.1, 5.0]])
        out = owner_norm_violations(norms, [0, 1, 2], [0])
        assert len(out) == 1
        v = out[0]
        assert (v.t_from, v.t_to, v.unit, v.kind) == (0, 1, 0, "owner_decrease")
        assert v.delta == pytest.approx(-0.1)

    def test_owner_tolerance(self):
        norms = np.array([[1.0], [1.0 - 1e-14]])
        assert owner_norm_violations(norms, [0, 1], [0]) == []

    def test_nonowner_growth_above_radius_flagged(self):
        norms = np.array([[0.5, 2.0], [0.6, 2.5]])
        out = nonowner_norm_violations(norms, [0, 1], [0, 1], r=1.0)
        assert len(out) == 1
        assert out[0].unit == 1
        assert out[0].kind == "nonowner_increase"
        assert out[0].delta == pytest.approx(0.5)

    def test_nonowner_growth_below_radius_ignored(self):
        norms = np.array([[0.5], [5.0]])
        assert nonowner_norm_violations(norms, [0, 1], [0], r=1.0) == []


def loop_owner_violations(norms, times, cols, tol=1e-12):
    """Reference: the double loop over steps and owner units."""
    out = []
    for a in range(len(times) - 1):
        for j in cols:
            delta = norms[a + 1, j] - norms[a, j]
            if delta < -tol:
                out.append(NormViolation(int(times[a]), int(times[a + 1]), int(j), "owner_decrease", float(delta)))
    return out


def loop_nonowner_violations(norms, times, cols, r, tol=1e-12):
    """Reference: the double loop over steps and non-owner units."""
    out = []
    for a in range(len(times) - 1):
        for j in cols:
            if norms[a, j] > r and norms[a + 1, j] - norms[a, j] > tol:
                out.append(
                    NormViolation(
                        int(times[a]), int(times[a + 1]), int(j), "nonowner_increase",
                        float(norms[a + 1, j] - norms[a, j]),
                    )
                )
    return out


class TestNormViolationScan:
    # Exact ties, steps of exactly +-1e-12 (0 <-> 1e-12 <-> 2e-12, both
    # exact in binary) and large steps, on either side of each radius.
    POOL = np.array([0.0, 1e-12, 2e-12, 0.5, 1.0, 1.0 + 1e-12, 3.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        T, k = 12, 7
        norms = self.POOL[rng.integers(0, self.POOL.size, size=(T, k))]
        times = np.cumsum(rng.integers(1, 4, size=T))
        cols = np.sort(rng.choice(k, size=4, replace=False))
        norms[0:3, cols[0]] = (0.0, 1e-12, 0.0)  # +tol then -tol
        norms[3:6, cols[1]] = (2e-12, 1e-12, 1e-12)  # -tol then a tie
        steps = np.diff(norms[:, cols], axis=0)
        assert np.any(steps == 0.0) and np.any(np.abs(steps) == 1e-12)
        assert owner_norm_violations(norms, times, cols) == loop_owner_violations(norms, times, cols)
        for r in (0.0, 1e-12, 0.5, 1.0):
            got = nonowner_norm_violations(norms, times, list(cols), r)
            assert got == loop_nonowner_violations(norms, times, cols, r)

    def test_no_steps_or_no_units(self):
        norms = np.ones((1, 3))
        assert owner_norm_violations(norms, [0], [0, 1]) == []
        assert nonowner_norm_violations(np.ones((4, 3)), [0, 1, 2, 3], [], 0.5) == []


class TestMonotonicityAudit:
    def planar_run(self, eta=0.05):
        rng = Rng(13)
        X = np.vstack([rng.normal((12, 2)) + np.array([2.0, 0.0])])
        data = LabeledDataset(X, np.ones(12, dtype=int))
        params = network_params(rng.normal((2, 4)), build_output_map(2, 4, 0.5))
        return train(params, data, TrainConfig(eta=eta, max_iters=60))

    def test_clean_run_has_no_owner_violations(self):
        res = self.planar_run()
        assert monotonicity_audit(res, 1) == []

    def test_bias_mode_rejected(self):
        rng = Rng(13)
        data = LabeledDataset(rng.normal((6, 2)) + 2.0, np.ones(6, dtype=int))
        params = network_params(rng.normal((2, 4)), build_output_map(2, 4, 0.5), np.full(4, 0.1))
        res = train(params, data, TrainConfig(eta=0.05, max_iters=5))
        with pytest.raises(ValueError, match="no-bias"):
            monotonicity_audit(res, 1)

    def test_wrong_train_classes_rejected(self):
        res = self.planar_run()
        with pytest.raises(ValueError, match="train classes"):
            monotonicity_audit(res, 2)

    def test_nonowner_checks_gated_by_step_threshold(self):
        res = self.planar_run()
        # fabricate a non-owner increase above the radius and confirm the
        # audit only sees it when the step size is below the step threshold
        nonowner = int(np.flatnonzero(res.params.output.owner != 1)[0])
        res.records.neuron_norms[0, nonowner] = 2.0
        res.records.neuron_norms[1, nonowner] = 3.0
        bi = toy_inputs(eta=res.config.eta, data_max=2.0)
        r = 1.0
        assert res.config.eta < monotonicity_step_threshold(r, bi)
        flagged = monotonicity_audit(res, 1, r=r, bounds=bi)
        assert any(v.kind == "nonowner_increase" and v.unit == nonowner for v in flagged)
        # same run audited without bound inputs makes no non-owner claim
        assert all(v.kind != "nonowner_increase" for v in monotonicity_audit(res, 1))
        # a threshold-violating step size disables the non-owner check too
        tight = toy_inputs(eta=res.config.eta, data_max=100.0, density_max=100.0)
        assert res.config.eta >= monotonicity_step_threshold(r, tight)
        assert all(
            v.kind != "nonowner_increase" for v in monotonicity_audit(res, 1, r=r, bounds=tight)
        )
