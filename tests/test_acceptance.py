"""End-to-end acceptance checks for the package.

Each test covers one numbered behavioural guarantee and prints a single
``ACCEPTANCE NN PASS/FAIL`` line before asserting, so a full run doubles as a
checklist.  Run with ``pytest tests/test_acceptance.py -s`` to watch the lines
go by; without ``-s`` pytest captures them and shows them only on failure.

The heavy fixtures (the 100-seed planar campaign, the width sweep, the angle
sweep) are session scoped and shared by every criterion that consumes them.
Each trains its runs in one ``map_runs`` batch on every CPU; the whole file
takes under a minute on one core.
"""
from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from reluphase import (
    AnnulusDistribution,
    BoundInputs,
    DirectionSet,
    GridDatasetSpec,
    LabeledDataset,
    Rng,
    TrainConfig,
    build_output_map,
    construct_zero_loss,
    critical_point_audit,
    dataset_loss,
    detect_phases,
    directional_derivative_fd,
    gc_check,
    gc_check_2d,
    gc_probability,
    gc_probability_mc,
    grid_dataset_planar,
    init_random,
    lipschitz_estimate,
    make_subspace_pair,
    monotonicity_audit,
    network_params,
    owner_norm_violations,
    phase2_sum_bound,
    sample_annulus,
    subgradient,
    t1_bound,
    train,
    verify_certificate,
)
from reluphase.experiments import (
    LIPSCHITZ_FROZEN_MAX,
    RunSpec,
    build_task,
    execute_run,
    map_runs,
    run_command,
)

SWEEP_ANGLES = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)

# frozen acceptance bands for the random-init mean iteration counts per width
WIDTH_MEAN_BANDS = {6: (289.45, 868.35), 12: (121.36, 364.08), 24: (41.465, 124.395)}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# shared training campaigns, each one map_runs batch on every CPU


def _planar_spec(seed: int, width: int = 8, init: str = "random") -> RunSpec:
    return RunSpec(task="planar-grid", width=width, v=0.5, eta=0.1, max_iters=5000, init=init, seed=seed)


def _crit3_worker(spec):
    result, data = execute_run(spec)
    return {
        "stop_reason": result.stop_reason,
        "converged_at": result.converged_at,
        "final_loss": result.records[-1].loss,
        "phase": detect_phases(result, 1),
        "audit": critical_point_audit(result.params, data),
        "owner_violations": len(monotonicity_audit(result, 1)),
    }


def _width_worker(spec):
    result, _ = execute_run(spec)
    return result.stop_reason, result.converged_at, len(monotonicity_audit(result, 1))


def _angle_worker(spec):
    """A run's stop reason and converged_at; for a run that records every
    iteration, also the owner-norm decreases inside each class's own subspace."""
    result, _ = execute_run(spec)
    entry = {"stop_reason": result.stop_reason, "converged_at": result.converged_at}
    if spec.record_every == 1:
        pair = make_subspace_pair(spec.theta)
        times = result.records.t
        total = 0
        for label in (1, 2):
            basis = pair.basis(label)
            cols = result.params.output.owner_columns(label)
            projected = np.array([np.linalg.norm(basis.T @ W, axis=0) for W in result.records.weights])
            total += len(owner_norm_violations(projected, times, cols))
        entry["projected_violations"] = total
    return entry


@pytest.fixture(scope="session")
def crit3_runs():
    """100 seeded planar runs: width 8, eta 0.1, random init, class-1 grid."""
    return map_runs(_crit3_worker, [_planar_spec(seed) for seed in range(100)], os.cpu_count() or 1)


@pytest.fixture(scope="session")
def width_cells():
    """Width sweep {6, 12, 24} x {random, halfspace} x 100 seeds on the planar task."""
    keys = [(width, init) for width in (6, 12, 24) for init in ("random", "halfspace")]
    specs = [_planar_spec(seed, width, init) for width, init in keys for seed in range(100)]
    runs = map_runs(_width_worker, specs, os.cpu_count() or 1)
    cells = {}
    for i, key in enumerate(keys):
        cell = runs[100 * i : 100 * (i + 1)]
        iters = [at for reason, at, _ in cell if reason == "converged"]
        cells[key] = {
            "mean": float(np.mean(iters)) if iters else math.nan,
            "violations": sum(count for *_, count in cell),
        }
    return cells


@pytest.fixture(scope="session")
def angle_runs():
    """Joint two-class runs over the four swept subspace angles, 20 seeds each.

    For the orthogonal angle every iteration is recorded so owner norms can
    be audited inside each class's own subspace; the other angles record only
    the endpoints.
    """
    specs = [
        RunSpec(
            task="subspace-pair",
            width=8,
            v=0.5,
            eta=0.2,
            max_iters=20000,
            init="random",
            seed=seed,
            theta=theta,
            record_every=1 if theta == math.pi / 2 else 20000,
        )
        for theta in SWEEP_ANGLES
        for seed in range(20)
    ]
    runs = map_runs(_angle_worker, specs, os.cpu_count() or 1)
    return {theta: runs[20 * i : 20 * (i + 1)] for i, theta in enumerate(SWEEP_ANGLES)}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_probability_formula_and_mc():
    t0 = time.monotonic()
    exact_ok = (
        gc_probability(2, 4) == 0.5
        and gc_probability(2, 3) == 0.25
        and all(gc_probability(d, d) == 0.0 for d in (1, 2, 3, 4, 7))
    )
    cells = ((2, 3), (2, 4), (3, 5), (4, 8))
    mc_ok = True
    worst = 0.0
    for i, (d, k) in enumerate(cells):
        est, se = gc_probability_mc(d, k, 100_000, Rng(1000 + i))
        err = abs(est - gc_probability(d, k))
        mc_ok = mc_ok and err <= 3.0 * se
        worst = max(worst, err / se if se > 0 else math.inf)
    elapsed = time.monotonic() - t0
    ok = exact_ok and mc_ok and elapsed < 30.0
    _report(
        1,
        ok,
        f"closed form exact, 4 MC cells at 1e5 trials within 3 se "
        f"(worst err/se {worst:.2f}), {elapsed:.1f}s < 30s",
    )


def test_criterion_02_planar_oracle_agreement():
    t0 = time.monotonic()
    rng = Rng(777)
    checked = holds = degenerate = 0
    agree = certs_ok = True
    for i in range(1000):
        k = 3 + i % 6
        dirs = rng.normal((k, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ds = DirectionSet(dirs)
        lp = gc_check(ds)
        oracle = gc_check_2d(ds)
        if lp.verdict == "degenerate" or oracle.verdict == "degenerate":
            degenerate += 1
            continue
        checked += 1
        agree = agree and lp.verdict == oracle.verdict
        certs_ok = certs_ok and verify_certificate(ds, lp) and verify_certificate(ds, oracle)
        holds += lp.verdict == "holds"
    elapsed = time.monotonic() - t0
    ok = agree and certs_ok and checked >= 990 and 0 < holds < checked and elapsed < 10.0
    _report(
        2,
        ok,
        f"{checked} non-degenerate planar sets agree ({holds} hold, "
        f"{degenerate} degenerate), all certificates verified, {elapsed:.1f}s < 10s",
    )


def test_criterion_03_planar_convergence_rate(crit3_runs):
    converged = [
        s
        for s in crit3_runs
        if s["stop_reason"] == "converged" and s["final_loss"] == 0.0
    ]
    mean_iters = float(np.mean([s["converged_at"] for s in converged]))
    ok = len(converged) >= 95
    _report(
        3,
        ok,
        f"{len(converged)}/100 planar runs hit exactly zero loss within 5000 "
        f"iterations (mean {mean_iters:.1f})",
    )


def test_criterion_04_width_sweep_orderings(width_cells):
    random_means = {w: width_cells[w, "random"]["mean"] for w in (6, 12, 24)}
    half_means = {w: width_cells[w, "halfspace"]["mean"] for w in (6, 12, 24)}
    decreasing = random_means[6] > random_means[12] > random_means[24]
    random_faster = all(random_means[w] < half_means[w] for w in (6, 12, 24))
    in_band = all(
        WIDTH_MEAN_BANDS[w][0] <= random_means[w] <= WIDTH_MEAN_BANDS[w][1]
        for w in (6, 12, 24)
    )
    ok = decreasing and random_faster and in_band
    detail = ", ".join(
        f"w{w}: random {random_means[w]:.1f} vs halfspace {half_means[w]:.1f}"
        for w in (6, 12, 24)
    )
    _report(4, ok, f"means strictly decreasing, random < halfspace, in band ({detail})")


def test_criterion_05_angle_sweep(angle_runs):
    means = {}
    all_converged = True
    for theta in SWEEP_ANGLES:
        entries = angle_runs[theta]
        all_converged = all_converged and all(
            e["stop_reason"] == "converged" for e in entries
        )
        means[theta] = float(np.mean([e["converged_at"] for e in entries]))
    ordered = means[math.pi / 2] <= means[math.pi / 6]
    ok = all_converged and ordered
    _report(
        5,
        ok,
        f"all 80 joint runs converged; mean iterations pi/2 {means[math.pi / 2]:.1f} "
        f"<= pi/6 {means[math.pi / 6]:.1f}",
    )


def test_criterion_06_owner_norm_monotonicity(crit3_runs, width_cells, angle_runs):
    planar = sum(s["owner_violations"] for s in crit3_runs)
    sweep = sum(cell["violations"] for cell in width_cells.values())
    projected = sum(
        e["projected_violations"] for e in angle_runs[math.pi / 2]
    )
    ok = planar == 0 and sweep == 0 and projected == 0
    _report(
        6,
        ok,
        f"owner-norm decreases at tol 1e-12: planar {planar}, width sweep {sweep}, "
        f"orthogonal-angle projected {projected} (all must be 0)",
    )


def test_criterion_07_orthogonal_class_decoupling():
    data = build_task("subspace-pair", math.pi / 2, 0.0, None)
    class1, class2 = data.subset([1]), data.subset([2])
    output = build_output_map(8, 0.5)
    rng = Rng(4242)
    worst = 0.0
    for _ in range(100):
        params = network_params(rng.normal((4, 8)), output)
        before = dataset_loss(params, class2)
        # One descent step on class 1 alone: W - eta * subgradient.
        stepped = params.with_weights(params.weights - 0.1 * subgradient(params, class1))
        worst = max(worst, abs(dataset_loss(stepped, class2) - before))
    ok = worst < 1e-12
    _report(
        7,
        ok,
        f"class-1 steps moved class-2 loss by at most {worst:.3e} < 1e-12 "
        f"over 100 random states",
    )


def test_criterion_08_phase_structure_and_bounds(crit3_runs):
    converged = [s for s in crit3_runs if s["stop_reason"] == "converged"]
    hold_ok = all(s["phase"].first_hold is not None for s in converged)
    persistence_ok = all(s["phase"].persistence >= 0.95 for s in converged)
    sums_ok = all(math.isfinite(s["phase"].sum_sq_loss_t2) for s in crit3_runs)

    # theory task: uniform annulus with known density feeds the calculators,
    # the measured norm ceiling plays the boundedness constant
    dist = AnnulusDistribution(2, 1.0, 2.0)
    data = sample_annulus(dist, 400, Rng(31), label=1)
    result = train(
        network_params(init_random(2, 8, Rng(31).child(0)), build_output_map(8, 0.5)),
        data,
        TrainConfig(eta=0.1, max_iters=5000),
    )
    phase = detect_phases(result, 1)
    density = dist.density()
    bounds = BoundInputs(
        v=0.5,
        eta=0.1,
        radius=result.max_weight_norm,
        data_min=1.0,
        data_max=2.0,
        density_min=density,
        density_max=density,
        subspace_dim=2,
        n_classes=2,
    )
    t1 = t1_bound(bounds)
    budget = phase2_sum_bound(bounds)
    bounds_finite = math.isfinite(t1) and math.isfinite(budget) and t1 > 0 and budget > 0
    # Each bound must hold on the annulus run; the slow-phase bound once the condition has held.
    t1_ok = phase.first_hold is None or t1 >= phase.t1_size
    budget_ok = budget >= phase.sum_sq_loss_t2
    ok = hold_ok and persistence_ok and sums_ok and bounds_finite and t1_ok and budget_ok

    def ratio(bound, measured):
        return f"{bound / measured:.3g}" if measured else "inf"

    _report(
        8,
        ok,
        f"{len(converged)} converged runs all reach a holding record with "
        f"persistence >= 0.95; annulus run: measured radius "
        f"{result.max_weight_norm:.2f}, slow-phase bound {t1:.1f} vs measured "
        f"{phase.t1_size} (ratio {ratio(t1, phase.t1_size)}), fast-phase budget {budget:.1f} vs measured "
        f"{phase.sum_sq_loss_t2:.3f} (ratio {ratio(budget, phase.sum_sq_loss_t2)})",
    )


def test_criterion_09_constructed_and_reached_minima(crit3_runs):
    output = build_output_map(8, 0.5)
    dist = AnnulusDistribution(2, 1.0, 2.0)
    built_ok = True
    for label in (1, 2):
        W = construct_zero_loss(output, label, 2, 1.0)
        params = network_params(W, output)
        sample = sample_annulus(dist, 300, Rng(7 + label), label=label)
        built_ok = built_ok and dataset_loss(params, sample) == 0.0
        built_ok = built_ok and not np.any(subgradient(params, sample))
    flagged = [
        s
        for s in crit3_runs
        if s["audit"].grad_norm < 1e-8
        and s["audit"].nonzero_output_witness is not None
    ]
    trained_ok = bool(flagged) and all(s["audit"].loss < 1e-8 for s in flagged)
    ok = built_ok and trained_ok
    _report(
        9,
        ok,
        f"constructed states: loss and subgradient exactly zero for both classes; "
        f"{len(flagged)} trained near-critical states all have loss < 1e-8",
    )


def _first_linear_break(params, data, direction):
    """Smallest positive t where loss(W + t * direction) can leave its current
    linear piece: the nearest ReLU activation crossing or hinge margin crossing."""
    X = data.X
    H = X @ params.weights - params.biases
    dH = X @ direction
    best = math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        t_relu = -H / dH
    positive = t_relu[np.isfinite(t_relu) & (t_relu > 0.0)]
    if positive.size:
        best = min(best, float(positive.min()))
    mask = H > 0.0
    values = params.output.values
    F = (H * mask) @ values.T
    dF = (dH * mask) @ values.T
    y0 = data.y - 1
    rows = np.arange(X.shape[0])
    margins = 1.0 - F[rows, y0][:, None] + F
    slopes = -dF[rows, y0][:, None] + dF
    margins[rows, y0] = 1.0
    slopes[rows, y0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_margin = -margins / slopes
    positive = t_margin[np.isfinite(t_margin) & (t_margin > 0.0)]
    if positive.size:
        best = min(best, float(positive.min()))
    return best


def test_criterion_10_finite_difference_consistency():
    tasks = {
        "planar-grid": build_task("planar-grid", math.pi / 2, 0.0, None),
        "subspace-pair": build_task("subspace-pair", math.pi / 2, 0.0, None),
    }
    output = build_output_map(8, 0.5)
    central_worst = {}
    one_sided_worst = {}
    counts_ok = True
    h = 1e-6
    for name, data in tasks.items():
        rng = Rng(2025)
        checked = 0
        draws = 0
        worst = 0.0
        while checked < 100 and draws < 500:
            draws += 1
            params = network_params(rng.normal((data.dim, 8)), output)
            direction = rng.normal((data.dim, 8))
            direction /= np.linalg.norm(direction)
            near_kink = min(
                _first_linear_break(params, data, direction),
                _first_linear_break(params, data, -direction),
            )
            if near_kink <= 4.0 * h:
                continue
            slope = float((subgradient(params, data) * direction).sum())
            if abs(slope) < 1e-2:
                continue
            fd = directional_derivative_fd(params, data, direction, h)
            worst = max(worst, abs(fd - slope) / abs(slope))
            checked += 1
        counts_ok = counts_ok and checked == 100
        central_worst[name] = worst

        # one-sided probe inside a single linear piece; a thinned dataset keeps
        # the pieces long enough to measure cleanly
        small = LabeledDataset(data.X[::15].copy(), data.y[::15].copy())
        checked = 0
        worst = 0.0
        while checked < 20 and draws < 1200:
            draws += 1
            params = network_params(rng.normal((data.dim, 8)), output)
            direction = rng.normal((data.dim, 8))
            direction /= np.linalg.norm(direction)
            t_break = _first_linear_break(params, small, direction)
            if not math.isfinite(t_break) or t_break < 1.2e-3:
                continue
            slope = float((subgradient(params, small) * direction).sum())
            if abs(slope) < 0.1:
                continue
            step = min(1e-3, 0.45 * t_break)
            shifted = network_params(params.weights + step * direction, output)
            fd = (dataset_loss(shifted, small) - dataset_loss(params, small)) / step
            worst = max(worst, abs(fd - slope) / abs(slope))
            checked += 1
        counts_ok = counts_ok and checked == 20
        one_sided_worst[name] = worst
    central_ok = all(w < 1e-4 for w in central_worst.values())
    one_sided_ok = all(w < 1e-10 for w in one_sided_worst.values())
    ok = counts_ok and central_ok and one_sided_ok
    _report(
        10,
        ok,
        f"central h=1e-6 worst rel err "
        + ", ".join(f"{n} {w:.2e}" for n, w in central_worst.items())
        + " (< 1e-4); one-sided within a piece worst "
        + ", ".join(f"{n} {w:.2e}" for n, w in one_sided_worst.items())
        + " (< 1e-10)",
    )


def test_criterion_11_lipschitz_ceiling():
    output = build_output_map(8, 0.5)
    bias_arr = np.full(8, 0.4 / 8)
    data = grid_dataset_planar(GridDatasetSpec())

    def sampler(r: Rng, count: int):
        return r.normal_draws(count, (2, 8))

    report = lipschitz_estimate(sampler, output, bias_arr, data, 10_000, Rng(0).child(99))

    with pytest.raises(ValueError, match="no-bias"):
        lipschitz_estimate(sampler, output, np.zeros(8), data, 4, Rng(1))
    ok = (
        math.isfinite(report.max_ratio)
        and report.pairs_used == 10_000
        and report.max_ratio < LIPSCHITZ_FROZEN_MAX
    )
    _report(
        11,
        ok,
        f"10000 weight pairs, max ratio {report.max_ratio:.4f} < frozen ceiling "
        f"{LIPSCHITZ_FROZEN_MAX}; no-bias sampler refused",
    )


REPLAY_CONFIGS = {
    "train": {"width": 6, "max_iters": 60, "seed": 3},
    "sweep-width": {"widths": [6], "inits": ["random"], "runs": 2, "max_iters": 2500},
    "sweep-angle": {"angles": [math.pi / 2], "runs": 1, "max_iters": 20000},
    "norm-hist": {"runs": 3, "bins": 6, "max_iters": 1500, "width": 6},
    "gc-prob": {"cells": [[2, 3]], "trials": 2000, "seed": 5},
    "trace-dynamics": {"snapshots": [0, 5], "max_iters": 30, "rho_samples": 64},
    "landscape-audit": {
        "width": 6,
        "samples_per_class": 60,
        "audit_runs": 1,
        "max_iters": 2500,
        "pairs": 50,
    },
}


def _read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_12_byte_identical_replays(tmp_path):
    mismatches = []
    total_files = 0
    for name, cfg in REPLAY_CONFIGS.items():
        dir_a = tmp_path / f"{name}-a"
        dir_b = tmp_path / f"{name}-b"
        summary_a = run_command(name, dict(cfg), str(dir_a))
        summary_b = run_command(name, dict(cfg), str(dir_b))
        tree_a = _read_tree(dir_a)
        tree_b = _read_tree(dir_b)
        total_files += len(tree_a)
        if summary_a != summary_b:
            mismatches.append(f"{name}: summaries differ")
        if sorted(tree_a) != sorted(tree_b):
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in tree_a:
            if tree_a[fname] != tree_b[fname]:
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches and total_files > 0
    _report(
        12,
        ok,
        f"all 7 commands replayed byte-identically across {total_files} output files"
        + ("" if not mismatches else f"; mismatches: {mismatches}"),
    )
