"""The three benchmark workloads, each a series of CLI command calls.

A workload is a generator of ``(command, config)`` pairs built from a base
seed.  It may read the runs recorded so far to decide its next call, so a
pass can stop at a fixed amount of work whatever the seed.  Every call goes
through ``reluphase.experiments.run_command`` with ``threads`` left at 1,
exactly as the CLI would make it.

planar-campaign
    ``train`` on consecutive seeds of planar-grid with every default (width
    8, eta 0.1, random init, a record and a snapshot every iteration, phases
    detected, the critical point audited, trajectory CSV/JSON/SVG written),
    until the pass has done ``iterations`` subgradient iterations.  The last
    run's ``max_iters`` is cut to what remains, so every pass does the same
    number of iterations and its time does not depend on the seed.
train-sweep
    ``sweep-width`` over widths 6, 14 and 24 with both inits, in calls on
    consecutive blocks of seeds, then ``sweep-angle`` on subspace-pair, one
    call for each of its four default angles.  Each run records once.
    ``max_iters`` sits below the typical time to zero loss, so nearly every
    run does the same number of iterations.
landscape-mc
    ``landscape-audit`` on consecutive seeds (one trained audit run in the
    first call, then many Lipschitz weight pairs in each), and ``gc-prob`` with one call for each of
    its four default cells.

Every call takes at most about a second, so the calibration unit run
between calls follows the host's speed closely (see calibrate.py).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from time import perf_counter

import calibrate

SIZES = {
    "full": {
        "planar-campaign": {"iterations": 2500},
        # 2 * 5 * 6 + 4 * 10 = 100 runs, so a pass reports run_ms_p90 with ten
        # runs beyond it.  Width 24 with random init converges in ~80
        # iterations, so a sweep-width call always has a converged run to
        # summarize.
        "train-sweep": {
            "width_calls": 2, "width_runs": 5, "width_max_iters": 100, "angle_runs": 10, "angle_max_iters": 60,
        },
        "landscape-mc": {"audit_calls": 4, "pairs": 1250, "audit_runs": 1, "trials": 30000},
    },
    "tiny": {
        "planar-campaign": {"iterations": 60},
        "train-sweep": {
            "width_calls": 1, "width_runs": 1, "width_max_iters": 300, "angle_runs": 1, "angle_max_iters": 20,
        },
        "landscape-mc": {"audit_calls": 1, "pairs": 50, "audit_runs": 1, "trials": 500},
    },
}

TRAIN_MAX_ITERS = 5000  # the train command's default
SWEEP_ANGLES = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)  # sweep-angle's defaults
GC_CELLS = ((2, 3), (2, 4), (3, 5), (4, 8))  # gc-prob's defaults


def planar_campaign(base: int, size: dict, runs: list):
    budget = size["iterations"]
    done = 0
    seed = base
    while done < budget:
        yield "train", {"seed": seed, "max_iters": min(TRAIN_MAX_ITERS, budget - done)}
        # A dead start does no iteration; count it as one so the loop ends.
        done += max(1, runs[-1].t)
        seed += 1


def train_sweep(base: int, size: dict, runs: list):
    for block in range(size["width_calls"]):
        yield "sweep-width", {
            "widths": [6, 14, 24],
            "inits": ["random", "halfspace"],
            "runs": size["width_runs"],
            "max_iters": size["width_max_iters"],
            "seed_base": base + block * size["width_runs"],
        }
    for angle in SWEEP_ANGLES:
        yield "sweep-angle", {
            "angles": [angle],
            "runs": size["angle_runs"],
            "max_iters": size["angle_max_iters"],
            "seed_base": base,
        }


def landscape_mc(base: int, size: dict, runs: list):
    # Only the first call trains audit runs: their length depends on the seed,
    # the Lipschitz pairs' does not.
    for block in range(size["audit_calls"]):
        audit_runs = size["audit_runs"] if block == 0 else 0
        yield "landscape-audit", {"pairs": size["pairs"], "audit_runs": audit_runs, "seed": base + block}
    for cell in GC_CELLS:
        yield "gc-prob", {"cells": [list(cell)], "trials": size["trials"], "seed": base}


WORKLOADS = {
    "planar-campaign": planar_campaign,
    "train-sweep": train_sweep,
    "landscape-mc": landscape_mc,
}


def base_seed(seed: int) -> int:
    """Disjoint blocks of 1000 run seeds for different workload seeds."""
    return (seed % 1_000_000) * 1000


def _semantic(command: str, returned: dict, out: str) -> dict:
    """The results a call is judged by, independent of output formatting."""
    if command == "train":
        return {key: returned[key] for key in ("stop_reason", "converged_at", "first_hold")}
    if command == "sweep-width":
        return {"means": returned["means"]}
    if command == "sweep-angle":
        return {"mean_iterations": returned["mean_iterations"]}
    if command == "landscape-audit":
        return {"lipschitz_max_ratio": returned["lipschitz_max_ratio"]}
    if command == "gc-prob":
        with open(os.path.join(out, "gc_prob.json")) as fh:
            cells = json.load(fh)
        return {"estimates": {cell: body["estimate"] for cell, body in cells.items()}}
    raise ValueError(f"no semantic result defined for {command!r}")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(workload: str, seed: int, size: str, call, runs: list, out_root: str) -> dict:
    """Run one pass; ``call`` is run_command, possibly traced.

    The calibration unit runs before the first call and after each call,
    outside the timed calls; ``wall_ref_s`` sums each call's time rescaled
    by the mean of the units on either side of it (see calibrate.py).

    Returns the per-call timings, the runs, the pass-level end-to-end
    metrics and the digest of the semantic results.
    """
    calls = []
    units = [calibrate.unit_seconds()]
    semantic = []
    run_latencies_ms = []
    snapshots = 0
    pairs = pairs_s = mc_sets = mc_s = 0
    first_run = len(runs)
    for index, (command, config) in enumerate(WORKLOADS[workload](base_seed(seed), SIZES[size][workload], runs)):
        out = os.path.join(out_root, f"{index:04d}-{command}")
        before = len(runs)
        t0 = perf_counter()
        returned = call(command, config, out)
        seconds = perf_counter() - t0
        units.append(calibrate.unit_seconds())
        calls.append({"command": command, "config": config, "seconds": seconds,
                      "scale": calibrate.REFERENCE_S / (0.5 * (units[-2] + units[-1]))})
        semantic.append({"command": command, **_semantic(command, returned, out)})
        if command == "train":
            run_latencies_ms.append(1e3 * seconds)
            snapshots += sum(r.records for r in runs[before:])
        else:
            run_latencies_ms.extend(1e3 * r.seconds for r in runs[before:])
        if command == "landscape-audit":
            pairs += config["pairs"]
            pairs_s += seconds
        if command == "gc-prob":
            mc_sets += config["trials"] * len(semantic[-1]["estimates"])
            mc_s += seconds
    pass_runs = runs[first_run:]
    wall = sum(c["seconds"] for c in calls)
    iterations = sum(r.t for r in pass_runs)
    metrics = {
        "wall_s": wall,
        "wall_ref_s": sum(c["seconds"] * c["scale"] for c in calls),
        "runs_per_s": len(pass_runs) / wall if pass_runs else None,
        "iters_per_s": iterations / wall if pass_runs else None,
        "snapshots_per_s": snapshots / wall if snapshots else None,
        "pairs_per_s": pairs / pairs_s if pairs else None,
        "mc_sets_per_s": mc_sets / mc_s if mc_sets else None,
        "run_ms_p50": statistics.median(run_latencies_ms) if run_latencies_ms else None,
        "run_ms_p90": (
            statistics.quantiles(run_latencies_ms, n=10)[-1] if len(run_latencies_ms) >= 100 else None
        ),
    }
    payload = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "calls": semantic,
        "runs": [[r.seed, r.stop_reason, r.converged_at] for r in pass_runs],
    }
    return {
        "metrics": {k: v for k, v in metrics.items() if v is not None},
        "calls": calls,
        "runs": len(pass_runs),
        "run_samples": len(run_latencies_ms),
        "iterations": iterations,
        "snapshots": snapshots,
        "calibration_s": units,
        "digest": digest(payload),
    }
