"""Semantic results across OpenBLAS kernels.

Bytes repeat for one numpy and BLAS build running one BLAS kernel: the loss
kernel's matrix products go through BLAS, and kernels differ in FMA use and
summation order, so trajectory digits differ in their last places.  What must
hold under every kernel is what the lab reports: stop reasons,
``converged_at``, ``first_hold``, sweep statistics and gc-prob estimates.
Within one kernel, the loss kernel's bytes must also equal the oracle's in
both operand forms: the scaled form is exact because scaling a sum by a
power of two commutes with rounding in whatever order the kernel sums, and
every entry of the product form's right operand is the oracle's.
Each kernel runs in a child process whose environment alone sets
``OPENBLAS_CORETYPE``, which a DYNAMIC_ARCH OpenBLAS reads once at load.
"""
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import reluphase
from reluphase import GridDatasetSpec, OutputMap, Rng, build_output_map, grid_dataset_planar, lipschitz_estimate
from reluphase.experiments import run_command
from reluphase.losses import KernelWorkspace, batch_loss_grad
from openblas_core import blas_corename
from test_landscape import CHUNK, DRAW, pairwise_lipschitz
from test_losses import reference_batch_loss_grad, task_arrays

# Candidate kernels, newest first.  A CPU that cannot run one makes OpenBLAS
# fall back to another, which the child reports.
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem")

_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from openblas_core import blas_corename
from test_blas_kernels import semantic_results
print(json.dumps({"kernel": blas_corename(), "results": semantic_results(sys.argv[2])}))
"""


def _table(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def kernel_mismatches() -> dict:
    """Per task and operand form, the steps of a short two-class descent where kernel and oracle bytes differ.

    The product form runs at v = 0.7 and 1.5, and each form also with units
    owned in no round-robin order.
    """
    found = {}
    owner = np.array([2, 1, 1, 2, 1, 2, 2, 1])
    for task in ("planar-grid", "subspace-pair"):
        for form, v, owners in (
            ("scaled", 0.5, False),
            ("product", 0.7, False),
            ("product", 1.5, False),
            ("scaled", 0.5, True),
            ("product", 0.7, True),
        ):
            W, b, values, X, y0, rows = task_arrays(task, 8, 0.05, v=v)
            if owners:
                values = OutputMap(owner=owner, v=v).values
            ws = KernelWorkspace(values, X, y0, b)
            key = f"{task}-{form}-v{v}" + ("-owners" if owners else "")
            steps = found[key] = [] if ws.scaled is (form == "scaled") else ["other form"]
            for step in range(40):
                want = reference_batch_loss_grad(W, b, values, X, y0, rows)
                got = batch_loss_grad(W, b, values, X, y0, rows, ws)
                if any(np.asarray(g).tobytes() != np.asarray(w).tobytes() for g, w in zip(got, want)):
                    steps.append(step)
                W = W - 0.1 * want[2]
    return found


def lipschitz_matches_pairwise() -> bool:
    """Whether lipschitz_estimate's report equals pair-by-pair scoring's on landscape-audit's data.

    The scan spans two full draw blocks and ends in a partial chunk.
    """
    omap = build_output_map(8, 0.5)
    args = (
        lambda rng, count: rng.normal_draws(count, (2, 8)),
        omap,
        np.full(8, 0.05),
        grid_dataset_planar(GridDatasetSpec()),
        2 * DRAW + CHUNK + 3,
    )
    return lipschitz_estimate(*args, Rng(11)) == pairwise_lipschitz(*args, Rng(11))


def semantic_results(out: str) -> dict:
    """What a tiny train, a two-cell width sweep and a gc-prob run report, without trajectory digits.

    Also the steps where the loss kernel's bytes leave the oracle's (none),
    and whether the Lipschitz scan's report is pair-by-pair scoring's (it is).
    """
    train = run_command("train", {"seed": 7}, os.path.join(out, "train"))
    run_command(
        "sweep-width",
        {"widths": [10, 14], "inits": ["random"], "runs": 2, "max_iters": 600},
        os.path.join(out, "sweep"),
    )
    run_command("gc-prob", {"cells": [[2, 3], [3, 5]], "trials": 2000}, os.path.join(out, "gc"))
    with open(os.path.join(out, "train", "phase_report.json")) as fh:
        timelines = {c: rep["gc_timeline"] for c, rep in json.load(fh).items()}
    gc_rows = _table(os.path.join(out, "gc", "gc_prob.csv"))
    return {
        "train": {key: train[key] for key in ("stop_reason", "converged_at", "first_hold")},
        "gc_timelines": timelines,
        "sweep_summary": _table(os.path.join(out, "sweep", "width_summary.csv")),
        "gc_prob": [row[:3] + row[4:6] for row in gc_rows],
        "kernel_mismatches": kernel_mismatches(),
        "lipschitz_matches_pairwise": lipschitz_matches_pairwise(),
    }


def _dynamic_openblas() -> str | None:
    """Why OPENBLAS_CORETYPE picks no kernel for numpy's BLAS, or None when it does."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy reports no BLAS build configuration"
    config = blas.get("openblas configuration", "")
    if "openblas" not in blas.get("name", "").lower() or "DYNAMIC_ARCH" not in config:
        return f"numpy's BLAS is {blas.get('name')!r} ({config or 'no OpenBLAS configuration'}), not an OpenBLAS DYNAMIC_ARCH build"
    if blas_corename() is None:
        return "the loaded OpenBLAS reports no kernel name"
    return None


def test_semantic_results_hold_under_every_kernel(tmp_path):
    reason = _dynamic_openblas()
    if reason:
        pytest.skip(reason)
    src = os.path.dirname(os.path.dirname(reluphase.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    children = {}
    for kernel in KERNELS:
        env = dict(
            os.environ,
            OPENBLAS_CORETYPE=kernel,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        children[kernel] = subprocess.Popen(
            [sys.executable, "-c", _CHILD, tests, str(tmp_path / kernel)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    expected = semantic_results(str(tmp_path / "in-process"))
    assert not any(expected["kernel_mismatches"].values()), expected["kernel_mismatches"]
    assert expected["lipschitz_matches_pairwise"]
    ran = {}
    for kernel, child in children.items():
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
        report = json.loads(stdout)
        if report["kernel"] == kernel:
            ran[kernel] = report["results"]
    if len(ran) < 2:
        pytest.skip(f"this CPU runs {sorted(ran) or 'none'} of the kernels {KERNELS}")
    for kernel, results in ran.items():
        assert results == expected, kernel
