"""Self-test of the benchmark: each workload at a tiny size, traced and untraced.

    python3 -m pytest bench/test_bench.py -q

Run from the root of the repository; takes about half a minute.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("bench", "run.py")
WORKLOADS = ("planar-campaign", "train-sweep", "landscape-mc")
END_TO_END = {
    "wall_s": "s",
    "wall_ref_s": "s",
    "setup_s": "s",
    "setup_raw_s": "s",
    "runs_per_s": "1/s",
    "iters_per_s": "1/s",
    "snapshots_per_s": "1/s",
    "pairs_per_s": "1/s",
    "mc_sets_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
}
ONLY_ON = {"snapshots_per_s": "planar-campaign", "pairs_per_s": "landscape-mc", "mc_sets_per_s": "landscape-mc"}


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, RUN, "--seed", "0", "--seconds", "0", "--tiny", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_metric(workload):
    proc = _bench(ROOT, "--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == {m["name"] for m in _declared()["per_layer"]}

    printed = {tuple(line.split()[:2]) for line in lines}
    for name, unit in END_TO_END.items():
        assert (name, unit) in printed, name

    path = next(line.split(": ", 1)[1] for line in lines if line.strip().startswith("result file:"))
    with open(os.path.join(ROOT, path)) as fh:
        result = json.load(fh)
    e2e = result["end_to_end"]
    assert e2e["failed_frac"]["value"] == 0
    for name, only in ONLY_ON.items():
        assert (name in e2e) == (workload == only), name
    assert "run_ms_p90" not in e2e  # a tiny pass has far fewer than 100 runs
    by_mode = result["digest_by_mode"]
    assert len(by_mode["untraced"]) == 1
    assert by_mode["traced"] == by_mode["untraced"]


def test_untraced_run_prints_end_to_end_metrics():
    proc = _bench(ROOT, "--workload", "landscape-mc", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] is True
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {name: m["unit"] for name, m in final["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in final["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "train-sweep", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
