import concurrent.futures.process
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import reluphase
from reluphase import LabeledDataset, Rng, TrainConfig, build_output_map, network_params, train
from reluphase import experiments
from reluphase.cli import main
from reluphase.experiments import (
    COMMANDS,
    ConfigError,
    RunSpec,
    RunSummary,
    _build_config,
    _config_snapshot,
    _iteration_stats,
    _worker_count,
    build_task,
    execute_run,
    initial_weights,
    rho_at,
    rho_curve,
    run_command,
)
from reluphase.tableio import validate_csv


class TestConfigBuilding:
    def test_defaults_fill_in(self):
        cfg = _build_config(RunSpec, {})
        assert cfg == RunSpec()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            _build_config(RunSpec, {"widht": 8})

    def test_bool_rejected_for_int(self):
        with pytest.raises(ConfigError, match="width"):
            _build_config(RunSpec, {"width": True})

    def test_integral_float_accepted_for_int(self, tmp_path):
        cfg = _build_config(RunSpec, {"width": 8.0})
        assert cfg.width == 8 and type(cfg.width) is int
        run_command("train", {"width": 8.0, "max_iters": 5}, str(tmp_path))
        width = json.loads((tmp_path / "config.json").read_text())["width"]
        assert width == 8 and type(width) is int  # written as 8, not 8.0

    def test_fractional_float_rejected_for_int(self):
        with pytest.raises(ConfigError, match="'width' must be an integer, got 8.5"):
            _build_config(RunSpec, {"width": 8.5})

    def test_number_rejected_for_str(self):
        with pytest.raises(ConfigError, match="'init' must be a string, got 3"):
            _build_config(RunSpec, {"init": 3})

    def test_string_rejected_for_float(self):
        with pytest.raises(ConfigError, match="eta"):
            _build_config(RunSpec, {"eta": "fast"})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            _build_config(RunSpec, [1, 2])

    def test_biases_list_coerced_to_tuple(self):
        cfg = _build_config(RunSpec, {"biases": [0.1, 0.1, 0.1, 0.1], "width": 4})
        assert cfg.biases == (0.1, 0.1, 0.1, 0.1)

    def test_pair_list_validation(self):
        cls = COMMANDS["gc-prob"][0]
        cfg = _build_config(cls, {"cells": [[2, 3], [3, 5]]})
        assert cfg.cells == ((2, 3), (3, 5))
        with pytest.raises(ConfigError, match="cells"):
            _build_config(cls, {"cells": [[2, 3, 4]]})
        with pytest.raises(ConfigError, match="cells"):
            _build_config(cls, {"cells": "23"})

    def test_snapshot_names_command_and_lists_tuples(self):
        cfg = RunSpec(width=2, biases=(0.1, 0.2))
        snap = _config_snapshot("train", cfg)
        assert snap["command"] == "train"
        assert snap["biases"] == [0.1, 0.2]
        assert "out_dir" not in snap
        assert "out" not in snap


CONFIG_CLASSES = [cls for cls, _ in COMMANDS.values()]
COMMAND_NAMES = list(COMMANDS)


class TestConfigFromFields:
    """Every command's keys, defaults and coercion come from its dataclass."""

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_defaults_and_snapshot_round_trip(self, name):
        cls = COMMANDS[name][0]
        assert _build_config(cls, {}) == cls()
        # config.json, fed back as a config, rebuilds the same settings
        snapshot = json.loads(json.dumps(_config_snapshot(name, cls())))
        del snapshot["command"]
        assert _build_config(cls, snapshot) == cls()

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=COMMAND_NAMES)
    def test_bool_rejected_for_every_number_field(self, cls):
        numeric = [f.name for f in fields(cls) if f.type in ("int", "float")]
        assert numeric
        for name in numeric:
            with pytest.raises(ConfigError, match=f"'{name}' must be a number, got a bool"):
                _build_config(cls, {name: True})

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=COMMAND_NAMES)
    def test_list_fields_come_back_as_tuples(self, cls):
        for f in fields(cls):
            if not f.type.startswith("tuple"):
                continue
            default = getattr(cls(), f.name)
            # biases, the one optional list, takes a value per hidden unit
            expected = default if default is not None else (0.05,) * cls().width
            value = getattr(_build_config(cls, {f.name: json.loads(json.dumps(expected))}), f.name)
            assert isinstance(value, tuple) and value == expected, f.name
            assert all(not isinstance(item, list) for item in value), f.name

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=COMMAND_NAMES)
    def test_unknown_key_error_names_accepted_keys(self, cls):
        with pytest.raises(ConfigError, match="unknown config keys") as info:
            _build_config(cls, {"no_such_key": 1})
        message = str(info.value)
        assert "no_such_key" in message
        for f in fields(cls):
            assert repr(f.name) in message, f.name

    def test_sweep_cells_list_each_grid_entry_once_in_order(self):
        cfg = _build_config(COMMANDS["sweep-width"][0], {"widths": [8, 6], "inits": ["halfspace", "random"]})
        assert cfg.cells() == [
            ((w, init), {"task": "planar-grid", "width": w, "init": init})
            for w in (8, 6)
            for init in ("halfspace", "random")
        ]
        cfg = _build_config(COMMANDS["sweep-angle"][0], {"angles": [1.0, 0.5], "width": 6, "noise_std": 0.1})
        run = {"task": "subspace-pair", "width": 6, "init": "random", "noise_std": 0.1}
        assert cfg.cells() == [((1.0,), {**run, "theta": 1.0}), ((0.5,), {**run, "theta": 0.5})]
        assert _build_config(COMMANDS["norm-hist"][0], {"width": 6}).cells() == [
            ((), {"task": "planar-grid", "width": 6, "init": "random"})
        ]

    def test_readme_lists_each_commands_fields(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        section = text.split("Accepted config keys per command", 1)[1].split("Examples:", 1)[0]
        listed = {}
        for bullet in re.findall(r"^- `([a-z-]+)`:(.*?)(?=^- |\Z)", section, re.M | re.S):
            name, body = bullet
            listed[name] = re.findall(r"`([a-z_]+)`", re.sub(r"\([^)]*\)", "", body))
        assert listed == {name: [f.name for f in fields(cls)] for name, (cls, _) in COMMANDS.items()}

    def test_readme_tour_names_each_public_name(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            tour = fh.read().split("## Library tour", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", tour))))
        assert sorted(set(reluphase.__all__) - named) == []


class TestTaskBuilders:
    def test_binary_output_map(self):
        omap = build_output_map(6, 0.5)
        assert omap.values.shape == (2, 6)
        assert tuple(omap.owner) == (1, 2, 1, 2, 1, 2)

    def test_build_task_shapes(self):
        planar = build_task("planar-grid", math.pi / 2, 0.0, None)
        assert planar.dim == 2
        assert planar.labels == (1,)
        pair = build_task("subspace-pair", math.pi / 3, 0.0, None)
        assert pair.dim == 4
        assert pair.labels == (1, 2)

    def test_build_task_unknown(self):
        with pytest.raises(ConfigError, match="unknown task"):
            build_task("mystery", 1.0, 0.0, None)

    def test_initial_weights_variants(self):
        rng = Rng(0)
        assert initial_weights("random", 2, 8, rng).shape == (2, 8)
        assert initial_weights("halfspace", 4, 6, Rng(1)).shape == (4, 6)
        W = initial_weights("three-rays", 2, 6, Rng(2))
        assert W.shape == (2, 6)
        with pytest.raises(ConfigError, match="three-rays"):
            initial_weights("three-rays", 4, 6, Rng(3))
        with pytest.raises(ConfigError, match="unknown init"):
            initial_weights("spiral", 2, 8, Rng(4))

    def test_execute_run_deterministic(self):
        spec = RunSpec(
            task="planar-grid", width=4, v=0.5, eta=0.1, max_iters=5, init="random", seed=3
        )
        assert spec.output_map() is spec.output_map()  # one output map per spec
        r1, d1 = execute_run(spec)
        r2, d2 = execute_run(spec)
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(r1.params.weights, r2.params.weights)
        assert [rec.loss for rec in r1.records] == [rec.loss for rec in r2.records]


class TestRhoCurve:
    def test_hand_values_single_live_unit(self):
        # one class 1 unit at (1, 0) and a dead class 2 unit: the scalar score
        # at angle t is cos(t), clipped to [0, 1]
        params = network_params(np.array([[1.0, 0.0], [0.0, 0.0]]), build_output_map(2, 0.5))
        thetas = np.array([0.0, math.pi / 3, math.pi / 2, math.pi])
        rho = rho_at(params, thetas)
        np.testing.assert_allclose(rho, [1.0, 0.5, 0.0, 0.0], atol=1e-12)

    def test_clipping_above_one(self):
        params = network_params(np.array([[5.0, 0.0], [0.0, 0.0]]), build_output_map(2, 0.5))
        assert rho_at(params, np.array([0.0]))[0] == 1.0

    def test_curve_shape(self):
        params = network_params(np.eye(2), build_output_map(2, 0.5))
        thetas, rho = rho_curve(params, samples=8)
        assert thetas.shape == rho.shape == (8,)
        assert thetas[0] == 0.0
        with pytest.raises(ValueError):
            rho_curve(params, samples=2)

    def test_requires_planar_binary(self):
        params3 = network_params(np.ones((3, 2)), build_output_map(2, 0.5))
        with pytest.raises(ValueError, match="planar"):
            rho_at(params3, np.array([0.0]))


class TestRunSummary:
    """What a sweep reads of a trained run: the runs CSV's iteration count and the cell statistics."""

    @staticmethod
    def one_point_run(eta, max_iters):
        # binary net, k = 2, v = 1, one class-1 sample at (1, 0)
        params = network_params(np.array([[0.1, 0.0], [0.0, 0.0]]), build_output_map(2, 1.0))
        data = LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]))
        return train(params, data, TrainConfig(eta=eta, max_iters=max_iters))

    def test_reads_converged_at(self):
        result = self.one_point_run(eta=0.1, max_iters=50)
        summary = RunSummary.of(7, result)
        assert summary.seed == 7
        assert summary.converged and summary.converged_at == summary.iterations == 2
        assert summary.final_loss == result.records[-1].loss == 0.0
        assert summary.final_norm == result.records[-1].weight_norm
        assert summary.max_norm == result.max_weight_norm

    def test_never_converged_reads_minus_one(self):
        summary = RunSummary.of(0, self.one_point_run(eta=0.01, max_iters=3))
        assert not summary.converged
        assert summary.converged_at is None
        assert summary.iterations == -1
        assert summary.final_loss > 0.0

    def test_iteration_stats_read_converged_runs_only(self):
        runs = [RunSummary(s, at, 0.0, 1.0, 1.0) for s, at in enumerate([4, None, 6, None])]
        mean, std, med, q25, q75 = _iteration_stats(runs)
        assert (mean, med, q25, q75) == (5.0, 5.0, 4.5, 5.5)
        assert std == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert _iteration_stats(runs[1:2]) == (-1.0,) * 5
        assert _iteration_stats(runs[:1]) == (4.0, 0.0, 4.0, 4.0, 4.0)


class TestWorkerCount:
    def test_capped_by_runs_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(1, 10) == 1
        assert _worker_count(3, 10) == 3
        assert _worker_count(10**6, 10) == 4
        assert _worker_count(10**6, 2) == 2
        assert _worker_count(8, 0) == 0

    def test_unknown_cpu_count_runs_serially(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(16, 100) == 1

    @pytest.mark.parametrize("command", ["sweep-width", "sweep-angle", "norm-hist"])
    @pytest.mark.parametrize("threads", [0, -2])
    def test_sweeps_reject_threads_below_one(self, tmp_path, command, threads, run_counter):
        with pytest.raises(ConfigError, match="threads must be at least 1"):
            run_command(command, {"threads": threads}, str(tmp_path / "x"))
        assert run_counter == []


class TestProcessPool:
    """map_runs with two worker processes writes the same bytes as one process,
    from one pool that takes one spec per task."""

    @pytest.mark.parametrize(
        "command, mapping",
        [
            ("sweep-width", {"widths": [6, 8], "inits": ["random", "halfspace"], "runs": 3, "max_iters": 300}),
            ("norm-hist", {"runs": 4, "bins": 3, "max_iters": 300, "width": 6}),
            ("sweep-angle", {"angles": [1.5, 0.8], "runs": 3, "max_iters": 700}),
            ("norm-hist", {"runs": 16, "bins": 3, "max_iters": 300, "width": 6}),
        ],
    )
    def test_two_workers_match_one(self, tmp_path, monkeypatch, command, mapping):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pools, chunks = [], []

        class RecordingPool(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

            def map(self, fn, *iterables, **kwargs):
                chunks.append(kwargs.get("chunksize", 1))
                return super().map(fn, *iterables, **kwargs)

        # map_runs imports the pool class when it needs one.
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingPool)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert run_command(command, {**mapping, "threads": 1}, str(serial)) == run_command(
            command, {**mapping, "threads": 2}, str(pooled)
        )
        assert pools == [2] and chunks == [1]
        names = sorted(os.listdir(serial))
        assert names == sorted(os.listdir(pooled))
        assert any(name.endswith(".csv") for name in names) and any(name.endswith(".svg") for name in names)
        for name in names:
            if name != "config.json":
                assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name
        assert json.loads((pooled / "config.json").read_text())["threads"] == 2


@pytest.fixture
def run_counter(monkeypatch):
    """Record every spec that reaches execute_run, without training."""
    calls = []

    def fake_execute_run(spec):
        calls.append(spec)
        raise AssertionError("a run started before the config was fully checked")

    monkeypatch.setattr(experiments, "execute_run", fake_execute_run)
    return calls


# Bad run settings, each rejected when its command's config is built, in the
# words of the type that owns the rule.
BAD_RUN_SETTINGS = [
    ("train", {"v": -1}, "v must be positive"),
    ("train", {"v": math.inf}, "v must be positive"),
    ("sweep-width", {"v": 0}, "v must be positive"),
    ("sweep-angle", {"v": -0.5}, "v must be positive"),
    ("norm-hist", {"eta": 0}, "eta must be positive"),
    ("norm-hist", {"v": -1}, "v must be positive"),
    ("trace-dynamics", {"v": 0}, "v must be positive"),
    ("landscape-audit", {"eta": -1}, "eta must be positive"),
    ("landscape-audit", {"max_iters": 0}, "max_iters must be at least 1, got 0"),
    ("landscape-audit", {"v": -2}, "v must be positive"),
    ("train", {"noise_std": -1}, "noise_std must be finite and nonnegative"),
    ("train", {"task": "subspace-pair", "theta": 3.0}, "theta must lie in"),
    ("sweep-angle", {"angles": [1.0], "runs": 1, "max_iters": 5, "noise_std": -1}, "noise_std must be"),
    ("train", {"task": "nope"}, "unknown task"),
    ("landscape-audit", {"subspace_dim": 4}, "zero-loss construction needs more than subspace_dim"),
    ("landscape-audit", {"data_max": 1e400}, "inner < outer < inf"),
    ("train", {"width": 4, "biases": [0.1, 0.1]}, "biases must have shape"),
    ("train", {"width": 2, "biases": [-0.1, 0.2]}, "biases must be finite and nonnegative"),
    ("train", {"width": 4, "biases": [0.5] * 4}, "nonzero biases must sum into"),
    ("train", {"noise_std": 1e400}, "noise_std must be finite and nonnegative"),
    ("landscape-audit", {"biases": [0.05] * 3}, "biases must have shape"),
    ("landscape-audit", {"biases": [-0.05] + [0.05] * 7}, "biases must be finite and nonnegative"),
    ("landscape-audit", {"biases": [0.2] * 8}, "nonzero biases must sum into"),
    ("landscape-audit", {"biases": [0.0] * 8}, "needs nonzero biases"),
    ("train", {"stop_loss": math.nan}, "stop_loss must be nonnegative"),
    ("train", {"record_every": 0}, "record_every must be at least 1"),
    ("train", {"width": 1}, "output map needs k >= n"),
    ("train", {"seed": -1}, "seed must be nonnegative, got -1"),
    ("sweep-width", {"seed_base": -2}, "seed must be nonnegative, got -2"),
    ("sweep-angle", {"seed_base": -1}, "seed must be nonnegative"),
    ("norm-hist", {"seed_base": -1}, "seed must be nonnegative"),
    ("gc-prob", {"seed": -3}, "seed must be nonnegative, got -3"),
    ("trace-dynamics", {"seed": -1}, "seed must be nonnegative"),
    ("landscape-audit", {"seed": -1, "audit_runs": 0}, "seed must be nonnegative"),
    ("landscape-audit", {"subspace_dim": 0}, "subspace_dim must be at least 1"),
]


class TestRunSettingChecks:
    @pytest.mark.parametrize("command, mapping, message", BAD_RUN_SETTINGS)
    def test_rejected_before_any_run(self, tmp_path, run_counter, command, mapping, message):
        with pytest.raises(ConfigError, match=message):
            run_command(command, mapping, str(tmp_path / "x"))
        assert run_counter == []
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, mapping, message", BAD_RUN_SETTINGS)
    def test_cli_exits_2(self, tmp_path, capsys, run_counter, command, mapping, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(mapping))
        assert main([command, "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err
        assert run_counter == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sweep-width", "sweep-angle", "norm-hist", "trace-dynamics"])
    def test_max_iters_message_names_the_value(self, tmp_path, run_counter, command):
        with pytest.raises(ConfigError, match="max_iters must be at least 1, got 0"):
            run_command(command, {"max_iters": 0}, str(tmp_path / "x"))

    def test_bad_trailing_angle_starts_no_run(self, tmp_path, run_counter):
        mapping = {"angles": [0.5, 3.0], "runs": 2, "max_iters": 10}
        with pytest.raises(ConfigError, match="theta must lie in"):
            run_command("sweep-angle", mapping, str(tmp_path / "x"))
        assert run_counter == []

    @pytest.mark.parametrize(
        "command, mapping, message",
        [
            ("sweep-width", {"widths": [6, 8, 6]}, "sweep cells must be distinct, got (6, 'random') more than once"),
            (
                "sweep-width",
                {"widths": [6], "inits": ["random", "random"]},
                "sweep cells must be distinct, got (6, 'random') more than once",
            ),
            (
                "sweep-width",
                {"inits": ["halfspace", "random", "halfspace"]},
                "sweep cells must be distinct, got (6, 'halfspace') more than once",
            ),
            ("sweep-angle", {"angles": [0.5, 1.0, 0.5]}, "sweep cells must be distinct, got (0.5,) more than once"),
            ("gc-prob", {"cells": [[2, 3], [2, 3]]}, "cells must be distinct, got (2, 3) more than once"),
        ],
    )
    def test_repeated_grid_entry_starts_no_run(self, tmp_path, monkeypatch, run_counter, command, mapping, message):
        def no_monte_carlo(*args):
            raise AssertionError("gc-prob started before its config was fully checked")

        monkeypatch.setattr(experiments, "gc_probability_mc", no_monte_carlo)
        with pytest.raises(ConfigError) as info:
            run_command(command, mapping, str(tmp_path / "x"))
        assert str(info.value) == message
        assert run_counter == []
        assert not (tmp_path / "x").exists()


class TestRunCommand:
    def test_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown command"):
            run_command("meditate", {}, str(tmp_path))

    def test_train_tiny(self, tmp_path):
        out = tmp_path / "train"
        summary = run_command("train", {"max_iters": 30, "width": 6, "seed": 1}, str(out))
        assert set(summary) >= {"stop_reason", "final_loss", "first_hold"}
        for name in (
            "config.json",
            "trajectory.csv",
            "trajectory.json",
            "phase_report.json",
            "audit.json",
            "loss_curve.svg",
        ):
            assert (out / name).exists(), name
        assert validate_csv(out / "trajectory.csv") == 31
        snap = json.loads((out / "config.json").read_text())
        assert snap["command"] == "train"
        assert snap["max_iters"] == 30
        report = json.loads((out / "phase_report.json").read_text())
        assert set(report) == {"class_1"}

    @pytest.mark.parametrize(
        "mapping",
        [{"width": 6, "max_iters": 400}, {"task": "subspace-pair", "width": 16, "max_iters": 200, "seed": 2}],
        ids=["planar-grid", "subspace-pair"],
    )
    def test_train_outputs_agree_on_gc_flags(self, tmp_path, mapping):
        out = tmp_path / "train"
        run_command("train", mapping, str(out))
        report = json.loads((out / "phase_report.json").read_text())
        timelines = {key.removeprefix("class_"): rep["gc_timeline"] for key, rep in report.items()}
        # a timeline that flips, so a shifted or swapped column would show
        assert any(len(set(timeline)) == 2 for timeline in timelines.values())
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [name for name in rows[0] if name.startswith("gc_class_")] == [f"gc_class_{c}" for c in timelines]
        for c, timeline in timelines.items():
            assert [row[f"gc_class_{c}"] == "true" for row in rows] == timeline

    def test_train_bad_biases(self, tmp_path):
        with pytest.raises(ConfigError, match="biases"):
            run_command("train", {"width": 4, "biases": [0.5, 0.5, 0.5, 0.5]}, str(tmp_path / "x"))

    def test_train_zero_iters(self, tmp_path):
        with pytest.raises(ConfigError, match="max_iters"):
            run_command("train", {"max_iters": 0}, str(tmp_path / "x"))

    def test_gc_prob_tiny(self, tmp_path):
        out = tmp_path / "gc"
        summary = run_command("gc-prob", {"cells": [[2, 3]], "trials": 2000}, str(out))
        assert summary["cells"] == 1
        assert validate_csv(out / "gc_prob.csv") == 1
        payload = json.loads((out / "gc_prob.json").read_text())
        assert payload["d2_k3"]["exact"] == 0.25

    def test_gc_prob_zero_trials(self, tmp_path):
        with pytest.raises(ConfigError, match="trials"):
            run_command("gc-prob", {"trials": 0}, str(tmp_path / "x"))

    def test_sweep_width_tiny(self, tmp_path):
        out = tmp_path / "sw"
        mapping = {"widths": [6], "inits": ["random"], "runs": 2, "max_iters": 2000}
        summary = run_command("sweep-width", mapping, str(out))
        assert validate_csv(out / "width_runs.csv") == 2
        assert validate_csv(out / "width_summary.csv") == 1
        assert (out / "width_box.svg").exists()
        assert (out / "width_means.svg").exists()
        assert list(summary["means"]) == ["random"]
        assert len(summary["means"]["random"]) == 1

    def test_sweep_width_without_convergence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"widths": [6], "inits": ["random"], "runs": 1, "max_iters": 1}))
        out = tmp_path / "sw"
        assert main(["sweep-width", "--out", str(out), "--config", str(cfg)]) == 0
        with open(out / "width_runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["seed"], r["iterations"], r["converged"]) for r in rows] == [("0", "-1", "false")]
        with open(out / "width_summary.csv") as fh:
            (summary,) = csv.DictReader(fh)
        assert summary["converged"] == "0" and summary["mean_iterations"] == "-1.0"
        assert (out / "width_means.svg").exists()
        assert not (out / "width_box.svg").exists()

    def test_sweep_charts_leave_cells_without_convergence_out(self, tmp_path):
        # At seed_base 3 no halfspace run converges within 300 iterations,
        # and some random runs do at both widths.
        mapping = {"widths": [6, 10], "inits": ["halfspace", "random"], "runs": 4, "max_iters": 300, "seed_base": 3}
        out = tmp_path / "sw"
        summary = run_command("sweep-width", mapping, str(out))
        assert summary["means"]["halfspace"] == [-1.0, -1.0]
        assert all(m > 0 for m in summary["means"]["random"])
        lines = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="([^"]*)"', (out / "width_means.svg").read_text())
        # Only the random init (the second colour) draws a line, through both widths.
        assert [(len(points.split()), colour) for points, colour in lines] == [(2, "#d62728")]
        out = tmp_path / "sa"
        summary = run_command("sweep-angle", {"angles": [0.5, 1.0], "runs": 1, "max_iters": 1}, str(out))
        assert summary["mean_iterations"] == [-1.0, -1.0]
        svg = (out / "angle_sweep.svg").read_text()
        assert "<polyline" not in svg and ">q75</text>" in svg

    @pytest.mark.parametrize("eta", [1e306, 1e200], ids=["loss-overflows", "norm-overflows"])
    def test_train_divergent_run_ends_cleanly(self, tmp_path, eta):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": eta, "max_iters": 50}))
        out = tmp_path / "tr"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--out", str(out), "--config", str(cfg)]) == 0
        payload = json.loads((out / "trajectory.json").read_text())
        assert payload["stop_reason"] == "nonfinite"
        assert payload["diverged"] is True
        assert set(payload) == {"stop_reason", "converged_at", "max_weight_norm", "diverged", "trained_classes"}
        times = json.loads((out / "phase_report.json").read_text())["class_1"]["times"]
        assert validate_csv(out / "trajectory.csv") == len(times)

    @pytest.mark.parametrize("eta", [1e306, 1e200], ids=["loss-overflows", "norm-overflows"])
    def test_divergent_train_raises_no_warning(self, tmp_path, capsys, eta):
        mapping = {"eta": eta, "max_iters": 50}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(mapping))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_command("train", mapping, str(tmp_path / "lib"))
            capsys.readouterr()
            assert main(["train", "--out", str(tmp_path / "cli"), "--config", str(cfg)]) == 0
        assert summary["stop_reason"] == "nonfinite"
        assert capsys.readouterr().err == ""

    def test_sweep_width_divergent_runs_end_cleanly(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        mapping = {"widths": [6], "inits": ["random"], "runs": 2, "max_iters": 50, "eta": 1e306}
        cfg.write_text(json.dumps(mapping))
        out = tmp_path / "sw"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sweep-width", "--out", str(out), "--config", str(cfg)]) == 0
        with open(out / "width_runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["seed"], r["converged"]) for r in rows] == [("0", "false"), ("1", "false")]

    @pytest.mark.parametrize(
        "command, mapping, headers",
        [
            (
                "sweep-width",
                {"widths": [6], "inits": ["random"]},
                {
                    "width_runs.csv": "width,init,run,seed,iterations,converged,final_loss,max_weight_norm",
                    "width_summary.csv": "width,init,runs,converged,mean_iterations,std_iterations,"
                    "median_iterations,q25_iterations,q75_iterations",
                },
            ),
            (
                "sweep-angle",
                {"angles": [1.0]},
                {
                    "angle_runs.csv": "theta,run,seed,iterations,converged,final_loss,max_weight_norm",
                    "angle_summary.csv": "theta,runs,converged,mean_iterations,std_iterations,"
                    "median_iterations,q25_iterations,q75_iterations",
                },
            ),
            (
                "norm-hist",
                {"bins": 1},
                {"norm_runs.csv": "run,seed,iterations,converged,final_weight_norm,max_weight_norm"},
            ),
        ],
    )
    def test_sweep_csv_header_rows(self, tmp_path, command, mapping, headers):
        out = tmp_path / "o"
        run_command(command, {**mapping, "runs": 1, "max_iters": 1}, str(out))
        for name, header in headers.items():
            assert (out / name).read_bytes().split(b"\r\n")[0] == header.encode(), name

    def test_sweep_width_zero_runs(self, tmp_path):
        with pytest.raises(ConfigError, match="runs"):
            run_command("sweep-width", {"runs": 0}, str(tmp_path / "x"))

    def test_sweep_angle_single_angle(self, tmp_path):
        out = tmp_path / "sa"
        mapping = {"angles": [math.pi / 2], "runs": 1, "max_iters": 1500, "width": 6}
        summary = run_command("sweep-angle", mapping, str(out))
        assert validate_csv(out / "angle_runs.csv") == 1
        assert validate_csv(out / "angle_summary.csv") == 1
        assert (out / "angle_sweep.svg").exists()
        assert summary["angles"] == [math.pi / 2]
        assert len(summary["mean_iterations"]) == 1

    def test_sweep_angle_bad_theta(self, tmp_path):
        with pytest.raises(ConfigError, match="theta|angle"):
            run_command("sweep-angle", {"angles": [0.0]}, str(tmp_path / "x"))

    def test_norm_hist_tiny(self, tmp_path):
        out = tmp_path / "nh"
        summary = run_command("norm-hist", {"runs": 3, "max_iters": 800, "bins": 5}, str(out))
        assert validate_csv(out / "norm_runs.csv") == 3
        assert validate_csv(out / "norm_hist.csv") == 5
        assert (out / "norm_hist.svg").exists()
        assert summary["max_norm_overall"] >= summary["mean_max_norm"] > 0.0

    def test_trace_dynamics_tiny(self, tmp_path):
        out = tmp_path / "td"
        mapping = {"snapshots": [0, 5], "max_iters": 25, "rho_samples": 64}
        summary = run_command("trace-dynamics", mapping, str(out))
        payload = json.loads((out / "dynamics.json").read_text())
        frames = payload["frames"]
        assert [f["t"] for f in frames] == [0, 5, 25]
        for f in frames:
            assert (out / f"frame_t{f['t']:05d}.svg").exists()
        assert validate_csv(out / "trajectory.csv") == 26
        assert not (out / "trajectory.json").exists()
        assert summary["stop_reason"] == "max_iters"
        assert isinstance(summary["final_covered"], bool)

    def test_trace_dynamics_rho_samples_floor(self, tmp_path):
        with pytest.raises(ConfigError, match="rho_samples"):
            run_command("trace-dynamics", {"rho_samples": 2}, str(tmp_path / "x"))

    def test_landscape_audit_tiny_with_biases(self, tmp_path):
        out = tmp_path / "la"
        mapping = {
            "width": 6,
            "samples_per_class": 60,
            "audit_runs": 1,
            "max_iters": 600,
            "pairs": 40,
            "biases": [0.05] * 6,
            "seed": 2,
        }
        summary = run_command("landscape-audit", mapping, str(out))
        report = json.loads((out / "landscape_report.json").read_text())
        for c in ("class_1", "class_2"):
            assert report["constructed_minima"][c]["verdict"] == "global_min"
        assert report["lipschitz"]["max_ratio"] < report["lipschitz"]["frozen_ceiling"]
        assert validate_csv(out / "lipschitz_hist.csv") >= 1
        assert (out / "lipschitz_hist.svg").exists()
        assert summary["constructed_all_global_min"] is True
        assert summary["below_ceiling"] is True


class TestCliMain:
    def test_happy_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cells": [[2, 3]], "trials": 1000}))
        out = tmp_path / "out"
        code = main(["gc-prob", "--out", str(out), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 0
        assert "cells: 1" in captured.out
        assert (out / "gc_prob.csv").exists()

    def test_seed_override(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["gc-prob", "--out", str(out1), "--seed", "7", "--runs", "0"]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cells": [[2, 3]], "trials": 500}))
        assert main(["gc-prob", "--out", str(out2), "--config", str(cfg), "--seed", "7"]) == 0
        snap = json.loads((out2 / "config.json").read_text())
        assert snap["seed"] == 7

    @pytest.mark.parametrize("command, seed", [("train", "-1"), ("gc-prob", "-3"), ("sweep-width", "-2")])
    def test_negative_seed_override_is_exit_2(self, tmp_path, capsys, command, seed):
        assert main([command, "--out", str(tmp_path / "o"), "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: seed must be nonnegative, got {seed}\n"
        assert not (tmp_path / "o").exists()

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["train", "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "o"), "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        code = main(["train", "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert code == 2

    def test_runs_override_rejected_where_unsupported(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "o"), "--runs", "5"])
        assert code == 2
        assert "no run count" in capsys.readouterr().err

    def test_runs_and_threads_overrides_are_recorded(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": 5, "threads": 1, "max_iters": 50, "bins": 2, "width": 6}))
        out = tmp_path / "nh"
        argv = ["norm-hist", "--out", str(out), "--config", str(cfg), "--runs", "1", "--threads", "3"]
        assert main(argv) == 0
        snap = json.loads((out / "config.json").read_text())
        assert (snap["runs"], snap["threads"]) == (1, 3)
        assert validate_csv(out / "norm_runs.csv") == 1

    @pytest.mark.parametrize(
        "flag, message", [("--runs", "takes no run count"), ("--threads", "takes no thread count")]
    )
    def test_gc_prob_refuses_run_overrides(self, tmp_path, capsys, flag, message):
        assert main(["gc-prob", "--out", str(tmp_path / "o"), flag, "2"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cells": [[2, 3]], "trials": 500}))
        out = tmp_path / "gc"
        src = os.path.dirname(os.path.dirname(reluphase.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "reluphase", "gc-prob", "--out", str(out), "--config", str(cfg)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "cells: 1" in proc.stdout
        assert validate_csv(out / "gc_prob.csv") == 1
        refused = argv[:3] + ["gc-prob", "--out", str(tmp_path / "o"), "--runs", "2"]
        bad = subprocess.run(refused, capture_output=True, text=True, env=env, timeout=120)
        assert bad.returncode == 2
        assert bad.stderr.startswith("config error: ") and "Traceback" not in bad.stderr

    def test_unknown_config_key_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 8, "depth": 3}))
        code = main(["train", "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err
