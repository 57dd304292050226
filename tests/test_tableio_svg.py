import json
import math
import os
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from reluphase import Rng, experiments, svgplot
from reluphase.svgplot import box_chart, dynamics_frame, histogram_chart, line_chart
from reluphase.tableio import (
    SCHEMAS,
    CsvSchema,
    SchemaError,
    schema_for_file,
    validate_csv,
    write_csv,
    write_json,
    write_records_json,
)


def to_jsonable(obj):
    """Oracle: recursively convert numpy scalars/arrays and non-finite floats (-> None)."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def reference_json(obj) -> str:
    """The text write_json must produce: to_jsonable, then json's sorted indent-2 encoder."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


class TestSchemas:
    def test_header_with_groups(self):
        schema = SCHEMAS["trajectory"]
        header = schema.header({"loss_class": 2, "neuron_norm": 3, "gc_class": 2})
        assert header == [
            "t",
            "loss",
            "weight_norm",
            "grad_norm",
            "loss_class_1",
            "loss_class_2",
            "neuron_norm_1",
            "neuron_norm_2",
            "neuron_norm_3",
            "gc_class_1",
            "gc_class_2",
        ]

    def test_schema_for_file(self):
        assert schema_for_file("/a/b/trajectory.csv").name == "trajectory"
        assert schema_for_file("norm_hist.csv").name == "histogram"
        assert schema_for_file("lipschitz_hist.csv").name == "histogram"
        for name in ("mystery.csv", "dataset.csv"):
            with pytest.raises(SchemaError, match="no schema"):
                schema_for_file(name)


class TestCsvRoundTrip:
    def traj_rows(self):
        return [
            [0, 0.9, 1.5, 0.2, 0.9, 0.55, 0.7, 0.8, False],
            [1, 0.5, 1.6, 0.1, 0.5, 0.6, 0.72, 0.88, True],
        ]

    def write_traj(self, path):
        sizes = {"loss_class": 2, "neuron_norm": 2, "gc_class": 1}
        write_csv(path, SCHEMAS["trajectory"], self.traj_rows(), sizes)

    def test_write_then_validate(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        self.write_traj(path)
        assert validate_csv(path) == 2

    def test_exact_float_text(self, tmp_path):
        path = tmp_path / "norm_runs.csv"
        value = 1.0 / 3.0
        write_csv(path, SCHEMAS["norm_runs"], [[0, 7, 12, True, value, 2 * value]])
        text = path.read_text()
        assert repr(value) in text
        assert "true" in text
        assert validate_csv(path) == 1

    def test_non_finite_write_refused(self, tmp_path):
        path = tmp_path / "norm_runs.csv"
        with pytest.raises(SchemaError, match="non-finite"):
            write_csv(path, SCHEMAS["norm_runs"], [[0, 7, 12, True, math.nan, 1.0]])

    def test_wrong_row_length_refused(self, tmp_path):
        path = tmp_path / "norm_runs.csv"
        with pytest.raises(SchemaError, match="cells"):
            write_csv(path, SCHEMAS["norm_runs"], [[0, 7, 12, True, 1.0]])

    def test_bad_bool_refused(self, tmp_path):
        path = tmp_path / "norm_runs.csv"
        with pytest.raises(SchemaError, match="bool"):
            write_csv(path, SCHEMAS["norm_runs"], [[0, 7, 12, "yes", 1.0, 1.0]])

    def test_int_kind_rejects_float(self, tmp_path):
        path = tmp_path / "norm_runs.csv"
        with pytest.raises(SchemaError, match="integer"):
            write_csv(path, SCHEMAS["norm_runs"], [[0.5, 7, 12, True, 1.0, 1.0]])

    def test_numpy_cells(self, tmp_path):
        path = tmp_path / "norm_runs.csv"
        rows = [
            [np.int64(0), 7, 2.0, np.bool_(True), np.float64(0.25), np.float32(1.5)],
            [1, np.int32(8), 3, np.bool_(False), 0.5, 1.0],
        ]
        cells = write_csv(path, SCHEMAS["norm_runs"], rows)
        lines = path.read_text().splitlines()
        assert lines[1:] == ["0,7,2,true,0.25,1.5", "1,8,3,false,0.5,1.0"]
        assert [",".join(row) for row in cells] == lines[1:]
        assert validate_csv(path) == 2

    @pytest.mark.parametrize("value", [math.inf, math.nan, np.float64("-inf"), "x", None])
    def test_int_kind_refuses_with_schema_error(self, tmp_path, value):
        path = tmp_path / "norm_runs.csv"
        with pytest.raises(SchemaError, match="expected an integer"):
            write_csv(path, SCHEMAS["norm_runs"], [[0, value, 12, True, 1.0, 1.0]])

    @pytest.mark.parametrize("value", [True, np.bool_(False)])
    def test_int_kind_rejects_python_bool(self, tmp_path, value):
        path = tmp_path / "norm_runs.csv"
        if isinstance(value, bool):
            with pytest.raises(SchemaError, match="expected an integer, got True"):
                write_csv(path, SCHEMAS["norm_runs"], [[value, 7, 12, True, 1.0, 1.0]])
        else:  # numpy bools are integral, as they always were
            write_csv(path, SCHEMAS["norm_runs"], [[value, 7, 12, True, 1.0, 1.0]])
            assert path.read_text().splitlines()[1].startswith("0,7,")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("inf"), np.float32("nan")])
    def test_every_non_finite_float_refused(self, tmp_path, value):
        path = tmp_path / "norm_runs.csv"
        with pytest.raises(SchemaError, match="refusing to write non-finite float"):
            write_csv(path, SCHEMAS["norm_runs"], [[0, 7, 12, True, 1.0, 1.0], [1, 8, 12, True, 1.0, value]])

    @pytest.mark.parametrize(
        "value", ["1.5", "abc", b"1.5", True, np.bool_(False), None, [1.0], 10**400, object()]
    )
    def test_float_kind_refuses_with_schema_error(self, tmp_path, value):
        # A cell's text is also trajectory.json's text, so a str that float()
        # reads must not turn into a JSON number.
        path = tmp_path / "norm_runs.csv"
        with pytest.raises(SchemaError, match="expected a float"):
            write_csv(path, SCHEMAS["norm_runs"], [[0, 7, 12, True, 1.0, value]])
        assert not path.read_text().splitlines()[1:]

    def test_float_kind_accepts_ints_and_numpy_floats(self, tmp_path):
        path = tmp_path / "norm_runs.csv"
        rows = [[0, 7, 12, True, 3, np.int64(-2)], [1, 8, 12, True, np.float32(0.1), np.float64(-0.0)]]
        cells = write_csv(path, SCHEMAS["norm_runs"], rows)
        assert [row[4:] for row in cells] == [["3.0", "-2.0"], ["0.10000000149011612", "-0.0"]]

    def test_unknown_kind_refused(self, tmp_path):
        schema = CsvSchema(name="odd", fixed=(("a", "int"), ("z", "complex")))
        path = tmp_path / "odd.csv"
        with pytest.raises(SchemaError, match="unknown column kind 'complex'"):
            write_csv(path, schema, [[1, 2]])
        path.write_text("a,z\n1,2\n")
        with pytest.raises(SchemaError, match="unknown column kind 'complex'"):
            validate_csv(path, schema)


class TestCsvValidation:
    def corrupt(self, tmp_path, mutate):
        path = tmp_path / "trajectory.csv"
        sizes = {"loss_class": 1, "neuron_norm": 1, "gc_class": 1}
        write_csv(path, SCHEMAS["trajectory"], [[0, 0.9, 1.5, 0.2, 0.9, 0.7, True]], sizes)
        lines = path.read_text().splitlines()
        lines = mutate(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_bad_cell_detected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda ls: [ls[0], ls[1].replace("0.9", "oops", 1)])
        with pytest.raises(SchemaError):
            validate_csv(path)

    def test_missing_fixed_column_detected(self, tmp_path):
        def drop_loss_col(ls):
            return [",".join(f.split(",")[:1] + f.split(",")[2:]) for f in ls]

        with pytest.raises(SchemaError):
            validate_csv(self.corrupt(tmp_path, drop_loss_col))

    def test_dropped_group_column_still_validates(self, tmp_path):
        # group columns are variable-width, so losing a whole trailing group
        # leaves a smaller but legal file
        def drop_col(ls):
            return [",".join(f.split(",")[:-1]) for f in ls]

        assert validate_csv(self.corrupt(tmp_path, drop_col)) == 1

    def test_trailing_column_detected(self, tmp_path):
        def add_col(ls):
            return [ls[0] + ",extra", ls[1] + ",1.0"]

        with pytest.raises(SchemaError, match="trailing"):
            validate_csv(self.corrupt(tmp_path, add_col))

    def test_short_row_detected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda ls: [ls[0], ",".join(ls[1].split(",")[:-1])])
        with pytest.raises(SchemaError, match="cells"):
            validate_csv(path)

    def test_empty_file_detected(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            validate_csv(path)

    def test_bad_cell_names_path_and_line(self, tmp_path):
        path = self.corrupt(tmp_path, lambda ls: [ls[0], ls[1], ls[1].replace("true", "yes")])
        with pytest.raises(SchemaError, match="bool cells must be") as info:
            validate_csv(path)
        assert str(info.value).startswith(f"{path}:3: ")

    def test_blank_row_detected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda ls: [ls[0], ls[1], ""])
        with pytest.raises(SchemaError, match=":3: expected 7 cells, got 0"):
            validate_csv(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("0,", "0.5,", "invalid literal for int"),
            ("0.9", "inf", "non-finite float 'inf'"),
            ("0.9", "nan", "non-finite float 'nan'"),
            ("1.5", "-inf", "non-finite float '-inf'"),
            ("true", "True", "bool cells must be"),
        ],
    )
    def test_bad_cell_error_names_its_line(self, tmp_path, old, new, message):
        path = self.corrupt(tmp_path, lambda ls: [ls[0], ls[1], ls[1], ls[1].replace(old, new, 1), ls[1]])
        with pytest.raises(SchemaError, match=message) as info:
            validate_csv(path)
        assert str(info.value).startswith(f"{path}:4: ")

    def test_header_only_has_no_rows(self, tmp_path):
        assert validate_csv(self.corrupt(tmp_path, lambda ls: ls[:1])) == 0

    def test_explicit_schema_overrides_name(self, tmp_path):
        path = tmp_path / "anything.csv"
        write_csv(path, SCHEMAS["histogram"], [[0.0, 1.0, 5]])
        assert validate_csv(path, SCHEMAS["histogram"]) == 1


class TestJson:
    def test_sorted_and_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, {"zeta": 1, "alpha": {"b": 2, "a": 3}})
        write_json(p2, {"alpha": {"a": 3, "b": 2}, "zeta": 1})
        t1 = p1.read_text()
        assert t1 == p2.read_text()
        assert t1.index('"alpha"') < t1.index('"zeta"')
        assert t1.endswith("\n")

    def test_numpy_and_nonfinite_values(self, tmp_path):
        path = tmp_path / "x.json"
        payload = {
            "n": np.int64(4),
            "x": np.float64(0.5),
            "arr": np.arange(3),
            "bad": float("nan"),
            "worse": float("inf"),
            "flag": np.bool_(True),
            "nested": [np.float32(1.5), {"deep": np.nan}],
        }
        write_json(path, payload)
        back = json.loads(path.read_text())
        assert back["n"] == 4
        assert back["x"] == 0.5
        assert back["arr"] == [0, 1, 2]
        assert back["bad"] is None
        assert back["worse"] is None
        assert back["flag"] is True
        assert back["nested"][0] == 1.5
        assert back["nested"][1]["deep"] is None

    def test_to_jsonable_tuple_becomes_list(self, tmp_path):
        assert to_jsonable((1, 2)) == [1, 2]
        path = tmp_path / "t.json"
        write_json(path, {"pair": (1, 2)})
        assert json.loads(path.read_text()) == {"pair": [1, 2]}

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [{}, [[]], ()], "d": {"e": {"f": []}}},
            (1, (2.5, "x"), [(), {"k": (None,)}]),
            {"i": np.int64(-3), "i32": np.int32(7), "u8": np.uint8(255), "f": np.float64(0.1), "f32": np.float32(1.1)},
            {"b": [np.bool_(True), np.bool_(False), True, False], "none": None},
            {"arr": np.arange(6).reshape(2, 3), "farr": np.array([0.5, np.nan, -np.inf]), "empty": np.zeros((0,))},
            {"boolarr": np.array([True, False]), "strs": np.array(["a", "b"])},
            [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf")],
            [0.0, -0.0, 1e-320, 1e308, 1 / 3, 2**53 + 1, -(10**30)],
            {1: "int key", 2.5: "float key", None: "none key", True: "bool key", (1, 2): "tuple key"},
            {"10": 0, "9": 1, "a": 2, "B": 3, "": 4},
            {1: "int key first", "1": "str key last", "x": {2.0: "float", "2.0": "str"}},
            {"non-ascii": "\u00e9\u4e2d\U0001f600", "esc": "tab\tquote\"back\\slash\n\x00", "caf\u00e9": 1},
            "top-level string",
            3.5,
            None,
            [[[1.0, 2.0], [3.0]], [{"x": [1, {"y": [2.0, 3.0]}]}]],
        ],
        ids=[
            "empty-dict",
            "empty-list",
            "empty-tuple",
            "nested-empties",
            "tuples",
            "numpy-numbers",
            "bools-and-none",
            "arrays",
            "bool-and-str-arrays",
            "non-finite",
            "float-and-int-edges",
            "non-str-keys",
            "key-order",
            "colliding-keys",
            "strings",
            "top-str",
            "top-float",
            "top-none",
            "deep-mixed",
        ],
    )
    def test_matches_reference_encoder(self, tmp_path, payload):
        path = tmp_path / "x.json"
        write_json(path, payload)
        assert path.read_text() == reference_json(payload)

    @pytest.mark.parametrize("bad", [object(), {1, 2}, 1j, b"bytes", {"deep": [1, {"x": object()}]}])
    def test_unknown_object_raises_type_error(self, tmp_path, bad):
        with pytest.raises(TypeError) as expected:
            reference_json(bad)
        with pytest.raises(TypeError) as got:
            write_json(tmp_path / "x.json", bad)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("flush_every", [1, 7, 4096])
    def test_long_payload_written_in_flushes(self, tmp_path, monkeypatch, flush_every):
        monkeypatch.setattr("reluphase.tableio._FLUSH_PIECES", flush_every)
        payload = {
            "records": [
                {"t": t, "norms": [t / 7.0, math.nan], "flags": {"1": t % 2 == 0}, "nested": [{"a": []}]}
                for t in range(3000)
            ]
        }
        path = tmp_path / "x.json"
        write_json(path, payload)
        assert path.read_text() == reference_json(payload)

    def test_every_command_json_matches_reference(self, tmp_path, monkeypatch):
        from test_exports import TINY_CONFIGS

        written = []

        def recording_write_json(path, obj):
            write_json(path, obj)
            written.append((path, reference_json(obj)))

        monkeypatch.setattr(experiments, "write_json", recording_write_json)
        for name, cfg in TINY_CONFIGS.items():
            experiments.run_command(name, cfg, str(tmp_path / name))
        names = {os.path.relpath(path, tmp_path) for path, _ in written}
        for command in TINY_CONFIGS:
            assert os.path.join(command, "config.json") in names
        assert len(names) > len(TINY_CONFIGS)
        for path, expected in written:
            with open(path) as fh:
                assert fh.read() == expected, path


def result_json(result, reports) -> dict:
    """Oracle: the trajectory.json object the train command once passed to write_json."""
    return {
        "stop_reason": result.stop_reason,
        "converged_at": result.converged_at,
        "max_weight_norm": result.max_weight_norm,
        "diverged": result.diverged,
        "trained_classes": list(result.data_labels),
        "records": [
            {
                "t": rec.t,
                "loss": rec.loss,
                "loss_per_class": {str(k): v for k, v in sorted(rec.loss_per_class.items())},
                "neuron_norms": rec.neuron_norms.tolist(),
                "weight_norm": rec.weight_norm,
                "grad_norm": rec.grad_norm,
                "gc_flags": {str(c): rep.gc_timeline[i] for c, rep in reports.items()},
            }
            for i, rec in enumerate(result.records)
        ],
    }


class TestRecordsJson:
    HEAD = {"stop_reason": "converged", "converged_at": None, "max_weight_norm": np.float64(2.5), "diverged": False}

    @staticmethod
    def rows(count, classes, k, flags):
        floats = [0.0, -0.0, 1e-320, 1e308, 1 / 3, 0.1, 2.0**-60, 123456.789]
        for t in range(count):
            row = [t] + [floats[(t + j) % len(floats)] for j in range(3 + classes + k)]
            yield row + [(t + j) % 3 == 0 for j in range(flags)]

    @pytest.mark.parametrize(
        "count, classes, k, flags",
        [(5, 12, 3, 11), (3, 1, 0, 1), (4, 2, 8, 0), (2, 0, 0, 0), (0, 2, 3, 2), (1, 1, 24, 1)],
        ids=["ten-plus-classes", "no-neurons", "no-flags", "only-fixed", "no-records", "one-record"],
    )
    def test_matches_the_dict_a_record_was_built_from(self, tmp_path, count, classes, k, flags):
        sizes = {"loss_class": classes, "neuron_norm": k, "gc_class": flags}
        head = {**self.HEAD, "trained_classes": list(range(1, classes + 1))}
        schema = SCHEMAS["trajectory"]
        cells = write_csv(tmp_path / "trajectory.csv", schema, self.rows(count, classes, k, flags), sizes)
        write_records_json(tmp_path / "trajectory.json", head, schema, cells, sizes)
        records = []
        for row in self.rows(count, classes, k, flags):
            losses, norms, marks = row[4 : 4 + classes], row[4 + classes : 4 + classes + k], row[4 + classes + k :]
            records.append(
                {
                    "t": row[0],
                    "loss": row[1],
                    "weight_norm": row[2],
                    "grad_norm": row[3],
                    "loss_per_class": {i + 1: v for i, v in enumerate(losses)},
                    "neuron_norms": norms,
                    "gc_flags": {i + 1: v for i, v in enumerate(marks)},
                }
            )
        text = (tmp_path / "trajectory.json").read_text()
        assert text == reference_json({**head, "records": records})
        if classes >= 10 and count:
            first = json.loads(text)["records"][0]
            assert list(first["loss_per_class"])[:4] == ["1", "10", "11", "12"]
            assert list(first["gc_flags"])[:4] == ["1", "10", "11", "2"]


class TestTrajectoryJson:
    """trajectory.json, rendered from trajectory.csv's cells, against the dict the train command used to write."""

    def run_train(self, monkeypatch, tmp_path, mapping, execute=None):
        execute = execute or experiments.execute_run
        results = []

        def recording(spec):
            result, data = execute(spec)
            results.append(result)
            return result, data

        monkeypatch.setattr(experiments, "execute_run", recording)
        out = tmp_path / "train"
        experiments.run_command("train", mapping, str(out))
        (result,) = results
        reports = {c: experiments.detect_phases(result, c) for c in result.data_labels}
        return (out / "trajectory.json").read_text(), reference_json(result_json(result, reports)), result

    @pytest.mark.parametrize(
        "mapping",
        [
            {"width": 6, "max_iters": 300},
            {"width": 8, "max_iters": 300, "seed": 5},
            {"width": 14, "seed": 4},
            {"width": 24, "seed": 5},
            {"task": "subspace-pair", "width": 8, "max_iters": 200, "seed": 2},
        ],
        ids=["planar-6", "planar-8", "planar-14", "planar-24", "subspace-pair"],
    )
    def test_train_matches_oracle(self, monkeypatch, tmp_path, mapping):
        text, expected, result = self.run_train(monkeypatch, tmp_path, mapping)
        assert text == expected
        assert len(result.records) > 1

    def test_divergent_train_matches_oracle(self, monkeypatch, tmp_path):
        text, expected, result = self.run_train(monkeypatch, tmp_path, {"eta": 1e306, "max_iters": 50})
        assert result.stop_reason == "nonfinite"
        assert text == expected

    def test_dead_start_matches_oracle(self, monkeypatch, tmp_path):
        def dead_start(spec):
            data = experiments.build_task(spec.task, spec.theta, spec.noise_std, Rng(spec.seed).child(1))
            params = experiments.network_params(np.zeros((data.dim, spec.width)), spec.output_map(), spec.biases)
            with pytest.warns(RuntimeWarning, match="cannot start learning"):
                return experiments.train(params, data, spec.train_config()), data

        text, expected, result = self.run_train(monkeypatch, tmp_path, {"width": 6}, dead_start)
        assert result.stop_reason == "dead_start" and len(result.records) == 1
        assert text == expected

    def test_nan_record_fails_in_csv_writer_and_leaves_no_json(self, monkeypatch, tmp_path):
        original = experiments.execute_run

        def nan_record(spec):
            result, data = original(spec)
            result.records[2].grad_norm = math.nan
            return result, data

        monkeypatch.setattr(experiments, "execute_run", nan_record)
        out = tmp_path / "train"
        with pytest.raises(SchemaError, match="refusing to write non-finite float nan"):
            experiments.run_command("train", {"width": 6, "max_iters": 20}, str(out))
        assert (out / "trajectory.csv").exists()
        assert not (out / "trajectory.json").exists()


def assert_valid_svg(text):
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    return root


class TestCharts:
    def test_line_chart(self):
        xs = list(range(10))
        ys = [math.sin(x) for x in xs]
        svg = line_chart([("loss", xs, ys)], "demo", "t", "loss")
        assert_valid_svg(svg)
        assert "demo" in svg
        assert svg == line_chart([("loss", xs, ys)], "demo", "t", "loss")

    def test_line_chart_multiple_series_and_log_like_range(self):
        svg = line_chart(
            [("a", [0, 1, 2], [1.0, 10.0, 100.0]), ("b", [0, 1, 2], [5.0, 5.0, 5.0])],
            "two series",
            "x",
            "y",
        )
        assert_valid_svg(svg)
        assert "two series" in svg

    def test_line_chart_leaves_nan_points_out(self):
        gap = line_chart([("a", [0, 1, 2], [1.0, math.nan, 3.0]), ("b", [0, 2], [2.0, 2.0])], "t", "x", "y")
        assert gap == line_chart([("a", [0, 2], [1.0, 3.0]), ("b", [0, 2], [2.0, 2.0])], "t", "x", "y")
        assert "nan" not in gap
        # With no known y the frame, its x ticks and the legend are still drawn.
        blank = line_chart([("a", [6, 10], [math.nan, math.nan])], "t", "x", "y")
        assert_valid_svg(blank)
        assert "<polyline" not in blank and "nan" not in blank
        assert ">10</text>" in blank and ">a</text>" in blank

    def test_line_chart_draws_a_lone_point_as_a_dot(self):
        # One known point makes no line, so it gets a dot in its colour; a
        # series with two points keeps its line and gets none.
        svg = line_chart([("a", [6, 10], [math.nan, 4.0]), ("b", [6, 10], [2.0, 3.0])], "t", "x", "y")
        assert_valid_svg(svg)
        dots = re.findall(r'<circle cx="([^"]*)" cy="([^"]*)" r="3" fill="([^"]*)"', svg)
        lines = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="([^"]*)"', svg)
        assert [colour for _, _, colour in dots] == [svgplot.PALETTE[0]]
        assert [(len(points.split()), colour) for points, colour in lines] == [(2, svgplot.PALETTE[1])]
        # The dot sits where the line's vertex for that point would.
        alone = line_chart([("a", [6, 10], [1.0, 4.0]), ("b", [6, 10], [2.0, 3.0])], "t", "x", "y")
        vertex = re.search(r'<polyline points="([^"]*)"', alone).group(1).split()[1]
        assert ",".join(dots[0][:2]) == vertex

    def test_line_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart([], "t", "x", "y")

    def test_box_chart(self):
        groups = [
            ("w6", (10.0, 20.0, 30.0, 40.0, 50.0), 0),
            ("w12", (5.0, 8.0, 12.0, 20.0, 22.0), 1),
        ]
        svg = box_chart(groups, "spread", "iterations")
        assert_valid_svg(svg)
        assert svg == box_chart(groups, "spread", "iterations")
        assert "w12" in svg

    def test_histogram_chart(self):
        edges = [0.0, 1.0, 2.0, 3.0]
        counts = [4, 0, 7]
        svg = histogram_chart(edges, counts, "hist", "value")
        assert_valid_svg(svg)
        assert svg == histogram_chart(edges, counts, "hist", "value")

    def test_histogram_edges_mismatch(self):
        with pytest.raises(ValueError):
            histogram_chart([0.0, 1.0], [1, 2], "bad", "x")

    def test_title_markup_escaped_as_before(self):
        title = 'a & b <c> "q" \'r\' &amp;'
        svg = line_chart([("s & <t>", [0, 1], [0.0, 1.0])], title, "x<1", "y>0")
        assert f">{escape(title)}</text>" in svg
        assert ">a &amp; b &lt;c&gt; \"q\" 'r' &amp;amp;</text>" in svg
        texts = [el.text for el in assert_valid_svg(svg).iter() if el.tag.endswith("text")]
        assert title in texts and "x<1" in texts and "y>0" in texts
        for text in ["", "plain", "&&<<>>", "]]>", "\u00e9 & \u4e2d"]:
            assert svgplot._escape(text) == escape(text)

    def test_dynamics_frame(self):
        angles = np.linspace(0.0, 2 * math.pi, 32)
        svg = dynamics_frame(
            points=np.array([[0.5, 0.1], [0.2, 0.6]]),
            pos_dirs=np.array([[1.0, 0.0], [0.0, 1.0]]),
            neg_weights=np.array([[-0.3, 0.1]]),
            rho_angles=angles,
            rho_values=np.full(32, 0.8),
            title="t = 5",
        )
        assert_valid_svg(svg)
        assert "t = 5" in svg
