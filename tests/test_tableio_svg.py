import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from reluphase.svgplot import box_chart, dynamics_frame, histogram_chart, line_chart
from reluphase.tableio import (
    SCHEMAS,
    SchemaError,
    schema_for_file,
    to_jsonable,
    validate_csv,
    write_csv,
    write_json,
)


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

    def test_to_jsonable_tuple_becomes_list(self):
        assert to_jsonable((1, 2)) == [1, 2]


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
