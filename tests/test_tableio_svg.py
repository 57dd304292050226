import csv
import io
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
        # A str that float() reads is still not a float.
        path = tmp_path / "norm_runs.csv"
        with pytest.raises(SchemaError, match="expected a float"):
            write_csv(path, SCHEMAS["norm_runs"], [[0, 7, 12, True, 1.0, value]])
        assert not path.exists()

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


def oracle_cell(kind: str, value) -> str:
    """Oracle: one cell's text under the per-cell rules of the row-by-row writer."""
    if kind == "int":
        try:
            if not isinstance(value, bool) and int(value) == value:
                return str(int(value))
        except (TypeError, ValueError, OverflowError):
            pass
        raise SchemaError(f"expected an integer, got {value!r}")
    if kind == "float":
        if not isinstance(value, float) and isinstance(value, (str, bytes, bool, np.bool_)):
            raise SchemaError(f"expected a float, got {value!r}")
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"expected a float, got {value!r}") from None
        if not math.isfinite(number):
            raise SchemaError(f"refusing to write non-finite float {number!r}")
        return repr(number)
    if kind == "bool":
        if not isinstance(value, (bool, np.bool_)):
            raise SchemaError(f"expected a bool, got {value!r}")
        return "true" if value else "false"
    return str(value)


def oracle_csv(schema, rows, sizes=None) -> tuple[str, list[list[str]]]:
    """Oracle: the file text and cells of csv.writer fed row by row with oracle_cell's texts."""
    kinds = schema.kinds(sizes)
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(schema.header(sizes))
    cells = []
    for row in rows:
        if len(row) != len(kinds):
            raise SchemaError(f"row has {len(row)} cells, schema {schema.name} expects {len(kinds)}")
        cells.append([oracle_cell(kind, v) for kind, v in zip(kinds, row)])
        writer.writerow(cells[-1])
    return buffer.getvalue(), cells


def assert_write_csv_matches_oracle(path, schema, table, sizes=None):
    """write_csv's file and cells for a table (rows, or a dict of columns) equal the oracle's for its rows,
    or both refuse with one message and write_csv writes nothing."""
    rows = list(zip(*table.values())) if isinstance(table, dict) else table
    try:
        expected = oracle_csv(schema, rows, sizes)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            write_csv(path, schema, table, sizes)
        assert str(got.value) == str(exc)
        assert not os.path.exists(path)
        return None
    cells = write_csv(path, schema, table, sizes)
    with open(path, newline="") as fh:
        assert (fh.read(), cells) == expected
    return cells


# Edge values for each column kind: every one is written (or refused) by the
# per-cell rules, whatever the column it sits in.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-05, 2.0**53 + 2, 1 / 3, 1e308, 123456.789]
EDGE_INTS = [0, -1, 7, 2**63, -(2**70), np.int64(-3), np.int32(12), np.uint8(255), 4.0, np.float64(-2.0), np.bool_(True)]
EDGE_STRS = ["random", "", "a,b", 'say "hi"', "two\nlines", " padded ", "caf\u00e9"]
REFUSED = {"int": [math.nan, 0.5, "3"], "float": [math.nan, -math.inf, "0.5"], "bool": [1, None, "true"]}


class TestWriteCsvOracle:
    """write_csv, a column at a time, against csv.writer fed row by row under the per-cell rules."""

    @staticmethod
    def random_column(rng, kind: str, count: int) -> list:
        pick = lambda pool: [pool[i] for i in rng.integers(0, len(pool), count)]  # noqa: E731
        if kind == "int":
            return pick(EDGE_INTS)
        if kind == "bool":
            return pick([True, False, np.bool_(True), np.bool_(False)])
        if kind == "str":
            return pick(EDGE_STRS)
        style = rng.integers(0, 4)
        if style == 0:  # a float64 array
            return rng.standard_normal(count) * 10.0 ** rng.integers(-8, 17, count)
        if style == 1:  # Python floats, edge values among them
            return pick(EDGE_FLOATS + (rng.standard_normal(8) * 1e3).tolist())
        if style == 2:  # a float32 array, whose float64 texts are longer
            return rng.standard_normal(count).astype(np.float32)
        return pick(EDGE_FLOATS + [3, np.int64(-2), np.float32(0.1), np.float16(0.5), 2**80])

    @staticmethod
    def random_sizes(rng, schema) -> dict[str, int]:
        return {g.prefix: int(rng.integers(0, 5)) for g in schema.groups}

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_random_tables_match_oracle(self, tmp_path, name):
        schema = SCHEMAS[name]
        rng = np.random.default_rng(sorted(SCHEMAS).index(name))
        for trial in range(12):
            sizes = self.random_sizes(rng, schema)
            count = int(rng.integers(0, 40))
            columns = [self.random_column(rng, kind, count) for kind in schema.kinds(sizes)]
            floats = [i for i, kind in enumerate(schema.kinds(sizes)) if kind == "float"]
            if len(floats) >= 2 and trial % 2:  # a column with an earlier column's bits, or all its values but a sign
                a, b = floats[0], floats[-1]
                columns[b] = list(columns[a])
                if trial % 4 == 3 and count:
                    columns[a][0], columns[b][0] = 0.0, -0.0
            if trial % 3 == 2 and count:  # refused cells at random places: the first in row order is named
                kinds = schema.kinds(sizes)
                for _ in range(int(rng.integers(1, 4))):
                    col = int(rng.integers(0, len(kinds)))
                    if kinds[col] != "str":
                        bad = REFUSED[kinds[col]][int(rng.integers(0, 3))]
                        if not isinstance(bad, float):  # a float64 array would convert a str
                            columns[col] = list(columns[col])
                        columns[col][int(rng.integers(0, count))] = bad
            rows = [list(row) for row in zip(*columns)]
            path = tmp_path / f"{name}_{trial}.csv"
            if assert_write_csv_matches_oracle(path, schema, rows, sizes) is not None:
                assert validate_csv(path, schema) == count
            by_name = dict(zip(schema.header(sizes), columns))
            assert_write_csv_matches_oracle(tmp_path / f"{name}_{trial}_columns.csv", schema, by_name, sizes)

    def test_equal_values_with_other_bits_get_their_own_texts(self, tmp_path):
        rows = [[0, 1, 2, True, 0.0, -0.0], [1, 2, 3, False, -0.0, 0.0], [2, 3, 4, True, 1.5, 1.5]]
        cells = assert_write_csv_matches_oracle(tmp_path / "norm_runs.csv", SCHEMAS["norm_runs"], rows)
        assert [row[4:] for row in cells] == [["0.0", "-0.0"], ["-0.0", "0.0"], ["1.5", "1.5"]]

    @pytest.mark.parametrize(
        "bad, cell",
        [
            (math.nan, (3, 4)),
            (np.float64("inf"), (0, 5)),
            ("1.5", (2, 4)),
            (None, (1, 5)),
            (b"2", (4, 4)),
            (True, (4, 5)),
            (1.5, (2, 0)),
            (math.inf, (3, 2)),
            ("yes", (1, 3)),
        ],
        ids=["nan-in-float64", "inf-in-float64", "str-in-floats", "none-in-floats", "bytes", "bool-in-floats",
             "float-in-ints", "inf-in-ints", "str-in-bools"],
    )
    def test_refusal_matches_oracle(self, tmp_path, bad, cell):
        rng = np.random.default_rng(5)
        schema = SCHEMAS["norm_runs"]
        columns = [list(range(6)), list(range(7, 13)), list(range(6)), [True] * 6,
                   rng.standard_normal(6), rng.standard_normal(6).tolist()]
        row, col = cell
        if not isinstance(bad, float):  # a str, bytes, None or bool sits in a list column
            columns[col] = list(columns[col])
        columns[col][row] = bad
        rows = [list(r) for r in zip(*columns)]
        assert_write_csv_matches_oracle(tmp_path / "norm_runs.csv", schema, rows)
        assert_write_csv_matches_oracle(tmp_path / "norm_runs.csv", schema, dict(zip(schema.header(), columns)))
        # A second refused cell in an earlier row, but a later column, is the one named.
        if row and col < 5:
            columns[5][row - 1] = math.nan
            rows = [list(r) for r in zip(*columns)]
            with pytest.raises(SchemaError, match="refusing to write non-finite float nan"):
                write_csv(tmp_path / "norm_runs.csv", schema, rows)
            assert_write_csv_matches_oracle(tmp_path / "norm_runs.csv", schema, rows)

    def test_row_length_refusal_keeps_row_order(self, tmp_path):
        schema = SCHEMAS["histogram"]
        good = [0.0, 1.0, 3]
        for rows in ([good, [0.0, 1.0], [math.nan, 1.0, 2]], [good, [math.nan, 1.0, 2], [0.0, 1.0]]):
            assert_write_csv_matches_oracle(tmp_path / "histogram.csv", schema, rows)

    def test_columns_must_name_the_header_and_match_in_length(self, tmp_path):
        schema = SCHEMAS["histogram"]
        path = tmp_path / "histogram.csv"
        with pytest.raises(SchemaError, match=r"columns \['bin_hi', 'bin_lo', 'count'\] are not the header"):
            write_csv(path, schema, {"bin_hi": [1.0], "bin_lo": [0.0], "count": [1]})
        with pytest.raises(SchemaError, match=r"columns of unequal lengths \[2, 1, 1\]"):
            write_csv(path, schema, {"bin_lo": np.zeros(2), "bin_hi": [1.0], "count": [1]})
        assert not path.exists()

    def test_rows_may_be_any_iterable_of_sequences(self, tmp_path):
        schema = SCHEMAS["histogram"]
        rows = [(0.0, 0.5, 2), (0.5, 1.0, np.int64(3))]
        cells = write_csv(tmp_path / "histogram.csv", schema, iter(rows))
        assert cells == oracle_csv(schema, rows)[1] == [["0.0", "0.5", "2"], ["0.5", "1.0", "3"]]


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

    @pytest.mark.parametrize(
        "column, text, message",
        [
            (4, " 1.5", "float cells hold no whitespace or '_', got ' 1.5'"),
            (4, "1.5 ", "float cells hold no whitespace or '_', got '1.5 '"),
            (5, "1_5.0", "float cells hold no whitespace or '_', got '1_5.0'"),
            (5, "1.5\u00a0", "float cells hold no whitespace or '_', got '1.5\\xa0'"),
            (0, "1_0", "int cells must be written as 10, got '1_0'"),
            (1, "+1", "int cells must be written as 1, got '+1'"),
            (2, " 12 ", "int cells must be written as 12, got ' 12 '"),
            (2, "012", "int cells must be written as 12, got '012'"),
            (0, "-0", "int cells must be written as 0, got '-0'"),
        ],
    )
    def test_refuses_cells_the_writer_never_writes(self, tmp_path, column, text, message):
        path = tmp_path / "norm_runs.csv"
        write_csv(path, SCHEMAS["norm_runs"], [[r, 7 + r, 12, True, 1.5, 2.5] for r in range(3)])
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = text
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as info:
            validate_csv(path)
        assert str(info.value) == f"{path}:3: {message}"


def oracle_validate(path, schema) -> int:
    """Oracle: validate_csv's verdict, parsing row by row and cell by cell."""

    def parse(kind, cell):
        if kind == "int" and str(int(cell)) != cell:
            raise ValueError(f"int cells must be written as {int(cell)}, got {cell!r}")
        if kind == "float":
            if re.search(r"[\s_]", cell):
                raise ValueError(f"float cells hold no whitespace or '_', got {cell!r}")
            if not math.isfinite(float(cell)):
                raise ValueError(f"non-finite float {cell!r}")
        if kind == "bool" and cell not in ("true", "false"):
            raise ValueError(f"bool cells must be 'true' or 'false', got {cell!r}")

    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    kinds = schema.kinds(header_group_sizes(schema, header))
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(kinds):
            raise SchemaError(f"{path}:{lineno}: expected {len(kinds)} cells, got {len(row)}")
        for kind, cell in zip(kinds, row):
            try:
                parse(kind, cell)
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return len(rows)


def header_group_sizes(schema, header) -> dict[str, int]:
    """The group sizes a trajectory header spells out."""
    return {g.prefix: sum(name.startswith(g.prefix + "_") for name in header) for g in schema.groups}


def schema_text(schema, sizes, cells) -> str:
    """A CSV file's text: the header row, then the cells."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows([schema.header(sizes), *cells])
    return buffer.getvalue()


CELL_TEXTS = {
    "int": ["3", "-4", "0", "+1", "1_0", " 12 ", "012", "-0", "1.0", "", "\u0661", "99999999999999999999"],
    "float": ["1.5", "-0.0", "5e-324", "1e+16", " 1.5", "1.5 ", "1_5.0", "inf", "-nan", "oops", "", "1e400", "\t2.0"],
    "bool": ["true", "false", "True", "", " true"],
}


class TestValidateCsvOracle:
    @pytest.mark.parametrize(
        "kind, text",
        [(kind, text) for kind, texts in CELL_TEXTS.items() for text in texts],
        ids=[f"{kind}-{text!r}" for kind, texts in CELL_TEXTS.items() for text in texts],
    )
    def test_single_cell_verdict_matches_oracle(self, tmp_path, kind, text):
        """One cell of a one-row file holds the text: the verdict, and any reason, is the per-cell one."""
        schema = SCHEMAS["norm_runs"]
        cells = ["0", "7", "12", "true", "1.5", "2.5"]
        cells[schema.kinds().index(kind)] = text
        path = tmp_path / "norm_runs.csv"
        path.write_text(schema_text(schema, None, [cells]))
        try:
            expected = oracle_validate(path, schema)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as got:
                validate_csv(path)
            assert str(got.value) == str(exc)
        else:
            assert validate_csv(path) == expected == 1

    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_corrupted_files_match_oracle(self, tmp_path, monkeypatch, block):
        """Random cells of a trajectory file replaced, read in blocks of rows: the verdict is the row-by-row one."""
        monkeypatch.setattr("reluphase.tableio._VALIDATE_ROWS", block)
        schema = SCHEMAS["trajectory"]
        sizes = {"loss_class": 2, "neuron_norm": 3, "gc_class": 1}
        kinds = schema.kinds(sizes)
        rng = np.random.default_rng(block)
        rows = [[t, *rng.standard_normal(8).tolist(), bool(t % 2)] for t in range(10)]
        path = tmp_path / "trajectory.csv"
        for trial in range(60):
            cells = write_csv(path, schema, rows, sizes)
            for _ in range(int(rng.integers(0, 4))):
                r, c = int(rng.integers(0, len(cells))), int(rng.integers(0, len(kinds)))
                pool = CELL_TEXTS[kinds[c]]
                cells[r][c] = pool[int(rng.integers(0, len(pool)))]
            if trial % 10 == 9:  # a row with a cell too many or too few
                r = int(rng.integers(0, len(cells)))
                cells[r] = cells[r][:-1] if trial % 20 == 9 else cells[r] + ["1"]
            path.write_text(schema_text(schema, sizes, cells))
            try:
                expected = oracle_validate(path, schema)
            except SchemaError as exc:
                with pytest.raises(SchemaError) as got:
                    validate_csv(path)
                assert str(got.value) == str(exc)
            else:
                assert validate_csv(path) == expected == len(rows)


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
            {
                "times": list(range(40)),
                "timeline": [t % 3 == 0 for t in range(40)],
                "one": [7],
                "lone_flag": [False],
                "mixed": [1, True, 0, False],
                "deep": {"t": (3, -4, 2**70), "lists": [[1, 2], [True], (False, True)]},
                "numpy": [np.int64(1), 2, np.bool_(True)],
            },
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
            "int-and-bool-lists",
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

    @pytest.mark.parametrize("n_records", [1, 7, 4096])
    def test_long_payload_written_in_flushes(self, tmp_path, n_records):
        """A payload of n records, joined and written in one flush, is reference_json's text."""
        payload = {
            "records": [
                {"t": t, "norms": [t / 7.0, math.nan], "flags": {"1": t % 2 == 0}, "nested": [{"a": []}]}
                for t in range(n_records)
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


def test_every_command_csv_matches_oracle(tmp_path, monkeypatch):
    """Each table a command writes is csv.writer's text under the per-cell rules, and the row-by-row reader accepts it."""
    from test_exports import TINY_CONFIGS

    written = []

    def recording_write_csv(path, schema, table, group_sizes=None):
        cells = assert_write_csv_matches_oracle(path, schema, table, group_sizes)
        written.append((path, schema, cells))
        return cells

    monkeypatch.setattr(experiments, "write_csv", recording_write_csv)
    for name, cfg in TINY_CONFIGS.items():
        experiments.run_command(name, cfg, str(tmp_path / name))
    assert {schema.name for _, schema, _ in written} == set(SCHEMAS)
    for path, schema, cells in written:
        assert oracle_validate(path, schema) == len(cells), path


def result_json(result) -> dict:
    """Oracle: the trajectory.json object, the run's head without its records."""
    return {
        "stop_reason": result.stop_reason,
        "converged_at": result.converged_at,
        "max_weight_norm": result.max_weight_norm,
        "diverged": result.diverged,
        "trained_classes": list(result.data_labels),
    }


def loss_curve_oracle(result) -> str:
    """Oracle: the loss curve's points, each mapped and formatted on its own as line_chart once did."""
    xs = np.array([rec.t for rec in result.records], dtype=float)
    ys = np.array([rec.loss for rec in result.records], dtype=float)
    ylo, yhi = ys.min(), ys.max()
    frame = svgplot._Frame(
        svgplot._Canvas(640, 430), svgplot._pad(xs.min(), xs.max()),
        svgplot._pad(min(ylo, 0.0) if ylo > 0 else ylo, yhi), "", "", "",
    )
    return " ".join(f"{svgplot._fmt(frame.px(x))},{svgplot._fmt(frame.py(y))}" for x, y in zip(xs, ys))


def assert_train_outputs_match_oracles(out, result, reports):
    """trajectory.csv against a row-by-row rendering of the records, loss_curve.svg's points
    against per-point formatting, and phase_report.json against the reference encoder."""
    rows = [
        [rec.t, rec.loss, rec.weight_norm, rec.grad_norm]
        + [rec.loss_per_class[c] for c in result.data_labels]
        + rec.neuron_norms.tolist()
        + [rep.gc_timeline[i] for rep in reports.values()]
        for i, rec in enumerate(result.records)
    ]
    sizes = {"loss_class": len(result.data_labels), "neuron_norm": result.params.k, "gc_class": len(reports)}
    with open(out / "trajectory.csv", newline="") as fh:
        assert fh.read() == oracle_csv(SCHEMAS["trajectory"], rows, sizes)[0]
    svg = (out / "loss_curve.svg").read_text()
    points = loss_curve_oracle(result)
    if len(result.records) == 1:
        cx, cy = points.split(",")
        assert f'<circle cx="{cx}" cy="{cy}" r="3"' in svg and "<polyline" not in svg
    else:
        assert re.findall(r'<polyline points="([^"]*)"', svg) == [points]
    phase_report = {f"class_{c}": rep.to_json_dict() for c, rep in reports.items()}
    assert (out / "phase_report.json").read_text() == reference_json(phase_report)


class TestTrajectoryJson:
    """trajectory.json against the run's head, and trajectory.csv, loss_curve.svg and phase_report.json against
    their oracles."""

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
        assert_train_outputs_match_oracles(out, result, reports)
        return (out / "trajectory.json").read_text(), reference_json(result_json(result)), result

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
            result.records.grad_norm[2] = math.nan
            return result, data

        monkeypatch.setattr(experiments, "execute_run", nan_record)
        out = tmp_path / "train"
        with pytest.raises(SchemaError, match="refusing to write non-finite float nan"):
            experiments.run_command("train", {"width": 6, "max_iters": 20}, str(out))
        assert not (out / "trajectory.csv").exists()
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

    def test_line_chart_points_match_per_point_oracle(self, monkeypatch):
        # Each point mapped by the chart's own frame one at a time, as scalars, and formatted by _fmt.
        frames = []

        class RecordingFrame(svgplot._Frame):
            def __init__(self, *args):
                super().__init__(*args)
                frames.append(self)

        monkeypatch.setattr(svgplot, "_Frame", RecordingFrame)
        rng = np.random.default_rng(3)
        for trial in range(30):
            series = []
            for i in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, 30))
                xs = np.sort(rng.integers(0, 5000, n)).tolist() if trial % 2 else rng.standard_normal(n) * 1e3
                ys = rng.standard_normal(n) * 10.0 ** int(rng.integers(-6, 6))
                ys[rng.random(n) < 0.2] = math.nan
                series.append((f"s{i}", xs, ys.tolist()))
            svg = line_chart(series, "t", "x", "y")
            frame = frames[-1]
            lines, dots = [], []
            for i, (_, xs, ys) in enumerate(series):
                pts = [(frame.px(x), frame.py(y)) for x, y in zip(np.asarray(xs, float), np.asarray(ys)) if not math.isnan(y)]
                marks = [(f"{svgplot._fmt(x)},{svgplot._fmt(y)}", svgplot.PALETTE[i]) for x, y in pts]
                if len(marks) == 1:
                    dots += marks
                elif marks:
                    lines.append((" ".join(text for text, _ in marks), svgplot.PALETTE[i]))
            assert re.findall(r'<polyline points="([^"]*)" fill="none" stroke="([^"]*)"', svg) == lines
            found = re.findall(r'<circle cx="([^"]*)" cy="([^"]*)" r="3" fill="([^"]*)"', svg)
            assert [(f"{cx},{cy}", colour) for cx, cy, colour in found] == dots

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
