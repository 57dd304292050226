"""Deterministic CSV/JSON output with a schema registry.

Every CSV the experiment commands emit is described here: fixed columns plus
optional numbered column groups (for example neuron_norm_1..neuron_norm_k).
Floats are written with repr, which round-trips exactly; booleans are
"true"/"false".  JSON is sorted-key, indent-2 and NaN-free.  Re-running a
command with the same config and seed therefore reproduces every output byte.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

__all__ = [
    "SchemaError",
    "ColumnGroup",
    "CsvSchema",
    "SCHEMAS",
    "schema_for_file",
    "write_csv",
    "validate_csv",
    "write_json",
]


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class ColumnGroup:
    """Run of numbered columns <prefix>_1..<prefix>_m, m >= 0 per file."""

    prefix: str
    kind: str

    def name(self, index: int) -> str:
        return f"{self.prefix}_{index}"


@dataclass(frozen=True)
class CsvSchema:
    name: str
    fixed: tuple[tuple[str, str], ...]
    groups: tuple[ColumnGroup, ...] = field(default_factory=tuple)

    def header(self, group_sizes: dict[str, int] | None = None) -> list[str]:
        sizes = group_sizes or {}
        cols = [name for name, _ in self.fixed]
        for g in self.groups:
            cols += [g.name(i + 1) for i in range(sizes.get(g.prefix, 0))]
        return cols

    def kinds(self, group_sizes: dict[str, int] | None = None) -> list[str]:
        sizes = group_sizes or {}
        kinds = [kind for _, kind in self.fixed]
        for g in self.groups:
            kinds += [g.kind] * sizes.get(g.prefix, 0)
        return kinds


# Column runs the sweep schemas share: a cell's key columns, a run's columns
# and its endpoint columns in a runs table, and a cell's iteration statistics
# in a summary table.
_WIDTH_KEY = (("width", "int"), ("init", "str"))
_ANGLE_KEY = (("theta", "float"),)
_RUN_COLUMNS = (("run", "int"), ("seed", "int"), ("iterations", "int"), ("converged", "bool"))
_FINAL_LOSS = ("final_loss", "float")
_MAX_NORM = ("max_weight_norm", "float")
_ITERATION_STATS = (
    ("runs", "int"),
    ("converged", "int"),
    ("mean_iterations", "float"),
    ("std_iterations", "float"),
    ("median_iterations", "float"),
    ("q25_iterations", "float"),
    ("q75_iterations", "float"),
)

SCHEMAS: dict[str, CsvSchema] = {
    "trajectory": CsvSchema(
        name="trajectory",
        fixed=(("t", "int"), ("loss", "float"), ("weight_norm", "float"), ("grad_norm", "float")),
        groups=(
            ColumnGroup("loss_class", "float"),
            ColumnGroup("neuron_norm", "float"),
            ColumnGroup("gc_class", "bool"),
        ),
    ),
    "width_runs": CsvSchema("width_runs", (*_WIDTH_KEY, *_RUN_COLUMNS, _FINAL_LOSS, _MAX_NORM)),
    "width_summary": CsvSchema("width_summary", (*_WIDTH_KEY, *_ITERATION_STATS)),
    "angle_runs": CsvSchema("angle_runs", (*_ANGLE_KEY, *_RUN_COLUMNS, _FINAL_LOSS, _MAX_NORM)),
    "angle_summary": CsvSchema("angle_summary", (*_ANGLE_KEY, *_ITERATION_STATS)),
    "norm_runs": CsvSchema("norm_runs", (*_RUN_COLUMNS, ("final_weight_norm", "float"), _MAX_NORM)),
    "histogram": CsvSchema(
        name="histogram",
        fixed=(("bin_lo", "float"), ("bin_hi", "float"), ("count", "int")),
    ),
    "gc_prob": CsvSchema(
        name="gc_prob",
        fixed=(
            ("d", "int"),
            ("k", "int"),
            ("trials", "int"),
            ("exact", "float"),
            ("estimate", "float"),
            ("stderr", "float"),
            ("abs_error", "float"),
            ("within_three_se", "bool"),
        ),
    ),
}

# Which schema a file follows, by basename: <name>.csv follows the schema
# of that name, and both histogram files follow "histogram".
_BASENAME_TO_SCHEMA = {
    **{f"{name}.csv": name for name in SCHEMAS if name != "histogram"},
    "norm_hist.csv": "histogram",
    "lipschitz_hist.csv": "histogram",
}


def schema_for_file(path) -> CsvSchema:
    import os

    base = os.path.basename(str(path))
    if base not in _BASENAME_TO_SCHEMA:
        raise SchemaError(f"no schema registered for file name {base!r}")
    return SCHEMAS[_BASENAME_TO_SCHEMA[base]]


def _write_int(value) -> str:
    try:
        if not isinstance(value, bool) and int(value) == value:
            return str(int(value))
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(f"expected an integer, got {value!r}")


def _write_float(value) -> str:
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise SchemaError(f"expected a float, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"expected a float, got {value!r}") from None
    if not math.isfinite(number):
        raise SchemaError(f"refusing to write non-finite float {number!r}")
    return repr(number)


def _write_bool(value) -> str:
    if not isinstance(value, (bool, np.bool_)):
        raise SchemaError(f"expected a bool, got {value!r}")
    return "true" if value else "false"


# Column kind -> writer, which turns a value into its cell text and raises
# SchemaError for a value the kind does not hold.  _refusal states which
# texts each writer writes.
_WRITERS = {"int": _write_int, "float": _write_float, "bool": _write_bool, "str": str}


def _kinds(schema: CsvSchema, group_sizes: dict[str, int] | None) -> list[str]:
    """Each column's kind; raises SchemaError for a kind with no writer."""
    kinds = schema.kinds(group_sizes)
    for kind in kinds:
        if kind not in _WRITERS:
            raise SchemaError(f"unknown column kind {kind!r}")
    return kinds


def _write_column(kind: str, column, texts_by_bits: dict) -> list[str]:
    """The texts of one column; raises SchemaError at a refused cell.

    A 1-d float64 array is checked for finiteness at once and shares its
    texts with an earlier array of the same bits.
    """
    if kind == "float" and isinstance(column, np.ndarray) and column.dtype == np.float64 and column.ndim == 1:
        if np.isfinite(column).all():
            bits = column.tobytes()
            if bits not in texts_by_bits:
                texts_by_bits[bits] = list(map(float.__repr__, column.tolist()))
            return texts_by_bits[bits]
    return list(map(_WRITERS[kind], column))


def write_csv(path, schema: CsvSchema, rows, group_sizes: dict[str, int] | None = None) -> list[list[str]]:
    """Write the header and rows; returns each row's cell texts, as written.

    rows is an iterable of rows, or a dict that maps each header name, in
    order, to its column (a sequence or a 1-d array).  Every cell is checked,
    a column at a time, before the file is opened, so a refused table writes
    nothing.
    """
    header = schema.header(group_sizes)
    kinds = _kinds(schema, group_sizes)
    rest = []  # the rows from the first one of the wrong length on
    if isinstance(rows, dict):
        if list(rows) != header:
            raise SchemaError(f"columns {list(rows)} are not the header {header} of schema {schema.name}")
        columns = list(rows.values())
        if len(set(map(len, columns))) > 1:
            raise SchemaError(f"columns of unequal lengths {[len(c) for c in columns]} for schema {schema.name}")
    else:
        rows = list(rows)
        end = next((i for i, row in enumerate(rows) if len(row) != len(kinds)), len(rows))
        # The rows before it, as columns: all empty when there are none.
        columns, rest = list(zip(*rows[:end])) or [()] * len(kinds), rows[end:]
    texts_by_bits: dict[bytes, list[str]] = {}
    try:
        texts = [_write_column(kind, column, texts_by_bits) for kind, column in zip(kinds, columns)]
    except SchemaError:
        texts = None
    if texts is None or rest:
        # Name the first refused cell in row order, the leftmost of its row;
        # failing that, the first row of the wrong length.
        for row in zip(*columns):
            for kind, value in zip(kinds, row):
                _WRITERS[kind](value)
        raise SchemaError(f"row has {len(rest[0])} cells, schema {schema.name} expects {len(kinds)}")
    cells = list(map(list, zip(*texts)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if "str" in kinds:
            writer.writerows(cells)
        else:
            # csv quotes no int, float or bool text, so each row is its cells
            # joined by commas.
            fh.writelines(",".join(row) + "\r\n" for row in cells)
    return cells


def _infer_group_sizes(schema: CsvSchema, header: list[str]) -> dict[str, int]:
    fixed_names = [name for name, _ in schema.fixed]
    if header[: len(fixed_names)] != fixed_names:
        raise SchemaError(
            f"header mismatch for schema {schema.name}: expected it to start with {fixed_names}, got {header[: len(fixed_names)]}"
        )
    pos = len(fixed_names)
    sizes: dict[str, int] = {}
    for g in schema.groups:
        size = 0
        while pos < len(header) and header[pos] == g.name(size + 1):
            size += 1
            pos += 1
        sizes[g.prefix] = size
    if pos != len(header):
        raise SchemaError(f"unexpected trailing columns {header[pos:]} for schema {schema.name}")
    return sizes


def _refusal(kind: str, cells: tuple[str, ...]) -> str | None:
    """None if kind's writer writes every one of cells; otherwise why not, quoting the cells joined by commas.

    For a single cell, the reason is that cell's own.
    """
    text = ",".join(cells)
    try:
        if kind == "int":
            texts = tuple(map(str, map(int, cells)))
            if texts != cells:
                return f"int cells must be written as {','.join(texts)}, got {text!r}"
        elif kind == "float":
            # float() also reads "1_0" and surrounding whitespace, which repr never writes.
            if "_" in text or (text and text.split() != [text]):
                return f"float cells hold no whitespace or '_', got {text!r}"
            if not all(map(math.isfinite, map(float, cells))):
                return f"non-finite float {text!r}"
        elif kind == "bool" and not set(cells) <= {"true", "false"}:
            return f"bool cells must be 'true' or 'false', got {text!r}"
    except ValueError as exc:
        return str(exc)
    return None


# validate_csv reads and checks this many rows at a time, so it never holds a
# whole file; blocks of 256 rows raised a planar train's peak RSS by 0.5 MiB.
_VALIDATE_ROWS = 64


def validate_csv(path, schema: CsvSchema | None = None) -> int:
    """Check a file against its schema; returns the number of data rows."""
    schema = schema or schema_for_file(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty") from None
        kinds = _kinds(schema, _infer_group_sizes(schema, header))
        count = 0
        while rows := list(itertools.islice(reader, _VALIDATE_ROWS)):
            if set(map(len, rows)) != {len(kinds)} or any(map(_refusal, kinds, zip(*rows))):
                # Name the first bad row, at its leftmost bad cell.
                for lineno, row in enumerate(rows, start=count + 2):
                    if len(row) != len(kinds):
                        raise SchemaError(f"{path}:{lineno}: expected {len(kinds)} cells, got {len(row)}")
                    for kind, cell in zip(kinds, row):
                        if reason := _refusal(kind, (cell,)):
                            raise SchemaError(f"{path}:{lineno}: {reason}")
            count += len(rows)
    return count


def _json_scalar(value):
    """JSON text of a scalar; None for a container; TypeError for anything else."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if isinstance(value, (dict, list, tuple, np.ndarray)):
        return None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(obj, newline: str, parts: list) -> None:
    """Append the JSON text of obj to parts; newline is "\\n" plus the indent of obj's line."""
    text = _json_scalar(obj)
    if text is not None:
        parts.append(text)
        return
    if isinstance(obj, dict):
        by_key = {str(k): v for k, v in obj.items()}
        keys = sorted(by_key)
        values = [by_key[k] for k in keys]
        heads = [_encode_str(k) + ": " for k in keys]
        opener, closer = "{", "}"
    else:
        values = obj.tolist() if isinstance(obj, np.ndarray) else obj
        heads = None
        opener, closer = "[", "]"
    if not values:
        parts.append(opener + closer)
        return
    inner = newline + "  "
    types = set(map(type, values)) if heads is None else None
    if types == {int} or types == {bool}:
        # A list of ints or of bools, such as a phase timeline, in one join.
        texts = map(int.__repr__, values) if types == {int} else ["true" if v else "false" for v in values]
        parts.append(opener + inner + ("," + inner).join(texts) + newline + closer)
    else:
        parts.append(opener)
        separator = inner
        for i, value in enumerate(values):
            parts.append(separator if heads is None else separator + heads[i])
            separator = "," + inner
            _emit_json(value, inner, parts)
        parts.append(newline + closer)


def write_json(path, obj) -> None:
    """Write obj as sorted-key, indent-2 JSON plus a newline, in one walk.

    The text is that of ``json.dump(..., sort_keys=True, indent=2,
    allow_nan=False)`` applied to obj with every key turned into str, tuples
    and arrays into lists, numpy scalars into Python ones and non-finite
    floats into null.  Any other object raises TypeError.
    """
    parts: list[str] = []
    _emit_json(obj, "\n", parts)
    parts.append("\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))
