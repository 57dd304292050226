"""Deterministic CSV/JSON output with a schema registry.

Every CSV the experiment commands emit is described here: fixed columns plus
optional numbered column groups (for example neuron_norm_1..neuron_norm_k).
Floats are written with repr, which round-trips exactly; booleans are
"true"/"false".  JSON is sorted-key, indent-2 and NaN-free.  Re-running a
command with the same config and seed therefore reproduces every output byte.
"""
from __future__ import annotations

import csv
import io
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
    "write_records_json",
]


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class ColumnGroup:
    """Run of numbered columns <prefix>_1..<prefix>_m, m >= 0 per file, and its key in a JSON record."""

    prefix: str
    kind: str
    json_key: str
    json_object: bool

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
            ColumnGroup("loss_class", "float", "loss_per_class", json_object=True),
            ColumnGroup("neuron_norm", "float", "neuron_norms", json_object=False),
            ColumnGroup("gc_class", "bool", "gc_flags", json_object=True),
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
    # float() would also read a str, bytes or a bool; a float, Python's or
    # numpy's, skips that check, since trajectory.csv writes tens of
    # thousands of them.
    if not isinstance(value, float) and isinstance(value, (str, bytes, bool, np.bool_)):
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


def _parse_float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite float {cell!r}")
    return value


def _parse_bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"bool cells must be 'true' or 'false', got {cell!r}")
    return cell == "true"


# Column kind -> (writer, parser).  A writer turns a value into its cell text
# and raises SchemaError; a parser reads a cell back and raises ValueError.
_CELL_CODECS = {
    "int": (_write_int, int),
    "float": (_write_float, _parse_float),
    "bool": (_write_bool, _parse_bool),
    "str": (str, str),
}


def _column_codecs(schema: CsvSchema, group_sizes: dict[str, int] | None) -> list[tuple]:
    """Each column's (writer, parser), picked once per file."""
    try:
        return [_CELL_CODECS[kind] for kind in schema.kinds(group_sizes)]
    except KeyError as exc:
        raise SchemaError(f"unknown column kind {exc.args[0]!r}") from None


def write_csv(path, schema: CsvSchema, rows, group_sizes: dict[str, int] | None = None) -> list[list[str]]:
    """Write the header and rows; returns each row's cell texts, as written."""
    header = schema.header(group_sizes)
    writers = [writer for writer, _ in _column_codecs(schema, group_sizes)]
    width = len(writers)
    cells = []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if len(row) != width:
                raise SchemaError(f"row has {len(row)} cells, schema {schema.name} expects {width}")
            cells.append([f(v) for f, v in zip(writers, row)])
            writer.writerow(cells[-1])
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


def validate_csv(path, schema: CsvSchema | None = None) -> int:
    """Check a file against its schema; returns the number of data rows."""
    schema = schema or schema_for_file(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty") from None
        parsers = [parser for _, parser in _column_codecs(schema, _infer_group_sizes(schema, header))]
        width = len(parsers)
        count = 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise SchemaError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
            try:
                [f(cell) for f, cell in zip(parsers, row)]
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            count += 1
    return count


# write_json hands its pieces to the file once this many are pending, so a
# long trajectory is never held as text all at once.
_FLUSH_PIECES = 4096


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


def _emit_json(obj, newline: str, parts: list, fh) -> None:
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
    parts.append(opener)
    separator = inner
    for i, value in enumerate(values):
        parts.append(separator if heads is None else separator + heads[i])
        separator = "," + inner
        _emit_json(value, inner, parts, fh)
    parts.append(newline + closer)
    if len(parts) >= _FLUSH_PIECES:
        fh.write("".join(parts))
        parts.clear()


def write_json(path, obj) -> None:
    """Write obj as sorted-key, indent-2 JSON plus a newline, in one walk.

    The text is that of ``json.dump(..., sort_keys=True, indent=2,
    allow_nan=False)`` applied to obj with every key turned into str, tuples
    and arrays into lists, numpy scalars into Python ones and non-finite
    floats into null.  Any other object raises TypeError.
    """
    parts: list[str] = []
    with open(path, "w") as fh:
        _emit_json(obj, "\n", parts, fh)
        parts.append("\n")
        fh.write("".join(parts))


def _record_template(schema: CsvSchema, group_sizes: dict[str, int] | None) -> str:
    """str.format text of one record at the records list's indent, whose field {i} is a row's cell i."""
    refs = ("{%d}" % i for i in range(len(schema.kinds(group_sizes))))
    record = {name: next(refs) for name, _ in schema.fixed}
    for g in schema.groups:
        items = [next(refs) for _ in range((group_sizes or {}).get(g.prefix, 0))]
        record[g.json_key] = {i + 1: ref for i, ref in enumerate(items)} if g.json_object else items
    parts: list[str] = []
    buffer = io.StringIO()
    _emit_json(record, "\n    ", parts, buffer)
    # Each field is emitted as the string "{i}": double every brace, then
    # drop the quotes around the fields.  No schema key holds a brace.
    text = (buffer.getvalue() + "".join(parts)).replace("{", "{{").replace("}", "}}")
    return text.replace('"{{', "{").replace('}}"', "}")


def write_records_json(path, head: dict, schema: CsvSchema, cells, group_sizes: dict[str, int] | None = None) -> None:
    """Write head plus "records", one object per row of cells, as write_json writes it.

    cells are write_csv's texts for rows under schema and group_sizes: a finite float's, an int's or a bool's text is
    its JSON text, so no value is formatted again.  A record holds each fixed column under its name and each column
    group under its json_key, as a list or, with json_object, as an object keyed "1".."m".
    """
    template = _record_template(schema, group_sizes)
    with open(path, "w") as fh:
        for n, key in enumerate(sorted([*head, "records"])):
            fh.write(("," if n else "{") + "\n  " + _encode_str(key) + ": ")
            if key != "records":
                parts: list[str] = []
                _emit_json(head[key], "\n  ", parts, fh)
                fh.write("".join(parts))
                continue
            # One record at a time: the file's buffer holds the pending text.
            for i, row in enumerate(cells):
                fh.write(("," if i else "[") + "\n    " + template.format(*row))
            fh.write("\n  ]" if cells else "[]")
        fh.write("\n}\n")
