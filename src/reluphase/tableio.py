"""Deterministic CSV/JSON output with a schema registry.

Every CSV the experiment commands emit is described here: fixed columns plus
optional numbered column groups (for example neuron_norm_1..neuron_norm_k).
Floats are written with repr, which round-trips exactly; booleans are
"true"/"false"; JSON is sorted-key, indent-2, NaN-free.  Re-running a command
with the same config and seed therefore reproduces every output byte.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SchemaError",
    "ColumnGroup",
    "CsvSchema",
    "SCHEMAS",
    "schema_for_file",
    "write_csv",
    "validate_csv",
    "to_jsonable",
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
    "width_runs": CsvSchema(
        name="width_runs",
        fixed=(
            ("width", "int"),
            ("init", "str"),
            ("run", "int"),
            ("seed", "int"),
            ("iterations", "int"),
            ("converged", "bool"),
            ("final_loss", "float"),
            ("max_weight_norm", "float"),
        ),
    ),
    "width_summary": CsvSchema(
        name="width_summary",
        fixed=(
            ("width", "int"),
            ("init", "str"),
            ("runs", "int"),
            ("converged", "int"),
            ("mean_iterations", "float"),
            ("std_iterations", "float"),
            ("median_iterations", "float"),
            ("q25_iterations", "float"),
            ("q75_iterations", "float"),
        ),
    ),
    "angle_runs": CsvSchema(
        name="angle_runs",
        fixed=(
            ("theta", "float"),
            ("run", "int"),
            ("seed", "int"),
            ("iterations", "int"),
            ("converged", "bool"),
            ("final_loss", "float"),
            ("max_weight_norm", "float"),
        ),
    ),
    "angle_summary": CsvSchema(
        name="angle_summary",
        fixed=(
            ("theta", "float"),
            ("runs", "int"),
            ("converged", "int"),
            ("mean_iterations", "float"),
            ("std_iterations", "float"),
            ("median_iterations", "float"),
            ("q25_iterations", "float"),
            ("q75_iterations", "float"),
        ),
    ),
    "norm_runs": CsvSchema(
        name="norm_runs",
        fixed=(
            ("run", "int"),
            ("seed", "int"),
            ("iterations", "int"),
            ("converged", "bool"),
            ("final_weight_norm", "float"),
            ("max_weight_norm", "float"),
        ),
    ),
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

# Which schema a file follows, by basename.
_BASENAME_TO_SCHEMA = {
    "trajectory.csv": "trajectory",
    "width_runs.csv": "width_runs",
    "width_summary.csv": "width_summary",
    "angle_runs.csv": "angle_runs",
    "angle_summary.csv": "angle_summary",
    "norm_runs.csv": "norm_runs",
    "norm_hist.csv": "histogram",
    "lipschitz_hist.csv": "histogram",
    "gc_prob.csv": "gc_prob",
}


def schema_for_file(path) -> CsvSchema:
    import os

    base = os.path.basename(str(path))
    if base not in _BASENAME_TO_SCHEMA:
        raise SchemaError(f"no schema registered for file name {base!r}")
    return SCHEMAS[_BASENAME_TO_SCHEMA[base]]


def _format_cell(value, kind: str) -> str:
    if kind == "int":
        if isinstance(value, bool) or int(value) != value:
            raise SchemaError(f"expected an integer, got {value!r}")
        return str(int(value))
    if kind == "float":
        value = float(value)
        if not math.isfinite(value):
            raise SchemaError(f"refusing to write non-finite float {value!r}")
        return repr(value)
    if kind == "bool":
        if not isinstance(value, (bool, np.bool_)):
            raise SchemaError(f"expected a bool, got {value!r}")
        return "true" if value else "false"
    if kind == "str":
        return str(value)
    raise SchemaError(f"unknown column kind {kind!r}")


def _parse_cell(cell: str, kind: str):
    if kind == "int":
        return int(cell)
    if kind == "float":
        value = float(cell)
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {cell!r}")
        return value
    if kind == "bool":
        if cell not in ("true", "false"):
            raise ValueError(f"bool cells must be 'true' or 'false', got {cell!r}")
        return cell == "true"
    return cell


def write_csv(path, schema: CsvSchema, rows, group_sizes: dict[str, int] | None = None) -> None:
    header = schema.header(group_sizes)
    kinds = schema.kinds(group_sizes)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if len(row) != len(kinds):
                raise SchemaError(f"row has {len(row)} cells, schema {schema.name} expects {len(kinds)}")
            writer.writerow([_format_cell(v, k) for v, k in zip(row, kinds)])


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
        sizes = _infer_group_sizes(schema, header)
        kinds = schema.kinds(sizes)
        count = 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(kinds):
                raise SchemaError(f"{path}:{lineno}: expected {len(kinds)} cells, got {len(row)}")
            for cell, kind in zip(row, kinds):
                try:
                    _parse_cell(cell, kind)
                except ValueError as exc:
                    raise SchemaError(f"{path}:{lineno}: {exc}") from None
            count += 1
    return count


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays and non-finite floats (-> None)."""
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


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(to_jsonable(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
