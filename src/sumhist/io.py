"""File formats: CSV files for measures and Lagrangians, the YAML state-spec
file, and the CSV and JSON writers of propagator tables, convergence studies
and check reports.

Floats are written with repr (shortest round-trip form), so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import cmath
import csv
import io as _io
import json
from pathlib import Path

import numpy as np
import yaml

from .action import StateSpec, uniform_state_spec
from .groupoid import FiniteGroupoid, is_int, read_yaml
from .propagator import ConvergenceRow, PropagatorTable, _modulus


def _fmt(x) -> str:
    return repr(float(x))


def _write_rows(path, header, rows) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def render_rows(header, rows, fmt: str = "csv", path=None) -> str:
    """Formatted rows under a header as CSV, or as an indented JSON list of
    header-keyed objects ('json'); the text is also written to path if given."""
    if fmt == "csv":
        return _write_rows(path, header, rows)
    if fmt != "json":
        raise ValueError(f"unknown output format {fmt!r}")
    text = json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _id_rows(path, n: int, id_col: str, value_cols) -> list[tuple]:
    """Rows (id, *values) of a CSV keyed by an integer id in 0..n-1, the value
    columns read as floats.  A missing column, a malformed cell, an id out
    of range or an id read before raises ValueError naming the file, line
    and column."""
    out = []
    line_of = {}    # id -> the line that gave it
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for col in (id_col, *value_cols):
            if col not in (reader.fieldnames or ()):
                raise ValueError(f"{path}, line 1: missing column {col!r}")
        for row in reader:
            where = f"{path}, line {reader.line_num}, column"
            try:
                i = int(row[id_col])
            except (TypeError, ValueError):
                raise ValueError(f"{where} {id_col!r}: bad id {row[id_col]!r}") from None
            if not 0 <= i < n:
                raise ValueError(f"{where} {id_col!r}: id {i} is outside 0..{n - 1}")
            if i in line_of:
                raise ValueError(f"{where} {id_col!r}: id {i} repeats line {line_of[i]}")
            line_of[i] = reader.line_num
            values = []
            for col in value_cols:
                try:
                    values.append(float(row[col]))
                except (TypeError, ValueError):
                    raise ValueError(f"{where} {col!r}: bad number {row[col]!r}") from None
            out.append((i, *values))
    return out


# --- measures


def object_weights_csv(weights, path=None) -> str:
    rows = [(i, _fmt(w)) for i, w in enumerate(weights)]
    return _write_rows(path, ("object_id", "weight"), rows)


def fiber_weights_csv(weights, path=None) -> str:
    rows = [(i, _fmt(w)) for i, w in enumerate(weights)]
    return _write_rows(path, ("morphism_id", "fiber_weight"), rows)


def load_weights_csv(path, n: int, id_col: str, weight_col: str) -> np.ndarray:
    out = np.ones(n)
    for i, w in _id_rows(path, n, id_col, (weight_col,)):
        out[i] = w
    return out


# --- Lagrangians


def lagrangian_csv(values, path=None) -> str:
    rows = [(i, _fmt(v)) for i, v in enumerate(values)]
    return _write_rows(path, ("morphism_id", "value"), rows)


def load_lagrangian_csv(path, n_morphisms: int) -> np.ndarray:
    vals = np.zeros(n_morphisms)
    for i, v in _id_rows(path, n_morphisms, "morphism_id", ("value",)):
        vals[i] = v
    return vals


# --- state spec files (YAML)


def load_state_spec(path, groupoid: FiniteGroupoid, measure=None) -> StateSpec:
    """State-spec config: fields hbar, mode, convention, density.

    density is either the string 'uniform' (normalized against the object
    measure), a list of [object, p] rows (time independent), or
    [object, slice, p] rows; objects without a row get density 0.  A
    malformed file raises ValueError naming the file and the offending row."""
    data = read_yaml(path, "state spec")
    if not isinstance(data, dict):
        raise ValueError(f"state spec {path} must be a mapping")
    try:
        hbar = float(data.get("hbar", 1.0))
    except (TypeError, ValueError):
        raise ValueError(f"state spec {path}: bad hbar {data.get('hbar')!r}") from None
    mode = data.get("mode", "real")
    convention = data.get("convention", "incremental")
    density = data.get("density", "uniform")
    try:
        if density == "uniform":
            return uniform_state_spec(groupoid, hbar, mode, convention, measure)
        return StateSpec(_density_table(density, groupoid.n_objects), hbar, mode,
                         convention)
    except ValueError as exc:
        raise ValueError(f"state spec {path}: {exc}") from None


def _density_table(rows, n_objects: int) -> np.ndarray:
    """(n_slices, n_objects) table from [object, p] or [object, slice, p] rows."""
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"density must be 'uniform' or a list of rows, not {rows!r}")
    width = len(rows[0]) if isinstance(rows[0], list) else 0
    cells = {}
    for i, row in enumerate(rows, start=1):
        where = f"density row {i} {row!r}"
        if width not in (2, 3) or not isinstance(row, list) or len(row) != width:
            raise ValueError(f"{where}: expected [object, p] or [object, slice, p] "
                             "rows, all of one length")
        *ids, v = row
        if not all(map(is_int, ids)):
            raise ValueError(f"{where}: object and slice must be integers")
        x, k = ids if width == 3 else (ids[0], 0)
        if not 0 <= x < n_objects:
            raise ValueError(f"{where}: object {x} is outside 0..{n_objects - 1}")
        if k < 0:
            raise ValueError(f"{where}: slice {k} is negative")
        if (k, x) in cells:
            raise ValueError(f"{where}: object {x} at slice {k} already has a density")
        try:
            cells[k, x] = float(v)
        except (TypeError, ValueError):
            raise ValueError(f"{where}: bad density {v!r}") from None
    p = np.zeros((max(k for k, _ in cells) + 1, n_objects))
    for kx, v in cells.items():
        p[kx] = v
    return p


def save_state_spec(spec: StateSpec, path) -> None:
    p = spec.density
    if p.shape[0] == 1:
        density = [[int(x), float(p[0, x])] for x in range(p.shape[1])]
    else:
        density = [[int(x), int(k), float(p[k, x])]
                   for k in range(p.shape[0]) for x in range(p.shape[1])]
    Path(path).write_text(yaml.safe_dump(
        {"hbar": spec.hbar, "mode": spec.mode, "convention": spec.convention,
         "density": density}, sort_keys=False))


# --- propagator tables and convergence studies


TABLE_HEADER = ("x0", "t0", "x1", "t1", "re", "im", "abs", "phase")
CONVERGENCE_HEADER = ("N", "dt", "value_re", "value_im", "reference_re",
                      "reference_im", "rel_error")


def _labels(xs: np.ndarray) -> list:
    """Object ids as integers, positions as shortest round-trip strings."""
    return xs.tolist() if xs.dtype.kind in "iu" else [_fmt(x) for x in xs.tolist()]


def propagator_table_rows(table: PropagatorTable, extra: np.ndarray | None = None):
    """Rows (x0, t0, x1, t1, re, im, abs, phase) in (x0, x1) order [+ one
    extra column, an array in the shape of the amplitudes]."""
    t0, t1 = _fmt(table.grid.times[0]), _fmt(table.grid.times[-1])
    x1s = _labels(table.x1s)
    columns = [table.amplitudes.tolist()] + ([] if extra is None else [extra.tolist()])
    for x0, *rows in zip(_labels(table.x0s), *columns):
        for x1, z, *cells in zip(x1s, *rows):
            yield [x0, t0, x1, t1, _fmt(z.real), _fmt(z.imag), _fmt(_modulus(z)),
                   _fmt(cmath.phase(z)), *map(_fmt, cells)]


def _table_header(extra, extra_name: str) -> tuple:
    return TABLE_HEADER if extra is None else TABLE_HEADER + (extra_name,)


def propagator_table_csv(table: PropagatorTable, path=None,
                         extra: np.ndarray | None = None, extra_name: str = "") -> str:
    return render_rows(_table_header(extra, extra_name),
                       propagator_table_rows(table, extra), "csv", path)


def propagator_table_json(table: PropagatorTable, path=None,
                          extra: np.ndarray | None = None, extra_name: str = "") -> str:
    return render_rows(_table_header(extra, extra_name),
                       propagator_table_rows(table, extra), "json", path)


def convergence_rows(rows: list[ConvergenceRow]):
    for r in rows:
        yield (r.n_slices, _fmt(r.dt), _fmt(r.value.real), _fmt(r.value.imag),
               _fmt(r.reference.real), _fmt(r.reference.imag), _fmt(r.rel_error))


def convergence_csv(rows, path=None) -> str:
    return render_rows(CONVERGENCE_HEADER, convergence_rows(rows), "csv", path)


def convergence_json(rows, path=None) -> str:
    return render_rows(CONVERGENCE_HEADER, convergence_rows(rows), "json", path)


def report_csv(entries: list[tuple[str, str, str]], path=None) -> str:
    """Generic (check, value, status) report rows for state checks and
    certificates."""
    return _write_rows(path, ("check", "value", "status"), entries)
