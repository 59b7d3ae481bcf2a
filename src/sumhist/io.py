"""File formats: CSV serialization for algebra elements, measures,
Lagrangians, histories and propagator tables, plus the YAML state-spec file.

Floats are written with repr (shortest round-trip form), so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import cmath
import csv
import io as _io
import json
import math
from pathlib import Path

import numpy as np
import yaml

from .action import StateSpec
from .groupoid import FiniteGroupoid
from .histories import History, HistoryWord
from .propagator import ConvergenceRow, PropagatorTable


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
    columns read as floats.  A missing column, a malformed cell or an id out
    of range raises ValueError naming the file, line and column."""
    out = []
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
            values = []
            for col in value_cols:
                try:
                    values.append(float(row[col]))
                except (TypeError, ValueError):
                    raise ValueError(f"{where} {col!r}: bad number {row[col]!r}") from None
            out.append((i, *values))
    return out


# --- algebra elements and measures


def algebra_element_csv(f: np.ndarray, path=None) -> str:
    rows = [(i, _fmt(z.real), _fmt(z.imag)) for i, z in enumerate(np.asarray(f, complex))]
    return _write_rows(path, ("morphism_id", "re", "im"), rows)


def load_algebra_element_csv(path, n_morphisms: int) -> np.ndarray:
    f = np.zeros(n_morphisms, dtype=complex)
    for i, re, im in _id_rows(path, n_morphisms, "morphism_id", ("re", "im")):
        f[i] = re + 1j * im
    return f


def complex_vector_csv(vec, path=None, id_name: str = "object_id") -> str:
    """Generic complex vector (e.g. a GNS vector over objects) as CSV."""
    rows = [(i, _fmt(z.real), _fmt(z.imag)) for i, z in enumerate(np.asarray(vec, complex))]
    return _write_rows(path, (id_name, "re", "im"), rows)


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


# --- histories and words


def history_csv(w: History, path=None) -> str:
    rows = [(k, _fmt(t), m) for k, (t, m) in enumerate(zip(w.grid.times, w.accumulated))]
    return _write_rows(path, ("k", "time", "kpath_morphism_id"), rows)


def word_csv(word: HistoryWord, path=None) -> str:
    rows = []
    for s, seg in enumerate(word.segments):
        for k, (t, m) in enumerate(zip(seg.grid.times, seg.accumulated)):
            rows.append((s, seg.orientation, k, _fmt(t), m))
    return _write_rows(path, ("segment", "orientation", "k", "time", "kpath_morphism_id"), rows)


# --- state spec files (YAML)


def load_state_spec(path, groupoid: FiniteGroupoid, measure=None) -> StateSpec:
    """State-spec config: fields hbar, mode, convention, density.

    density is either the string 'uniform' (normalized against the object
    measure), a list of [object, p] rows (time independent), or
    [object, slice, p] rows."""
    data = yaml.safe_load(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"state spec {path} must be a mapping")
    hbar = float(data.get("hbar", 1.0))
    mode = data.get("mode", "real")
    convention = data.get("convention", "incremental")
    density = data.get("density", "uniform")
    if isinstance(density, str):
        if density != "uniform":
            raise ValueError(f"unknown density spec {density!r}")
        from .action import uniform_state_spec
        return uniform_state_spec(groupoid, hbar, mode, convention, measure)
    rows = list(density)
    if rows and len(rows[0]) == 2:
        n = max(int(r[0]) for r in rows) + 1
        p = np.zeros((1, n))
        for x, v in rows:
            p[0, int(x)] = float(v)
    else:
        n = max(int(r[0]) for r in rows) + 1
        ks = max(int(r[1]) for r in rows) + 1
        p = np.zeros((ks, n))
        for x, k, v in rows:
            p[int(k), int(x)] = float(v)
    return StateSpec(p, hbar, mode, convention)


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
KERNEL_HEADER = TABLE_HEADER + ("rel_error",)


def propagator_table_rows(table: PropagatorTable, extra: dict | None = None):
    """Rows (x0, t0, x1, t1, re, im, abs, phase) [+ extra columns keyed by
    (x0, x1)]."""
    for x0, t0, x1, t1, z in table.rows():
        row = [x0, _fmt(t0), x1, _fmt(t1), _fmt(z.real), _fmt(z.imag),
               _fmt(abs(z)), _fmt(cmath.phase(z))]
        if extra is not None:
            row.append(_fmt(extra[(x0, x1)]))
        yield row


def _table_header(extra, extra_name: str) -> tuple:
    return TABLE_HEADER if extra is None else TABLE_HEADER + (extra_name,)


def propagator_table_csv(table: PropagatorTable, path=None,
                         extra: dict | None = None, extra_name: str = "") -> str:
    return render_rows(_table_header(extra, extra_name),
                       propagator_table_rows(table, extra), "csv", path)


def propagator_table_json(table: PropagatorTable, path=None,
                          extra: dict | None = None, extra_name: str = "") -> str:
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


def kernel_comparison(rows, total_time: float, fmt: str = "csv", path=None) -> str:
    """Continuum kernel values against their references: rows (x0, x1, value,
    rel_error), each written as (x0, 0, x1, total_time, re, im, abs, phase,
    rel_error)."""
    out = [(_fmt(x0), _fmt(0.0), _fmt(x1), _fmt(total_time), _fmt(z.real),
            _fmt(z.imag), _fmt(abs(z)), _fmt(math.atan2(z.imag, z.real)), _fmt(rel))
           for x0, x1, z, rel in rows]
    return render_rows(KERNEL_HEADER, out, fmt, path)


def report_csv(entries: list[tuple[str, str, str]], path=None) -> str:
    """Generic (check, value, status) report rows for state checks and
    certificates."""
    return _write_rows(path, ("check", "value", "status"), entries)
