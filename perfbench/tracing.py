"""Spans around sumhist's public functions, recorded from outside the package.

``install(recorder)`` rebinds each traced name in every ``sumhist`` module
that holds it (``sumhist.cli`` imported most of them by name), and the
returned callable restores the originals.  No file under ``src/`` is touched.

A span records its name, start, end, parent span and request id.  Spans stay
in memory; the runner writes them out when the run ends.  A layer's self time
is its busy time minus the time covered by its child spans.  Two boundaries are
too hot for one span per call and are tallied instead (calls and busy time,
charged to the enclosing span as child time):

* ``histories.link_walks`` -- the time spent inside the generator's ``next()``
  as called from ``sumhist.propagator``; ``histories.enumerated`` counts the
  histories it yields;
* ``histories.from_links`` -- one call per history in the anchored branch.

Spans opened in pool threads (the ``--threads`` branch) have no parent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

clock = time.perf_counter


@dataclass(frozen=True)
class Layer:
    """A traced boundary: metric prefix, the defining module, the functions
    it covers, and the end-to-end metric and workload it should move."""

    name: str
    module: str
    functions: tuple
    moves: str
    kind: str = "span"      # 'span' or 'tally'
    only: str = ""          # rebind only in this module


LAYERS = (
    Layer("groupoid.resolve_groupoid", "sumhist.groupoid", ("resolve_groupoid",),
          "request_p50_s on small-requests; wall_s on checks"),
    Layer("groupoid.load_groupoid_file", "sumhist.groupoid", ("load_groupoid_file",),
          "request_p90_s on small-requests"),
    Layer("groupoid.validate_axioms", "sumhist.groupoid", ("validate_axioms",),
          "wall_s on checks"),
    Layer("algebra.modular_function", "sumhist.algebra", ("modular_function",),
          "wall_s on checks"),
    Layer("algebra.convolve", "sumhist.algebra", ("convolve",), "wall_s on checks"),
    Layer("algebra.left_regular", "sumhist.algebra", ("left_regular",),
          "wall_s and peak_rss_mb on checks"),
    Layer("states.certify_positive_type", "sumhist.states", ("certify_positive_type",),
          "wall_s on checks"),
    Layer("action.state_from_lagrangian", "sumhist.action", ("state_from_lagrangian",),
          "request_p50_s on small-requests"),
    Layer("action.full_interval_family", "sumhist.action", ("full_interval_family",),
          "wall_s on checks"),
    Layer("action.family_certificate", "sumhist.action", ("family_certificate",),
          "wall_s on checks"),
    Layer("action.family_form_value", "sumhist.action", ("family_form_value",),
          "wall_s and peak_rss_mb on checks"),
    Layer("histories.link_walks", "sumhist.histories", ("link_walks",),
          "wall_s on pathsum-table", kind="tally", only="sumhist.propagator"),
    Layer("histories.from_links", "sumhist.histories", ("from_links",),
          "request_p50_s on small-requests", kind="tally"),
    Layer("propagator.propagator_table", "sumhist.propagator", ("propagator_table",),
          "wall_s on pathsum-table"),
    Layer("propagator.finite_propagator", "sumhist.propagator", ("finite_propagator",),
          "wall_s on pathsum-table"),
    Layer("propagator.fsum_complex", "sumhist.propagator", ("fsum_complex",),
          "wall_s on pathsum-table"),
    Layer("propagator.reproducing_residual", "sumhist.propagator",
          ("reproducing_residual",), "wall_s on pathsum-table"),
    Layer("propagator.velocity_form_propagator", "sumhist.propagator",
          ("velocity_form_propagator",), "wall_s on pathsum-table"),
    Layer("propagator.transfer_oracle_table", "sumhist.propagator",
          ("transfer_oracle_table",), "stays under 1% of wall_s on pathsum-table"),
    Layer("propagator.sliced_line_propagator", "sumhist.propagator",
          ("sliced_line_propagator",), "wall_s on continuum"),
    Layer("propagator.lattice_line_propagator", "sumhist.propagator",
          ("lattice_line_propagator",), "wall_s on continuum"),
    Layer("propagator.image_sum_circle_kernel", "sumhist.propagator",
          ("image_sum_circle_kernel",), "wall_s on continuum"),
    Layer("propagator.line_convergence", "sumhist.propagator", ("line_convergence",),
          "wall_s on continuum"),
    Layer("propagator.circle_convergence", "sumhist.propagator", ("circle_convergence",),
          "wall_s on continuum"),
    Layer("geometry.CircleLattice", "sumhist.geometry", ("CircleLattice",),
          "wall_s on continuum"),
    Layer("io.load_inputs", "sumhist.io",
          ("load_weights_csv", "load_lagrangian_csv", "load_state_spec"),
          "request_p50_s on small-requests"),
    Layer("io.write_outputs", "sumhist.io",
          ("propagator_table_csv", "propagator_table_json", "convergence_csv",
           "convergence_json", "report_csv", "_write_rows"),
          "request_p50_s on small-requests"),
    Layer("cli.validate", "sumhist.cli", ("cmd_validate",), "request_p50_s on small-requests"),
    Layer("cli.state-check", "sumhist.cli", ("cmd_state_check",),
          "request_p50_s on small-requests"),
    Layer("cli.propagate", "sumhist.cli", ("cmd_propagate",),
          "request_p50_s on small-requests"),
    Layer("cli.converge", "sumhist.cli", ("cmd_converge",), "request_p50_s on small-requests"),
)

# counts recorded at span boundaries: (name, unit, moves)
COUNTS = (
    ("groupoid.table_bytes", "bytes", "peak_rss_mb on checks"),
    ("states.form_dim_sum", "count", "wall_s on checks"),
    ("action.certificate_block_dim_sum", "count", "wall_s on checks"),
    ("histories.enumerated", "count", "exact; must not change for a given seed"),
    ("io.bytes_out", "bytes", "request_p50_s on small-requests"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.name}.calls", "count", "lower"))
        out.append((f"{layer.name}.busy_s", "s", "lower"))
        if layer.kind == "span":
            out.append((f"{layer.name}.self_s", "s", "lower"))
    out += [(name, unit, "lower") for name, unit, _ in COUNTS]
    out += [("pathsum.histories", "count", "lower"),
            ("pathsum.histories_per_s", "1/s", "higher"),
            ("proc.cpu_s", "s", "lower"),
            ("host.calibration_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


class Recorder:
    """Spans, tallies and counts of one traced pass."""

    def __init__(self):
        self.spans = []        # [name, sid, parent, rid, start, end, child]
        self.tallies = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self.rid = None
        self._ids = itertools.count()
        self._local = threading.local()

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def charge(self, name: str, dt: float) -> None:
        tally = self.tallies[name]
        tally[1] += dt
        st = self.stack()
        if st:
            st[-1][6] += dt

    def summary(self) -> dict:
        """Per-layer calls, busy and self time of this pass."""
        out = {}
        for layer in LAYERS:
            if layer.kind == "tally":
                calls, busy = self.tallies[layer.name]
                out[f"{layer.name}.calls"] = calls
                out[f"{layer.name}.busy_s"] = busy
            else:
                out[f"{layer.name}.calls"] = 0
                out[f"{layer.name}.busy_s"] = 0.0
                out[f"{layer.name}.self_s"] = 0.0
        for name, _, _, _, start, end, child in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - child
        for name, _, _ in COUNTS:
            out[name] = self.counts[name]
        return out


def _post_hooks(rec: Recorder):
    def table_bytes(g):
        rec.counts["groupoid.table_bytes"] = max(rec.counts["groupoid.table_bytes"],
                                                 int(g.table.nbytes))

    def form_dim(cert):
        rec.counts["states.form_dim_sum"] += cert.form_matrix_dim

    def block_dim(cert):
        rec.counts["action.certificate_block_dim_sum"] += cert.form_matrix_dim

    def bytes_out(text):
        rec.counts["io.bytes_out"] += len(text.encode())

    return {"groupoid.resolve_groupoid": table_bytes,
            "groupoid.load_groupoid_file": table_bytes,
            "states.certify_positive_type": form_dim,
            "action.family_certificate": block_dim,
            "io.write_outputs": bytes_out}


def _span(rec: Recorder, name: str, fn, post):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        st = rec.stack()
        if any(s[0] == name for s in st):      # a covered function calling another
            return fn(*args, **kwargs)
        span = [name, next(rec._ids), st[-1][1] if st else None, rec.rid, 0.0, 0.0, 0.0]
        st.append(span)
        span[4] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = clock()
            st.pop()
            if st:
                st[-1][6] += span[5] - span[4]
            rec.spans.append(span)
        if post is not None:
            post(result)
        return result
    return traced


def _link_walks(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.tallies[name][0] += 1
        it = fn(*args, **kwargs)
        while True:
            t = clock()
            try:
                item = next(it)
            except StopIteration:
                rec.charge(name, clock() - t)
                return
            rec.charge(name, clock() - t)
            rec.counts["histories.enumerated"] += 1
            yield item
    return traced


def _tally(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.tallies[name][0] += 1
        t = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.charge(name, clock() - t)
    return traced


def install(rec: Recorder):
    """Rebind every traced name to a recording wrapper; returns the undo."""
    mods = [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "sumhist" or k.startswith("sumhist."))]
    hooks = _post_hooks(rec)
    undo = []
    for layer in LAYERS:
        home = sys.modules[layer.module]
        for fname in layer.functions:
            orig = getattr(home, fname)
            if layer.name == "histories.link_walks":
                wrapper = _link_walks(rec, layer.name, orig)
            elif layer.kind == "tally":
                wrapper = _tally(rec, layer.name, orig)
            else:
                wrapper = _span(rec, layer.name, orig, hooks.get(layer.name))
            for mod in mods:
                if layer.only and mod.__name__ != layer.only:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, orig))

    def uninstall():
        for mod, attr, orig in reversed(undo):
            setattr(mod, attr, orig)
    return uninstall
