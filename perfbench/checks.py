"""Correctness checks of every benchmark request.

A CLI request must exit with the expected code; a finite oracle or
sum-splitting deviation printed on stderr must be within the request's
``--tol``; geometry ``rel_error`` columns, which the CLI never gates, must be
within ``GEOMETRY_BOUND``.  Library requests pass independent cross-checks.
``verify`` returns None when the output is correct and a one-line reason
otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from workloads import TOL, velocity_reference

_ORACLE = re.compile(r"max relative deviation (\S+)")
_SPLIT = re.compile(r"reproducing residual at slice \d+: (\S+)")
_STATE_CHECKS = ["lagrangian_symmetry", "density_normalization",
                 "positivity_min_eigenvalue", "positivity_identity_residual"]


def _rows(text: str, as_json: bool) -> list[dict]:
    if as_json:
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def _stderr_value(pattern, err: str, what: str):
    m = pattern.search(err)
    if m is None:
        return f"no {what} on stderr"
    value = float(m.group(1))
    if not value <= TOL:
        return f"{what} {value!r} above tol {TOL!r}"
    return None


def _verify_cli(e: dict, result) -> str | None:
    rc, out, err = result
    if rc != e["rc"]:
        return f"exit code {rc}, expected {e['rc']}: {err.strip()[-200:]}"
    if e.get("oracle"):
        problem = _stderr_value(_ORACLE, err, "oracle deviation")
        if problem:
            return problem
    if e.get("reproducing"):
        problem = _stderr_value(_SPLIT, err, "sum-splitting residual")
        if problem:
            return problem
    if "rows" in e:
        rows = _rows(out, e.get("json", False))
        if len(rows) != e["rows"]:
            return f"{len(rows)} table rows, expected {e['rows']}"
        if not all(math.isfinite(float(r["re"])) and math.isfinite(float(r["im"]))
                   for r in rows):
            return "non-finite amplitude"
        if e.get("oracle") and not max(float(r["oracle_rel_dev"]) for r in rows) <= TOL:
            return "oracle_rel_dev column above tol"
    if e.get("valid"):
        lines = out.splitlines()
        if len(lines) != 1 or not lines[0].endswith(": ok: all groupoid axioms hold"):
            return f"validation report {out.strip()[:200]!r}"
    if e.get("report"):
        rows = _rows(out, False)
        if [r["check"] for r in rows] != _STATE_CHECKS:
            return f"state-check rows {[r['check'] for r in rows]}"
        failed = [r["check"] for r in rows if r["status"] != "pass"]
        if failed:
            return f"state-check failed {failed}"
    if "rel_error_max" in e:
        errs = [float(r["rel_error"]) for r in _rows(out, False)]
        if not errs or not max(errs) <= e["rel_error_max"]:
            return f"geometry rel_error {max(errs, default=None)!r} above {e['rel_error_max']!r}"
    if "final_rel_error_max" in e:
        errs = [float(r["rel_error"]) for r in _rows(out, False)]
        if not errs or not errs[-1] <= e["final_rel_error_max"]:
            return f"final sweep rel_error above {e['final_rel_error_max']!r}"
    return None


def _verify_lib(op: str, p: dict, e: dict, result, refs: dict) -> str | None:
    if op == "velocity":
        key = json.dumps(p, sort_keys=True)
        if key not in refs:
            refs[key] = velocity_reference(p)
        if len(result) != len(refs[key]):
            return f"{len(result)} velocity amplitudes, expected {len(refs[key])}"
        for z, ref in zip(result, refs[key]):
            if not abs(z - ref) <= e["vs_finite"] * max(1.0, abs(ref)):
                return f"velocity form {z!r} differs from finite_propagator {ref!r}"
        return None
    if op == "build_measure":
        if result.groupoid.n_morphisms != e["morphisms"]:
            return f"{result.groupoid.n_morphisms} morphisms, expected {e['morphisms']}"
        return None
    if op == "modular":
        # pair groupoid: morphism y*n + x is x -> y, so delta = w[y] / w[x]
        w = np.random.default_rng(p["seed"]).uniform(0.5, 1.5, p["objects"])
        expect = (w[:, None] / w[None, :]).ravel()
        if not np.allclose(result, expect, rtol=e["modular"], atol=0.0):
            return "modular function differs from w(tgt)/w(src)"
        return None
    if op == "involution_law":
        lhs, rhs = result
        scale = max(1.0, float(np.max(np.abs(lhs))))
        if not float(np.max(np.abs(lhs - rhs))) <= e["law"] * scale:
            return "(f*h)* != h* * f*"
        return None
    if op == "certify":
        if result.verdict != e["verdict"]:
            return f"certificate verdict {result.verdict!r}, expected {e['verdict']!r}"
        return None
    raise KeyError(op)


def verify(req, result, refs: dict) -> str | None:
    """None if the output of req is correct, else the reason it is not."""
    try:
        if req.kind == "cli":
            return _verify_cli(req.expect, result)
        return _verify_lib(req.op, req.params, req.expect, result, refs)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
