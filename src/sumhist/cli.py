"""Command-line surface: groupoid validation, state checks, propagator tables,
and convergence studies.

Exit codes: 0 success, 2 input error, 3 check failure.  ``main`` is the one
place that turns an input error, any ValueError, OSError or OverflowError (an
action or weight beyond the float range), into exit 2 with a one-line
``error:`` message.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io as sio
from .action import (EUCLIDEAN, Lagrangian, NormalizationError,
                     StateSpec, asymmetric_morphisms,
                     energy_lagrangian, family_certificate, family_form_value,
                     family_gns_vector, full_interval_family,
                     state_from_lagrangian, uniform_state_spec, zero_lagrangian)
from .algebra import GroupoidMeasure, counting_measure
from .geometry import CircleLattice, LineLattice
from .groupoid import is_builtin_name, resolve_groupoid, validate_axioms
from .histories import TimeGrid, total_histories
from .propagator import (SliceConfig, circle_convergence, circle_propagators,
                         errors_decrease, image_sum_circle_kernel,
                         line_convergence, line_kernel, propagator_table,
                         reproducing_residual, sliced_line_propagators,
                         transfer_oracle_table)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK = 3


def _parse_grid(text: str) -> TimeGrid:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"bad grid spec {text!r}: expected t0,t1,N")
    return TimeGrid.uniform(float(parts[0]), float(parts[1]), int(parts[2]))


def _load_measure(g, arg: str | None) -> GroupoidMeasure:
    if arg is None:
        return counting_measure(g)
    obj_path, _, fib_path = arg.partition(":")
    ow = sio.load_weights_csv(obj_path, g.n_objects, "object_id", "weight") \
        if obj_path else np.ones(g.n_objects)
    fw = sio.load_weights_csv(fib_path, g.n_morphisms, "morphism_id", "fiber_weight") \
        if fib_path else np.ones(g.n_morphisms)
    return GroupoidMeasure(g, ow, fw)


def _load_lagrangian(g, arg: str | None, grid: TimeGrid, mass: float) -> Lagrangian:
    if arg is None or arg == "zero":
        return zero_lagrangian(g)
    if arg.startswith("energy:"):
        spec = arg.split(":", 1)[1]
        kind, _, param = spec.partition(",")
        dt = grid.dt(0)
        if kind == "line":
            geom = LineLattice(g.n_objects, float(param) if param else 1.0)
        elif kind == "circle":
            geom = CircleLattice(g.n_objects, float(param) if param else float(g.n_objects))
        else:
            raise ValueError(f"unknown energy geometry {kind!r}")
        return energy_lagrangian(g, geom, dt, mass)
    return Lagrangian(g, sio.load_lagrangian_csv(arg, g.n_morphisms))


def _load_spec(g, args, measure) -> StateSpec:
    if args.dfs:
        return sio.load_state_spec(args.dfs, g, measure)
    return uniform_state_spec(g, hbar=args.hbar, mode=args.mode,
                              convention="incremental", measure=measure)


def _load_groupoid(source: str):
    """The groupoid named by --groupoid; a description file must satisfy the
    groupoid axioms (builtins do by construction)."""
    g = resolve_groupoid(source)
    if not is_builtin_name(source):
        report = validate_axioms(g, limit=1)
        if not report.ok:
            raise ValueError(f"groupoid file {source} fails the groupoid axioms: "
                             f"{report.violations[0]}")
    return g


def _load_model(args):
    """Groupoid, grid, measure, Lagrangian and state spec named by the flags."""
    g = _load_groupoid(args.groupoid)
    grid = _parse_grid(args.grid)
    measure = _load_measure(g, args.measure)
    lag = _load_lagrangian(g, args.lagrangian, grid, args.mass)
    return g, grid, measure, lag, _load_spec(g, args, measure)


def _check_out(out: str | None) -> None:
    """Refuse an --out that cannot be written, before any work; the file is
    neither created nor truncated here, only by the final write."""
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path.parent))
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), out)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    g = resolve_groupoid(args.groupoid)
    report = validate_axioms(g)
    _emit(f"{g.name}: {report.summary()}\n", args.out)
    return EXIT_OK if report.ok else EXIT_CHECK


def cmd_state_check(args) -> int:
    if not args.groupoid or not args.grid:
        raise ValueError("state-check needs --groupoid and --grid")
    g, grid, measure, lag, spec = _load_model(args)
    if spec.mode == EUCLIDEAN:
        # the euclidean state on the pair word v·u⁻¹ is exp(-(S(v) - S(u))/ħ),
        # not the factorized conj(ψ_u)ψ_v that the certificate reads
        raise ValueError("positivity is claimed for the real mode only; "
                         "state-check does not take --mode euclidean")

    entries = []
    status = EXIT_OK
    bad_pairs = asymmetric_morphisms(lag)
    if bad_pairs:
        entries.append(("lagrangian_symmetry", f"violations at {bad_pairs[:5]}", "fail"))
        print(f"symmetry error: lagrangian differs on morphism pairs {bad_pairs[:5]}",
              file=sys.stderr)
        status = EXIT_CHECK
    else:
        entries.append(("lagrangian_symmetry", "ok", "pass"))
    try:
        spec.validate(grid, measure)
        entries.append(("density_normalization", "ok", "pass"))
    except NormalizationError as exc:
        entries.append(("density_normalization", str(exc), "fail"))
        print(f"normalization error: {exc}", file=sys.stderr)
        status = EXIT_CHECK

    if status == EXIT_OK:
        state = state_from_lagrangian(lag, spec, g, grid, measure)
        count = total_histories(g, grid.n_intervals)
        if count > 20000:
            raise ValueError(f"{count} histories on this grid; the positivity "
                             "certificate needs <= 20000 (use a coarser grid)")
        family = full_interval_family(g, grid)
        cert = family_certificate(state, family)

    if status == EXIT_OK:
        entries.append(("positivity_min_eigenvalue", repr(cert.min_eigenvalue),
                        "pass" if cert.is_positive else "fail"))
        if not cert.is_positive:
            status = EXIT_CHECK
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(5):
            f = rng.standard_normal(len(family)) + 1j * rng.standard_normal(len(family))
            lhs = family_form_value(state, family, f)
            rhs = float(np.sum(np.abs(family_gns_vector(state, family, f)) ** 2))
            worst = max(worst, abs(lhs - rhs))
        entries.append(("positivity_identity_residual", repr(worst),
                        "pass" if worst <= 1e-10 else "fail"))
        if worst > 1e-10:
            status = EXIT_CHECK

    text = sio.report_csv(entries)
    _emit(text, args.out)
    return status


# propagate flags that only a finite groupoid model reads
_FINITE_ONLY = ("groupoid", "measure", "lagrangian", "dfs", "oracle", "check", "at")


def cmd_propagate(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, not {args.threads}")
    if not args.tol >= 0:   # a NaN tol would pass every gate
        raise ValueError(f"--tol must be a non-negative number, not {args.tol}")
    if args.geometry:
        unread = [f"--{name}" for name in _FINITE_ONLY if getattr(args, name) is not None]
        if unread:
            raise ValueError(f"propagate --geometry does not read {', '.join(unread)}")
        return _propagate_geometry(args)
    if not args.groupoid or not args.grid:
        raise ValueError("propagate needs --geometry, or --groupoid with --grid")
    if args.at is not None and not args.check:
        raise ValueError("--at is read only by --check reproducing")
    g, grid, measure, lag, spec = _load_model(args)
    if args.check and (args.at is None or not 0 < args.at < grid.n_intervals):
        raise ValueError("--check reproducing needs an interior --at slice")
    state_from_lagrangian(lag, spec, g, grid, measure)  # symmetry + normalization

    table = propagator_table(g, grid, lag, spec, measure)
    status = EXIT_OK
    extra = None
    extra_name = ""
    if args.oracle == "transfer-matrix":
        oracle = transfer_oracle_table(g, grid, lag, spec, measure)
        extra = {}
        for key, z in table.amplitudes.items():
            ref = oracle.amplitudes[key]
            scale = max(abs(ref), 1e-300)
            extra[key] = abs(z - ref) / scale
        extra_name = "oracle_rel_dev"
        worst = max(extra.values())
        print(f"transfer-matrix oracle: max relative deviation {worst:.3e}", file=sys.stderr)
        if worst > args.tol:
            status = EXIT_CHECK
    if args.check == "reproducing":
        res = reproducing_residual(g, grid, lag, spec, args.at, measure, table)
        print(f"reproducing residual at slice {args.at}: {res:.3e}", file=sys.stderr)
        if res > args.tol:
            status = EXIT_CHECK

    writer = sio.propagator_table_json if args.format == "json" else sio.propagator_table_csv
    _emit(writer(table, extra=extra, extra_name=extra_name), args.out)
    return status


def _slice_config(args) -> SliceConfig:
    """The slicing of --grid, or of --N and --T (64 slices over time 1.0 by
    default); a grid fixes both, so it is not given with either."""
    if args.grid:
        given = [f"--{name}" for name in ("N", "T") if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--grid fixes the slice count and total time; "
                             f"it is not given with {' or '.join(given)}")
        grid = _parse_grid(args.grid)
        n_slices, total = grid.n_intervals, grid.times[-1] - grid.times[0]
    else:
        n_slices = 64 if args.N is None else args.N
        total = 1.0 if args.T is None else args.T
    return SliceConfig(n_slices, total, args.mass, args.hbar, args.mode,
                       args.quad_halfwidth, args.quad_nodes)


def _endpoints(args, default: list[float]) -> tuple[float, list[float]]:
    """--x0 and the --x1 list (default when absent); given endpoints must be finite."""
    x1s = [float(s) for s in args.x1.split(",")] if args.x1 else []
    if not all(map(math.isfinite, (args.x0, *x1s))):
        raise ValueError(f"endpoints must be finite: --x0 {args.x0!r}, --x1 {args.x1!r}")
    return args.x0, x1s or default


def _one_endpoint(args, default: float) -> tuple[float, float]:
    """--x0 and the one --x1 of a convergence sweep (default when absent)."""
    x0, x1s = _endpoints(args, [default])
    if len(x1s) > 1:
        raise ValueError(f"converge takes one --x1 endpoint, not {len(x1s)}")
    return x0, x1s[0]


def _propagate_geometry(args) -> int:
    cfg = _slice_config(args)
    if args.geometry == "line":
        x0, x1s = _endpoints(args, [round(-2.0 + 0.5 * k, 10) for k in range(9)])
        method = "quadrature" if cfg.mode == EUCLIDEAN else "recursion"
        vals = sliced_line_propagators(cfg, x0, x1s, method)
        refs = [line_kernel(cfg.mass, cfg.hbar, cfg.total_time, x1 - x0, cfg.mode)
                for x1 in x1s]
    else:
        lc = args.circumference
        x0, x1s = _endpoints(args, [lc * k / 8 for k in range(8)])
        # the references first: they refuse real time before any lattice work
        refs = [image_sum_circle_kernel(cfg, lc, x0, th1, args.winding_max) for th1 in x1s]
        vals = circle_propagators(cfg, lc, x0, x1s, args.sites)

    rows = [(x0, x1, val, abs(val - ref) / max(abs(ref), 1e-300))
            for x1, val, ref in zip(x1s, vals, refs)]
    _emit(sio.kernel_comparison(rows, cfg.total_time, args.format), args.out)
    rels = [rel for *_, rel in rows]
    # max() would drop a NaN error, as NaN compares False
    worst = math.nan if any(map(math.isnan, rels)) else max([0.0, *rels])
    print(f"max relative error against the reference kernel: {worst:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_converge(args) -> int:
    cfg = _slice_config(args)
    sweep = [int(s) for s in args.sweep.split(",")] if args.sweep else None
    if args.geometry == "line":
        sweep = sweep or [1, 2, 4, 8, 16, 32, 64, 128, 256]
        x0, x1 = _one_endpoint(args, 1.0)
        rows = line_convergence(cfg, x0, x1, sweep)
    elif args.geometry == "circle":
        sweep = sweep or [1, 2, 4, 8, 16, 32, 64]
        th0, th1 = _one_endpoint(args, args.circumference / 2)
        rows = circle_convergence(cfg, args.circumference, th0, th1, sweep,
                                  args.sites, args.winding_max)
    else:
        raise ValueError("converge needs --geometry line|circle")
    writer = sio.convergence_json if args.format == "json" else sio.convergence_csv
    _emit(writer(rows), args.out)
    ok = errors_decrease(rows, burn_in=args.burnin, floor=args.floor)
    if not ok:
        print("convergence check failed: errors do not decrease beyond burn-in",
              file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _add_output(p: argparse.ArgumentParser, formats: bool = False) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    if formats:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--groupoid", help="builtin name (pair:<n>, cyclic:<k>, "
                                      "pair_x_cyclic:<n>,<k>) or description file")
    p.add_argument("--measure", help="object-weights CSV, optionally "
                                     "OBJ.csv:FIBER.csv")
    p.add_argument("--lagrangian",
                   help="'zero', 'energy:line[,spacing]', 'energy:circle[,circumference]', "
                        "or a CSV file")
    p.add_argument("--dfs", help="state-spec YAML (density, hbar, mode, convention)")
    _add_slicing(p)


def _add_slicing(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", help="uniform grid spec t0,t1,N")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mode", choices=("real", "euclidean"), default="real")


def _add_geometry(p: argparse.ArgumentParser) -> None:
    p.add_argument("--geometry", choices=("line", "circle"))
    p.add_argument("--N", type=int, help="slice count")
    p.add_argument("--T", type=float, help="total time")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--x1", help="comma-separated endpoint list")
    p.add_argument("--quad-halfwidth", dest="quad_halfwidth", type=float, default=8.0)
    p.add_argument("--quad-nodes", dest="quad_nodes", type=int, default=400)
    p.add_argument("--circumference", type=float, default=2 * math.pi)
    p.add_argument("--sites", type=int, default=256)
    p.add_argument("--winding-max", dest="winding_max", type=int, default=10)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sumhist",
                                 description="finite-groupoid path-sum propagators")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the groupoid axioms")
    p.add_argument("--groupoid", required=True)
    _add_output(p)

    p = sub.add_parser("state-check",
                       help="normalization, symmetry, positivity certificate")
    _add_model(p)
    _add_output(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random vectors of the identity check")

    p = sub.add_parser("propagate", help="endpoint amplitude table")
    _add_model(p)
    _add_geometry(p)
    _add_output(p, formats=True)
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="accepted for compatibility; it has no effect on the "
                        "result and starts no threads")
    p.add_argument("--check", choices=("reproducing",))
    p.add_argument("--at", type=int, help="interior slice for --check reproducing")
    p.add_argument("--oracle", choices=("transfer-matrix",))
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("converge", help="error-vs-dt sweep against a reference kernel")
    _add_slicing(p)
    _add_geometry(p)
    _add_output(p, formats=True)
    p.add_argument("--sweep", help="comma-separated slice counts")
    p.add_argument("--burnin", type=int, default=8)
    p.add_argument("--floor", type=float, default=1e-9)
    return ap


_parser = None  # built by the first main call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up at each call, so that a rebound cmd_* of this module runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _check_out(args.out)
        return command(args)
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
