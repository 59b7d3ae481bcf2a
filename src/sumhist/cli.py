"""Command-line surface: groupoid validation, state checks, propagator tables,
and convergence studies.

Exit codes: 0 success, 2 input error, 3 check failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import io as sio
from .action import (EUCLIDEAN, REAL_PHASE, Lagrangian, NormalizationError,
                     StateSpec, SymmetryError, asymmetric_morphisms,
                     energy_lagrangian, family_certificate, family_form_value,
                     family_gns_vector, full_interval_family,
                     state_from_lagrangian, uniform_state_spec, zero_lagrangian)
from .algebra import GroupoidMeasure, counting_measure
from .geometry import CircleLattice, LineLattice
from .groupoid import (GroupoidFormatError, InvalidGroupError, resolve_groupoid,
                       validate_axioms)
from .histories import TimeGrid
from .propagator import (SliceConfig, circle_convergence, circle_propagator,
                         errors_decrease, image_sum_circle_kernel,
                         line_convergence, line_kernel, propagator_table,
                         reproducing_residual, sliced_line_propagator,
                         transfer_oracle_table)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK = 3


def _parse_grid(text: str) -> TimeGrid:
    try:
        t0s, t1s, ns = text.split(",")
        return TimeGrid.uniform(float(t0s), float(t1s), int(ns))
    except Exception as exc:
        raise ValueError(f"bad grid spec {text!r}: expected t0,t1,N") from exc


def _load_measure(g, arg: str | None) -> GroupoidMeasure:
    if arg is None:
        return counting_measure(g)
    obj_path, _, fib_path = arg.partition(":")
    ow = sio.load_weights_csv(obj_path, g.n_objects, "object_id", "weight") \
        if obj_path else np.ones(g.n_objects)
    fw = sio.load_weights_csv(fib_path, g.n_morphisms, "morphism_id", "fiber_weight") \
        if fib_path else np.ones(g.n_morphisms)
    return GroupoidMeasure(g, ow, fw)


def _load_lagrangian(g, arg: str, grid: TimeGrid, mass: float) -> Lagrangian:
    if arg == "zero":
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


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    try:
        g = resolve_groupoid(args.groupoid)
    except (GroupoidFormatError, InvalidGroupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = validate_axioms(g)
    _emit(f"{g.name}: {report.summary()}\n", args.out)
    return EXIT_OK if report.ok else EXIT_CHECK


def cmd_state_check(args) -> int:
    if not args.groupoid or not args.grid:
        print("error: state-check needs --groupoid and --grid", file=sys.stderr)
        return EXIT_INPUT
    try:
        g = resolve_groupoid(args.groupoid)
        grid = _parse_grid(args.grid)
        measure = _load_measure(g, args.measure)
        lag = _load_lagrangian(g, args.lagrangian, grid, args.mass)
        spec = _load_spec(g, args, measure)
    except (GroupoidFormatError, InvalidGroupError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

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
        hom_sizes = np.zeros((g.n_objects, g.n_objects))
        np.add.at(hom_sizes, (g.tgt, g.src), 1.0)
        count = int(round(np.linalg.matrix_power(hom_sizes, grid.n_intervals).sum()))
        if count > 20000:
            print(f"error: {count} histories on this grid; the positivity "
                  "certificate needs <= 20000 (use a coarser grid)", file=sys.stderr)
            return EXIT_INPUT
        family = full_interval_family(g, grid)
        cert = family_certificate(state, family)
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


def cmd_propagate(args) -> int:
    if args.geometry:
        return _propagate_geometry(args)
    if not args.groupoid or not args.grid:
        print("error: propagate needs --geometry, or --groupoid with --grid",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        g = resolve_groupoid(args.groupoid)
        grid = _parse_grid(args.grid)
        measure = _load_measure(g, args.measure)
        lag = _load_lagrangian(g, args.lagrangian, grid, args.mass)
        spec = _load_spec(g, args, measure)
        state_from_lagrangian(lag, spec, g, grid, measure)  # symmetry + normalization
    except (GroupoidFormatError, InvalidGroupError, SymmetryError,
            NormalizationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    table = propagator_table(g, grid, lag, spec, measure, partitions=args.threads)
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
        if args.at is None or not (0 < args.at < grid.n_intervals):
            print("error: --check reproducing needs an interior --at slice",
                  file=sys.stderr)
            return EXIT_INPUT
        res = reproducing_residual(g, grid, lag, spec, args.at, measure)
        print(f"reproducing residual at slice {args.at}: {res:.3e}", file=sys.stderr)
        if res > args.tol:
            status = EXIT_CHECK

    writer = sio.propagator_table_json if args.format == "json" else sio.propagator_table_csv
    _emit(writer(table, extra=extra, extra_name=extra_name), args.out)
    return status


def _slice_config(args, n_slices) -> SliceConfig:
    total = args.T
    if args.grid:
        grid = _parse_grid(args.grid)
        total = grid.times[-1] - grid.times[0]
        n_slices = grid.n_intervals
    return SliceConfig(n_slices, total, args.mass, args.hbar,
                       EUCLIDEAN if args.mode == "euclidean" else REAL_PHASE,
                       args.quad_halfwidth, args.quad_nodes)


def _float_list(text: str) -> list[float]:
    return [float(s) for s in text.split(",")]


def _propagate_geometry(args) -> int:
    rows = []
    try:
        cfg = _slice_config(args, args.N)
        if args.geometry == "line":
            x0 = args.x0
            x1s = _float_list(args.x1) if args.x1 else [round(-2.0 + 0.5 * k, 10)
                                                        for k in range(9)]
            method = "quadrature" if cfg.mode == EUCLIDEAN else "recursion"
            for x1 in x1s:
                val = sliced_line_propagator(cfg, x0, x1, method)
                ref = line_kernel(cfg.mass, cfg.hbar, cfg.total_time, x1 - x0, cfg.mode)
                rows.append((x0, x1, val, ref))
        elif args.geometry == "circle":
            th0 = args.x0
            lc = args.circumference
            th1s = _float_list(args.x1) if args.x1 else [lc * k / 8 for k in range(8)]
            for th1 in th1s:
                val = circle_propagator(cfg, lc, th0, th1, args.sites)
                ref = image_sum_circle_kernel(cfg, lc, th0, th1, args.winding_max)
                rows.append((th0, th1, val, ref))
        else:
            print(f"error: unknown geometry {args.geometry!r}", file=sys.stderr)
            return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    rows = [(x0, x1, val, abs(val - ref) / max(abs(ref), 1e-300))
            for x0, x1, val, ref in rows]
    _emit(sio.kernel_comparison(rows, cfg.total_time, args.format), args.out)
    worst = max([0.0, *(rel for *_, rel in rows)])
    print(f"max relative error against the reference kernel: {worst:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_converge(args) -> int:
    try:
        cfg = _slice_config(args, args.N)
        sweep = [int(s) for s in args.sweep.split(",")] if args.sweep else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.geometry == "line":
            sweep = sweep or [1, 2, 4, 8, 16, 32, 64, 128, 256]
            x1 = _float_list(args.x1)[0] if args.x1 else 1.0
            rows = line_convergence(cfg, args.x0, x1, sweep)
        elif args.geometry == "circle":
            sweep = sweep or [1, 2, 4, 8, 16, 32, 64]
            th1 = _float_list(args.x1)[0] if args.x1 else args.circumference / 2
            rows = circle_convergence(cfg, args.circumference, args.x0, th1, sweep,
                                      args.sites, args.winding_max)
        else:
            print("error: converge needs --geometry line|circle", file=sys.stderr)
            return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
    p.add_argument("--lagrangian", default="zero",
                   help="'zero', 'energy:line[,spacing]', 'energy:circle[,circumference]', "
                        "or a CSV file")
    p.add_argument("--dfs", help="state-spec YAML (density, hbar, mode, convention)")
    p.add_argument("--grid", help="uniform grid spec t0,t1,N")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mode", choices=("real", "euclidean"), default="real")


def _add_geometry(p: argparse.ArgumentParser) -> None:
    p.add_argument("--geometry", choices=("line", "circle"))
    p.add_argument("--N", type=int, default=64, help="slice count")
    p.add_argument("--T", type=float, default=1.0, help="total time")
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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("state-check",
                       help="normalization, symmetry, positivity certificate")
    _add_model(p)
    _add_output(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random vectors of the identity check")
    p.set_defaults(func=cmd_state_check)

    p = sub.add_parser("propagate", help="endpoint amplitude table")
    _add_model(p)
    _add_geometry(p)
    _add_output(p, formats=True)
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="N > 1 selects the partitioned summation order (one "
                        "exactly rounded partial per first interior object, "
                        "then their sum); it starts no threads")
    p.add_argument("--check", choices=("reproducing",))
    p.add_argument("--at", type=int, help="interior slice for --check reproducing")
    p.add_argument("--oracle", choices=("transfer-matrix",))
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("converge", help="error-vs-dt sweep against a reference kernel")
    _add_model(p)
    _add_geometry(p)
    _add_output(p, formats=True)
    p.add_argument("--sweep", help="comma-separated slice counts")
    p.add_argument("--burnin", type=int, default=8)
    p.add_argument("--floor", type=float, default=1e-9)
    p.set_defaults(func=cmd_converge)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
