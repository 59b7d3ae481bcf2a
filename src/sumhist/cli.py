"""Command-line surface: groupoid validation, state checks, propagator tables,
and convergence studies.

Exit codes: 0 success, 2 input error, 3 check failure.  ``main`` is the one
place that turns an input error, any ValueError, OSError or OverflowError (an
action or weight beyond the float range), into exit 2 with a one-line
``error:`` message, argparse's refusals included.  ``FLAGS`` declares each
flag once, and ``ROWS`` the flags each command branch reads and requires.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import textwrap
from pathlib import Path

import numpy as np

from . import io as sio
from .action import (EUCLIDEAN, Lagrangian, NormalizationError,
                     StateSpec, asymmetric_morphisms,
                     energy_lagrangian, family_certificate, family_form,
                     family_form_value, full_interval_family,
                     state_from_lagrangian, uniform_state_spec, zero_lagrangian)
from .algebra import GroupoidMeasure, counting_measure
from .geometry import CircleLattice, LineLattice
from .groupoid import is_builtin_name, resolve_groupoid, validate_axioms
from .histories import TimeGrid, total_histories
from .propagator import (PropagatorTable, SliceConfig, _modulus, _worst,
                         circle_convergence, circle_propagators, errors_decrease,
                         image_sum_circle_kernel, line_convergence, line_kernel,
                         propagator_table, relative_deviations,
                         reproducing_residual, sliced_line_propagators,
                         transfer_oracle_table)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK = 3

# The most histories propagate sums: about 95 s at the 1.07M histories/s of
# a 2-core Xeon, far above every benchmark request (at most 279936).
PROPAGATE_HISTORY_CAP = 10 ** 8


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
    """The --dfs state spec, which fixes hbar and the mode (a given --hbar or
    --mode must agree with it), or the uniform spec of --hbar and --mode."""
    if not args.dfs:
        return uniform_state_spec(g, hbar=args.hbar, mode=args.mode,
                                  convention="incremental", measure=measure)
    spec = sio.load_state_spec(args.dfs, g, measure)
    clash = [k for k in ("hbar", "mode")
             if k in args.given and getattr(args, k) != getattr(spec, k)]
    if clash:
        raise ValueError(f"state spec {args.dfs} has " + "; ".join(
            f"{k} {getattr(spec, k)}, not --{k} {getattr(args, k)}" for k in clash))
    return spec


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


def _check_histories(g, grid: TimeGrid, cap: int, what: str) -> None:
    """Refuse a grid with more than cap histories, before any is enumerated."""
    count = total_histories(g, grid.n_intervals)
    if count > cap:
        raise ValueError(f"{count} histories on this grid; {what} needs <= {cap} "
                         "(use a coarser grid)")


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
    g, grid, measure, lag, spec = _load_model(args)
    if spec.mode == EUCLIDEAN:
        # the euclidean state on the pair word v·u⁻¹ is exp(-(S(v) - S(u))/ħ),
        # not the factorized conj(ψ_u)ψ_v that the certificate reads
        raise ValueError("positivity is claimed for the real mode only; "
                         "state-check does not take --mode euclidean")

    checks = []     # (check, value, passes): each row's one verdict
    bad_pairs = asymmetric_morphisms(lag)
    checks.append(("lagrangian_symmetry",
                   f"violations at {bad_pairs[:5]}" if bad_pairs else "ok", not bad_pairs))
    if bad_pairs:
        print(f"symmetry error: lagrangian differs on morphism pairs {bad_pairs[:5]}",
              file=sys.stderr)
    try:
        spec.validate(grid, measure)
        checks.append(("density_normalization", "ok", True))
    except NormalizationError as exc:
        checks.append(("density_normalization", str(exc), False))
        print(f"normalization error: {exc}", file=sys.stderr)

    if all(passes for *_, passes in checks):
        state = state_from_lagrangian(lag, spec, g, grid, measure)
        _check_histories(g, grid, 20000, "the positivity certificate")
        family = full_interval_family(g, grid)
        cert = family_certificate(state, family)
        checks.append(("positivity_min_eigenvalue", repr(cert.min_eigenvalue),
                       cert.is_positive))
        rng = np.random.default_rng(args.seed)
        form = family_form(state, family)
        residuals, scales = [], [1.0]
        for _ in range(5):
            f = rng.standard_normal(len(family)) + 1j * rng.standard_normal(len(family))
            lhs = family_form_value(state, family, f)
            rhs = float(np.sum(np.abs(form.vector(f)) ** 2))
            residuals.append(_modulus(lhs - rhs))
            scales.append(_modulus(lhs))
        # the bound scales with the largest form value (at least 1), which
        # grows with the family
        worst = _worst(residuals)
        checks.append(("positivity_identity_residual", repr(worst),
                       worst <= 1e-10 * _worst(scales)))

    _emit(sio.report_csv([(check, value, "pass" if passes else "fail")
                          for check, value, passes in checks]), args.out)
    return EXIT_OK if all(passes for *_, passes in checks) else EXIT_CHECK


def cmd_propagate(args) -> int:
    if not args.tol >= 0:   # a NaN tol would pass every gate
        raise ValueError(f"--tol must be a non-negative number, not {args.tol}")
    if args.geometry:
        return _propagate_geometry(args)
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, not {args.threads}")
    g, grid, measure, lag, spec = _load_model(args)
    if args.check and (args.at is None or not 0 < args.at < grid.n_intervals):
        raise ValueError("--check reproducing needs an interior --at slice")
    state = state_from_lagrangian(lag, spec, g, grid, measure)
    _check_histories(g, grid, PROPAGATE_HISTORY_CAP, "the path sum")

    # every refusal of an underflowed reference comes before any enumeration
    oracle = transfer_oracle_table(state) if args.oracle else None
    if args.check == "reproducing":
        res, table = reproducing_residual(state, args.at)
    else:
        table = propagator_table(state)
    gates = []      # (stderr line, worst): each passes when worst <= --tol
    devs = None
    if oracle is not None:
        devs, worst = relative_deviations(table.amplitudes, oracle.amplitudes)
        gates.append((f"transfer-matrix oracle: max relative deviation {worst:.3e}", worst))
    if args.check == "reproducing":
        gates.append((f"reproducing residual at slice {args.at}: {res:.3e}", res))
    for line, _ in gates:
        print(line, file=sys.stderr)
    _emit_table(args, table, devs, "oracle_rel_dev")
    return EXIT_OK if all(worst <= args.tol for _, worst in gates) else EXIT_CHECK


def _emit_table(args, table: PropagatorTable, extra, extra_name: str) -> None:
    writer = sio.propagator_table_json if args.format == "json" else sio.propagator_table_csv
    _emit(writer(table, extra=extra, extra_name=extra_name), args.out)


def _slice_config(args) -> SliceConfig:
    """The slicing of --grid, or of --N and --T; the quadrature flags where
    the branch reads them (the line), SliceConfig's defaults elsewhere."""
    n_slices, total = args.N, args.T
    if args.grid:
        grid = _parse_grid(args.grid)
        n_slices, total = grid.n_intervals, grid.times[-1] - grid.times[0]
    quad = {k: getattr(args, k) for k in ("quad_halfwidth", "quad_nodes") if k in args}
    return SliceConfig(n_slices, total, args.mass, args.hbar, args.mode, **quad)


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

    table = PropagatorTable(TimeGrid((0.0, cfg.total_time)), np.array([x0]),
                            np.array(x1s, dtype=float), np.array([vals], dtype=complex))
    devs, worst = relative_deviations(table.amplitudes, [refs])
    _emit_table(args, table, devs, "rel_error")
    print(f"max relative error against the reference kernel: {worst:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_converge(args) -> int:
    cfg = _slice_config(args)
    sweep = [int(s) for s in args.sweep.split(",")] if args.sweep else None
    if args.geometry == "line":
        sweep = sweep or [1, 2, 4, 8, 16, 32, 64, 128, 256]
        x0, x1 = _one_endpoint(args, 1.0)
        rows = line_convergence(cfg, x0, x1, sweep)
    else:
        sweep = sweep or [1, 2, 4, 8, 16, 32, 64]
        th0, th1 = _one_endpoint(args, args.circumference / 2)
        rows = circle_convergence(cfg, args.circumference, th0, th1, sweep,
                                  args.sites, args.winding_max)
    writer = sio.convergence_json if args.format == "json" else sio.convergence_csv
    _emit(writer(rows), args.out)
    ok = errors_decrease(rows, burn_in=args.burnin, floor=args.floor)
    if not ok:
        print("convergence check failed: errors do not decrease beyond burn-in",
              file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


# Every flag once: its add_argument keywords and the default that main fills in.
FLAGS = {
    "groupoid": {"help": "builtin name (pair:<n>, cyclic:<k>, "
                         "pair_x_cyclic:<n>,<k>) or description file"},
    "measure": {"help": "object-weights CSV, optionally OBJ.csv:FIBER.csv"},
    "lagrangian": {"help": "'zero', 'energy:line[,spacing]', "
                           "'energy:circle[,circumference]', or a CSV file"},
    "dfs": {"help": "state-spec YAML (density, hbar, mode, convention)"},
    "grid": {"help": "uniform grid spec t0,t1,N"},
    "mass": {"type": float, "default": 1.0},
    "hbar": {"type": float, "default": 1.0},
    "mode": {"choices": ("real", "euclidean"), "default": "real"},
    "geometry": {"choices": ("line", "circle")},
    "N": {"type": int, "default": 64, "help": "slice count"},
    "T": {"type": float, "default": 1.0, "help": "total time"},
    "x0": {"type": float, "default": 0.0},
    "x1": {"help": "comma-separated endpoint list"},
    "quad_halfwidth": {"type": float, "default": SliceConfig.quad_halfwidth},
    "quad_nodes": {"type": int, "default": SliceConfig.quad_nodes},
    "circumference": {"type": float, "default": 2 * math.pi},
    "sites": {"type": int, "default": 256},
    "winding_max": {"type": int, "default": 10},
    "out": {"help": "output file (default: stdout)"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "threads": {"type": int, "default": 1, "metavar": "N",
                "help": "accepted for compatibility; it has no effect on the "
                        "result and starts no threads"},
    "check": {"choices": ("reproducing",)},
    "at": {"type": int, "help": "interior slice for --check reproducing"},
    "oracle": {"choices": ("transfer-matrix",)},
    "tol": {"type": float, "default": 1e-12},
    "seed": {"type": int, "default": 0,
             "help": "seed of the random vectors of the identity check"},
    "sweep": {"help": "comma-separated slice counts"},
    "burnin": {"type": int, "default": 8},
    "floor": {"type": float, "default": 1e-9},
}

_MODEL = ("groupoid", "measure", "lagrangian", "dfs", "grid", "mass", "hbar", "mode", "out")
_SLICED = ("geometry", "grid", "mass", "hbar", "mode", "N", "T", "x0", "x1", "out", "format")
_LINE = ("quad_halfwidth", "quad_nodes")
_CIRCLE = ("circumference", "sites", "winding_max")
_SWEEP = ("sweep", "burnin", "floor")

# One row per (command, --geometry) branch: the flags it reads, and the flags
# it requires.  converge without --geometry computes nothing.
ROWS = {
    ("validate", None): (("groupoid", "out"), ("groupoid",)),
    ("state-check", None): ((*_MODEL, "seed"), ("groupoid", "grid")),
    ("propagate", None): ((*_MODEL, "geometry", "format", "threads",
                           "check", "at", "oracle", "tol"), ("groupoid", "grid")),
    ("propagate", "line"): ((*_SLICED, *_LINE, "tol"), ()),
    ("propagate", "circle"): ((*_SLICED, *_CIRCLE, "tol"), ()),
    ("converge", None): ((*_SLICED, *_SWEEP), ("geometry",)),
    ("converge", "line"): ((*_SLICED, *_LINE, *_SWEEP), ()),
    ("converge", "circle"): ((*_SLICED, *_CIRCLE, *_SWEEP), ()),
}

# (flag, rule, other): a given flag needs, or excludes, another one its branch reads
PAIR_RULES = (("at", "needs", "check"), ("grid", "excludes", "N"), ("grid", "excludes", "T"))

COMMANDS = {"validate": "check the groupoid axioms",
            "state-check": "normalization, symmetry, positivity certificate",
            "propagate": "endpoint amplitude table",
            "converge": "error-vs-dt sweep against a reference kernel"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)   # main makes it exit 2 with one line


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="sumhist", description="finite-groupoid path-sum propagators")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, text in COMMANDS.items():
        p = sub.add_parser(command, help=text, argument_default=argparse.SUPPRESS,
                           epilog=_epilog(command),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        reads = {name for (c, _), (names, _) in ROWS.items() if c == command for name in names}
        for name in filter(reads.__contains__, FLAGS):
            p.add_argument(_opts([name]), **{k: v for k, v in FLAGS[name].items()
                                             if k != "default"})
    return ap


def _opts(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _branch(command: str, geometry: str | None, reads) -> str:
    """The name of a ROWS branch: the command and its --geometry, if it reads one."""
    return command + (f" --geometry {geometry}" if geometry
                      else " without --geometry" if "geometry" in reads else "")


def _epilog(command: str) -> str:
    """The --help epilog: the flags each ROWS branch of command reads and requires."""
    lines = []
    for (c, geometry), (reads, requires) in ROWS.items():
        if c == command:
            lines.append(_branch(c, geometry, reads) + ":")
            lines += textwrap.wrap(f"reads {_opts(reads)}", initial_indent="  ",
                                   subsequent_indent="    ", break_on_hyphens=False)
            if requires:
                lines.append(f"  requires {_opts(requires)}")
    return "\n".join(lines)


def _check_flags(args) -> None:
    """Refuse, in one line naming the branch, every given flag outside its row,
    every missing required flag and every broken pair rule; then fill in the
    row's defaults.  args.given keeps the names of the flags given."""
    given = vars(args).keys() - {"command"}
    geometry = getattr(args, "geometry", None)
    reads, requires = ROWS[args.command, geometry]
    unread = [name for name in FLAGS if name in given and name not in reads]
    missing = [name for name in requires if name not in given]
    problems = [f"{verb} {_opts(names)}" for verb, names in
                (("does not read", unread), ("needs", missing)) if names]
    problems += [f"--{flag} {rule} --{other}" for flag, rule, other in PAIR_RULES
                 if flag in given and other in reads and (other in given) == (rule == "excludes")]
    if problems:
        raise ValueError(f"{_branch(args.command, geometry, reads)}: {'; '.join(problems)}")
    for name in reads:
        if name not in given:
            setattr(args, name, FLAGS[name].get("default"))
    args.given = given


_parser = None  # built by the first main call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        _check_flags(args)
        # looked up at each call, so that a rebound cmd_* of this module runs
        command = globals()["cmd_" + args.command.replace("-", "_")]
        _check_out(args.out)
        return command(args)
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
