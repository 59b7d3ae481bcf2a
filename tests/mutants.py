"""Mutants of sumhist: each one is a single string replacement in a copy of
src/, together with the tests that must fail on it.

Kill run, from the repository root (all mutants, or the named ones):

    python tests/mutants.py [NAME ...]

Each mutant is applied to a fresh temporary copy of src/, and its selection
runs under pytest in one subprocess, one mutant at a time.  A mutant is
killed when its selection reports a failing test (pytest exit code 1); any
other outcome is a survivor or an error.  The run prints one line per mutant
and exits 1 unless every mutant is killed.

A gate that can pass on wrong results proves nothing, so each gate that
guards an output gets a mutant here.  Every old text must occur exactly once
in its file (tests/test_mutants.py checks it), so a refactor that removes a
mutated line fails loudly instead of dropping its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str                   # relative to the repository root
    old: str                    # occurs exactly once in file
    new: str
    selection: tuple[str, ...]  # pytest arguments that must fail on the mutant


MUTANTS = (
    Mutant("circle-without-wrap", "src/sumhist/geometry.py",
           "return np.minimum(k, self.n_sites - k) * self.spacing",
           "return k * self.spacing",
           ("tests/test_continuum.py",)),
    Mutant("assoc-scan-drops-last-c", "src/sumhist/groupoid.py",
           "reps = count[pb[p0:p0 + step]]\n",
           "reps = count[pb[p0:p0 + step]] - 1\n",
           ("tests/test_groupoid.py",)),
    Mutant("gns-vector-conjugates-psi", "src/sumhist/states.py",
           "self._weighted(f) * self.psi)",
           "self._weighted(f) * np.conj(self.psi))",
           ("tests/test_action.py", "-k", "gns_vector")),
    Mutant("factorized-form-drops-weight", "src/sumhist/states.py",
           "return f if self.weights is None else self.weights * f",
           "return f",
           ("tests/test_states.py", "-k", "seeded_measure")),
    Mutant("propagate-oracle-gate", "src/sumhist/cli.py",
           '{worst:.3e}", worst))',
           '{worst:.3e}", 0.0))',
           ("tests/test_cli.py", "-k", "tol_gates")),
    Mutant("propagate-geometry-reads-finite-flags", "src/sumhist/cli.py",
           "unread = [name for name in FLAGS if name in given and name not in reads]",
           "unread = []",
           ("tests/test_cli.py", "-k", "geometry_refuses")),
    Mutant("flag-row-reads-an-unread-flag", "src/sumhist/cli.py",
           '"check", "at", "oracle", "tol")',
           '"check", "at", "oracle", "tol", "sites")',
           ("tests/test_cli.py", "-k", "every_flag_it_does_not_read")),
    Mutant("propagate-residual-gate", "src/sumhist/cli.py",
           '{res:.3e}", res))',
           '{res:.3e}", 0.0))',
           ("tests/test_cli.py", "-k", "tol_gates")),
    Mutant("errors-decrease-never-fails", "src/sumhist/propagator.py",
           "and all(e <= max(prev, floor) for prev, e in zip(later, later[1:])))",
           "and True)",
           ("tests/test_continuum.py", "-k", "errors_decrease")),
    Mutant("converge-exit-ignores-the-gate", "src/sumhist/cli.py",
           "ok = errors_decrease(rows, burn_in=args.burnin, floor=args.floor)",
           "ok = True",
           ("tests/test_cli.py", "-k", "converge_failure")),
    Mutant("validate-exit-ignores-the-report", "src/sumhist/cli.py",
           "return EXIT_OK if report.ok else EXIT_CHECK",
           "return EXIT_OK",
           ("tests/test_cli.py", "-k", "validate")),
    Mutant("hom-index-keeps-stray-targets", "src/sumhist/groupoid.py",
           "ids = np.flatnonzero((src >= 0) & (src < n) & (tgt >= 0) & (tgt < n))",
           "ids = np.flatnonzero((src >= 0) & (src < n) & (tgt >= 0))",
           ("tests/test_groupoid.py", "tests/test_histories.py",
            "-k", "per_morphism_scan or hom_arrays")),
    Mutant("hom-index-unstable-sort", "src/sumhist/groupoid.py",
           'order = np.argsort(keys, kind="stable")',
           "order = np.argsort(keys)",
           ("tests/test_groupoid.py", "tests/test_histories.py",
            "-k", "per_morphism_scan or hom_arrays")),
    Mutant("single-lane-keeps-empty-hom-sets", "src/sumhist/histories.py",
           "pairs = pairs[sizes[pairs].all(axis=1)]",
           "pairs = pairs",
           ("tests/test_histories.py", "-k", "link_walks_order")),
    Mutant("single-lane-drops-a-row-per-block", "src/sumhist/histories.py",
           "yield homs[pairs[start:start + BLOCK], 0]",
           "yield homs[pairs[start:start + BLOCK - 1], 0]",
           ("tests/test_histories.py", "-k", "link_walks_order")),
    Mutant("builtin-size-unchecked", "src/sumhist/groupoid.py",
           "if count > BUILTIN_CAP:",
           "if False:",
           ("tests/test_groupoid.py", "-k", "size_cap")),
    Mutant("description-file-takes-repeated-rows", "src/sumhist/groupoid.py",
           "if out[tuple(at)] != UNDEFINED:",
           "if False:",
           ("tests/test_groupoid.py", "tests/test_cli.py", "-k", "repeat")),
    Mutant("csv-takes-repeated-ids", "src/sumhist/io.py",
           "if i in line_of:",
           "if False:",
           ("tests/test_cli.py", "-k", "repeated_id")),
    Mutant("density-takes-repeated-keys", "src/sumhist/io.py",
           "if (k, x) in cells:",
           "if False:",
           ("tests/test_cli.py", "-k", "malformed_state_spec")),
    Mutant("cli-dispatch-bound-at-build", "src/sumhist/cli.py",
           '        _parser = build_parser()\n'
           '    try:\n'
           '        args = _parser.parse_args(argv)\n'
           '        _check_flags(args)\n'
           '        # looked up at each call, so that a rebound cmd_* of this module runs\n'
           '        command = globals()["cmd_" + args.command.replace("-", "_")]\n',
           '        _parser = build_parser()\n'
           '        _parser.bound = dict(globals())\n'
           '    try:\n'
           '        args = _parser.parse_args(argv)\n'
           '        _check_flags(args)\n'
           '        command = _parser.bound["cmd_" + args.command.replace("-", "_")]\n',
           ("tests/test_cli.py", "-k", "rebound")),
    Mutant("yaml-message-from-fast-loader", "src/sumhist/groupoid.py",
           "        except yaml.YAMLError:\n            pass\n",
           "        except yaml.YAMLError:\n            raise\n",
           ("tests/test_groupoid.py", "-k", "yaml_errors")),
    Mutant("yaml-fast-loader-takes-any-text", "src/sumhist/groupoid.py",
           "if FAST_TEXT.fullmatch(text):",
           "if True:",
           ("tests/test_groupoid.py", "-k", "parse_yaml")),
    Mutant("slicing-conflict-unchecked", "src/sumhist/cli.py",
           ', ("grid", "excludes", "N"), ("grid", "excludes", "T"))',
           ")",
           ("tests/test_cli.py", "-k", "grid_is_not_given")),
    Mutant("light-generators-not-closed", "src/sumhist/groupoid.py",
           "generator[res[np.maximum(rank[pa], rank[pb]) < rank[res]]] = False",
           "generator[res] = False",
           ("tests/test_groupoid.py", "-k", "light_test_reports")),
    Mutant("light-ignores-domain-violations", "src/sumhist/groupoid.py",
           "if premise and _light_associative(C, src, tgt, da, db, res):",
           "if _light_associative(C, src, tgt, da, db, res):",
           ("tests/test_groupoid.py", "-k", "light_test_reports")),
    Mutant("state-check-symmetry-row-always-passes", "src/sumhist/cli.py",
           'else "ok", not bad_pairs))',
           'else "ok", True))',
           ("tests/test_cli.py", "-k", "state_check")),
    Mutant("state-check-density-row-always-passes", "src/sumhist/cli.py",
           '("density_normalization", str(exc), False)',
           '("density_normalization", str(exc), True)',
           ("tests/test_cli.py", "-k", "state_check")),
    Mutant("exact-sum-drops-low-half", "src/sumhist/propagator.py",
           "self.bins[1] += np.bincount(e, m, 2 * _BINADES)",
           "self.bins[1] += 0.0",
           ("tests/test_propagator.py", "-k", "exact_sum or fsums_outcome")),
    Mutant("exact-sum-without-overflow-guard", "src/sumhist/propagator.py",
           "if not self.magnitude < _GUARD:",
           "if False:",
           ("tests/test_propagator.py", "-k", "exact_sum or fsums_outcome or overflowing")),
    Mutant("validate-table-bytes-unchecked", "src/sumhist/groupoid.py",
           "if table_bytes > TABLE_CAP:",
           "if False:",
           ("tests/test_cli.py", "-k", "table_bytes")),
    Mutant("description-file-table-bytes-unchecked", "src/sumhist/groupoid.py",
           '    check_table_size(M, 4, f"{path}: its composition table")\n',
           "",
           ("tests/test_cli.py", "-k", "table_cap")),
    Mutant("composite-drops-group-product", "src/sumhist/groupoid.py",
           "c = (ya - ya % k + G[ya % k, yb % k]) * n + xb",
           "c = ya * n + xb",
           ("tests/test_cli.py", "-k", "validate")),
    Mutant("propagate-takes-a-nan-tol", "src/sumhist/cli.py",
           "if not args.tol >= 0:",
           "if args.tol < 0:",
           ("tests/test_cli.py", "-k", "input_errors and tol")),
    Mutant("propagate-ignores-at-without-check", "src/sumhist/cli.py",
           '("at", "needs", "check"), ',
           "",
           ("tests/test_cli.py", "-k", "input_errors and at-without")),
    Mutant("dfs-override-unchecked", "src/sumhist/cli.py",
           "if clash:",
           "if False:",
           ("tests/test_cli.py", "-k", "dfs_spec")),
    Mutant("continuum-kernel-bytes-unchecked", "src/sumhist/propagator.py",
           "if cfg.n_slices > 1:        # one slice builds no kernel",
           "if False:",
           ("tests/test_cli.py", "-k", "kernel_bytes")),
    Mutant("lattice-transfer-bytes-unchecked", "src/sumhist/propagator.py",
           "    check_table_size(lattice.n_sites, 8 if real else 16, what)\n",
           "",
           ("tests/test_cli.py", "-k", "kernel_bytes")),
    Mutant("slice-row-uses-numpy-exp", "src/sumhist/propagator.py",
           "return phase_factors(cfg.mass * d * d / (2.0 * cfg.dt), cfg.hbar, cfg.mode) * A",
           "return np.exp(phase_sigma(cfg.mode) * (cfg.mass * d * d / (2.0 * cfg.dt) / cfg.hbar))"
           " * A",
           ("tests/test_continuum.py", "-k", "entrywise")),
    Mutant("chain-matrix-flushes-normal-parts", "src/sumhist/propagator.py",
           "NORMAL_MIN = 2.0 ** -1022",
           "NORMAL_MIN = 2.0 ** -1000",
           ("tests/test_continuum.py", "-k", "drops_only_subnormal")),
    Mutant("chain-matrix-keeps-subnormals", "src/sumhist/propagator.py",
           "    parts[np.abs(parts) < NORMAL_MIN] = 0.0\n",
           "",
           ("tests/test_continuum.py", "-k", "drops_only_subnormal")),
    Mutant("oracle-passes-an-underflowed-reference", "src/sumhist/propagator.py",
           "if len(lost):",
           "if False:",
           ("tests/test_propagator.py", "tests/test_cli.py", "-k", "underflow")),
    Mutant("reproducing-passes-an-underflowed-table", "src/sumhist/propagator.py",
           '    _reference(state, "the reproducing check")\n',
           "",
           ("tests/test_cli.py", "-k", "input_errors and reproducing-underflow")),
    Mutant("worst-deviation-drops-a-nan", "src/sumhist/propagator.py",
           "return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)",
           "return max(values, default=0.0)",
           ("tests/test_propagator.py", "tests/test_continuum.py",
            "-k", "relative_deviations or rel_error_is")),
    Mutant("propagate-history-count-unchecked", "src/sumhist/cli.py",
           '    _check_histories(g, grid, PROPAGATE_HISTORY_CAP, "the path sum")\n',
           "",
           ("tests/test_cli.py", "-k", "monkeypatched_cap")),
    Mutant("hom-counts-one-slice-short", "src/sumhist/histories.py",
           "1, start, n_steps)",
           "1, start, n_steps - 1)",
           ("tests/test_histories.py", "tests/test_cli.py",
            "-k", "counts or monkeypatched_cap")),
    Mutant("reproducing-refuses-after-the-table", "src/sumhist/propagator.py",
           '    _reference(state, "the reproducing check")\n    table = propagator_table(state)\n',
           '    table = propagator_table(state)\n    _reference(state, "the reproducing check")\n',
           ("tests/test_cli.py", "-k", "underflowed_reproducing")),
    Mutant("slice-config-takes-an-overflowing-spacing", "src/sumhist/propagator.py",
           "if not math.isfinite(self.node_spacing):",
           "if False:",
           ("tests/test_cli.py", "-k", "input_errors and halfwidth")),
    Mutant("modulus-takes-a-nan", "src/sumhist/propagator.py",
           "return abs(z) if z == z else math.nan",
           "return abs(z)",
           ("tests/test_propagator.py", "-k", "stale_overflow_errno")),
    Mutant("errors-decrease-takes-a-nan", "src/sumhist/propagator.py",
           "not any(math.isnan(e) for _, e in errs)",
           "True",
           ("tests/test_cli.py", "-k", "sweep_with_a_nan_error")),
    Mutant("factorized-certificate-by-builtin-min", "src/sumhist/states.py",
           "lam_min = float(np.min([0.0 if len(idx) > 1",
           "lam_min = float(min([0.0 if len(idx) > 1",
           ("tests/test_propagator.py", "-k", "gate_fails_a_nan")),
    Mutant("identity-bound-without-scale", "src/sumhist/cli.py",
           "worst <= 1e-10 * _worst(scales)))",
           "worst <= 1e-10))",
           ("tests/test_cli.py", "-k", "scales_with_the_form_value")),
    # the route-agreement property alone must kill these five
    Mutant("transfer-power-drops-interior-weights", "src/sumhist/propagator.py",
           "weights = measure.object_weights[:, None] if measure is not None else 1.0",
           "weights = 1.0",
           ("tests/test_propagator.py", "-k", "every_route")),
    Mutant("path-sum-drops-last-interior-weight", "src/sumhist/propagator.py",
           "    for k in range(n - 1):\n            w *= ow",
           "    for k in range(n - 2):\n            w *= ow",
           ("tests/test_propagator.py", "-k", "every_route")),
    Mutant("splitting-divides-by-first-slice-density", "src/sumhist/propagator.py",
           "/ p[j, c]",
           "/ p[0, c]",
           ("tests/test_propagator.py", "-k", "every_route")),
    Mutant("weighted-chain-drops-interior-weights", "src/sumhist/propagator.py",
           "v = _slice_chain(K, weights, start, cfg.n_slices - 2)",
           "v = _slice_chain(K, 1.0, start, cfg.n_slices - 2)",
           ("tests/test_propagator.py", "-k", "every_route")),
    Mutant("weighted-chain-end-drops-weights", "src/sumhist/propagator.py",
           "np.sum(weights * end * v)",
           "np.sum(end * v)",
           ("tests/test_propagator.py", "-k", "every_route")),
)


def kill(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error (pytest exit N)' for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "error (old text does not occur exactly once)"
        path.write_text(text.replace(mutant.old, mutant.new))
        paths = filter(None, (str(src), os.environ.get("PYTHONPATH")))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(paths))
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.selection],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    outcomes = []
    for m in chosen:
        t0 = time.perf_counter()
        outcomes.append(kill(m))
        print(f"{m.name}: {outcomes[-1]} ({time.perf_counter() - t0:.1f} s)", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
