import contextlib
import importlib
import csv
import io
import json
import math
import re
import shlex
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import sumhist as sh
from sumhist import cli
from sumhist.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_builtin_ok(capsys):
    code, out, _ = run(capsys, "validate", "--groupoid", "pair:4")
    assert code == 0
    assert "ok" in out


def test_validate_product_ok(capsys):
    code, _, _ = run(capsys, "validate", "--groupoid", "pair_x_cyclic:2,3")
    assert code == 0


def test_validate_unknown_source(capsys):
    code, _, err = run(capsys, "validate", "--groupoid", "nonsense:spec")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("name, count", [("pair:1000000", 10 ** 12),
                                         ("cyclic:100000000", 10 ** 8)])
def test_validate_huge_builtin_exits_2_before_allocating(capsys, name, count):
    code, out, err = run(capsys, "validate", "--groupoid", name)
    assert code == 2 and out == ""
    assert err == (f"error: bad builtin groupoid spec {name!r}: {count} morphisms, "
                   f"above the cap of {sh.groupoid.BUILTIN_CAP}\n")


@pytest.mark.parametrize("name, g_name, morphisms", [
    ("pair:5", "pair:5", 25), ("pair_x_cyclic:3,4", "cyclic:4-pairs:3", 36)])
def test_validate_refuses_table_bytes_above_the_cap_before_building(capsys, monkeypatch,
                                                                     name, g_name, morphisms):
    table_bytes = 4 * morphisms ** 2
    monkeypatch.setattr(sh.groupoid, "TABLE_CAP", table_bytes)
    assert run(capsys, "validate", "--groupoid", name)[0] == 0       # at the cap

    def build(g):
        raise AssertionError("the composition table was built")

    monkeypatch.setattr(sh.FiniteGroupoid, "fiber_blocks", property(build))
    monkeypatch.setattr(sh.groupoid, "TABLE_CAP", table_bytes - 1)
    code, out, err = run(capsys, "validate", "--groupoid", name)
    assert code == 2 and out == ""
    assert err == (f"error: {g_name}: its composition table takes {table_bytes} bytes, "
                   f"above the cap of {table_bytes - 1}\n")


def test_a_description_file_above_the_table_cap_is_refused_by_every_command(
        capsys, monkeypatch, tmp_path):
    # pair:3 without units, inverses or compositions, which the loader infers
    path = tmp_path / "big.yaml"
    path.write_text("objects: 3\nmorphisms:\n" + "".join(
        f"  - {{id: {y * 3 + x}, src: {x}, tgt: {y}}}\n" for y in range(3) for x in range(3)))
    path = str(path)        # 9 morphisms, 324 table bytes
    monkeypatch.setattr(sh.groupoid, "TABLE_CAP", 324)
    code, out, _ = run(capsys, "validate", "--groupoid", path)         # at the cap
    assert (code, out) == (0, "big: ok: all groupoid axioms hold\n")

    def indexed(*args):
        raise AssertionError("the loader read past the morphism rows")

    # the endpoint index comes before the M×M table and the M×M comparison
    monkeypatch.setattr(sh.groupoid, "_hom_index", indexed)
    monkeypatch.setattr(sh.groupoid, "TABLE_CAP", 323)
    for argv in (("validate",), ("propagate", "--grid", "0,1,2"),
                 ("state-check", "--grid", "0,1,2")):
        code, out, err = run(capsys, *argv, "--groupoid", path)
        assert (code, out) == (2, "")
        assert _one_line_error(err) == (f"error: {path}: its composition table takes 324 bytes, "
                                        "above the cap of 323")


def _no_continuum_kernel(monkeypatch):
    """Make the first step of each continuum kernel raise: the row of offset
    distances of a lattice (the quadrature nodes are a line lattice) and the
    quadrature grid."""
    def build(*args, **kwargs):
        raise AssertionError("a continuum kernel was built")

    monkeypatch.setattr(np, "linspace", build)
    monkeypatch.setattr(sh.CircleLattice, "offset_distances", build)
    monkeypatch.setattr(sh.LineLattice, "offset_distances", build)


@pytest.mark.parametrize("argv, what, kernel_bytes", [
    (("propagate", "--geometry", "line", "--N", "4", "--quad-nodes", "20"),
     "a quadrature kernel of 20 nodes", 8 * 20 ** 2),
    (("converge", "--geometry", "line", "--sweep", "1,2", "--quad-nodes", "20"),
     "a quadrature kernel of 20 nodes", 8 * 20 ** 2),
    (("propagate", "--geometry", "circle", "--N", "1", "--sites", "16"),
     "a lattice transfer matrix of 16 sites", 8 * 16 ** 2),
    (("converge", "--geometry", "circle", "--sweep", "1", "--sites", "16"),
     "a lattice transfer matrix of 16 sites", 8 * 16 ** 2),
])
def test_continuum_kernel_bytes_above_the_cap_are_refused_before_building(
        capsys, monkeypatch, argv, what, kernel_bytes):
    argv = (*argv, "--mode", "euclidean")
    monkeypatch.setattr(sh.groupoid, "TABLE_CAP", kernel_bytes)
    assert run(capsys, *argv)[0] == 0       # at the cap
    _no_continuum_kernel(monkeypatch)
    monkeypatch.setattr(sh.groupoid, "TABLE_CAP", kernel_bytes - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert _one_line_error(err) == (f"error: {what} takes {kernel_bytes} bytes, "
                                    f"above the cap of {kernel_bytes - 1}")


@pytest.mark.parametrize("argv, what", [
    (("propagate", "--geometry", "line", "--N", "4", "--quad-nodes", "5793"),
     "a quadrature kernel of 5793 nodes takes 268470792 bytes"),
    (("propagate", "--geometry", "line", "--N", "4", "--quad-nodes", "200000"),
     "a quadrature kernel of 200000 nodes takes 320000000000 bytes"),
    (("propagate", "--geometry", "circle", "--N", "4", "--sites", "5793"),
     "a lattice transfer matrix of 5793 sites takes 268470792 bytes"),
    (("propagate", "--geometry", "circle", "--N", "4", "--sites", "100000"),
     "a lattice transfer matrix of 100000 sites takes 80000000000 bytes"),
    (("converge", "--geometry", "circle", "--sweep", "1,2", "--sites", "60000"),
     "a lattice transfer matrix of 60000 sites takes 28800000000 bytes"),
])
def test_continuum_kernel_bytes_cap_the_node_and_site_counts(capsys, monkeypatch, argv, what):
    # euclidean kernels are real: 8 M² bytes fit the cap up to M = 5792 nodes
    # or sites
    assert 8 * 5792 ** 2 <= sh.groupoid.TABLE_CAP < 8 * 5793 ** 2
    _no_continuum_kernel(monkeypatch)
    code, out, err = run(capsys, *argv, "--mode", "euclidean")
    assert (code, out) == (2, "")
    assert _one_line_error(err) == (f"error: {what}, above the cap of {sh.groupoid.TABLE_CAP}")


def test_validate_checks_the_rule_that_composite_composes_by(capsys, monkeypatch):
    def drops_group_product(g, a, b):     # (y_a; g_a; x_b) in place of (y_a; g_a·g_b; x_b)
        n, k = g.n_objects, g.group_factor.shape[0]
        ya, xa = divmod(a, n)
        yb, xb = divmod(b, n)
        return np.where(xa == yb // k, ya * n + xb, sh.UNDEFINED)

    monkeypatch.setattr(sh.FiniteGroupoid, "composite", drops_group_product)
    assert run(capsys, "validate", "--groupoid", "pair:3")[0] == 0      # one group element
    code, out, _ = run(capsys, "validate", "--groupoid", "pair_x_cyclic:2,3")
    assert code == 3 and "violation" in out


def test_validate_corrupted_file(capsys, tmp_path):
    g = sh.pair_groupoid(2)
    path = tmp_path / "g.yaml"
    sh.save_groupoid_file(g, path)
    # corrupt one composition entry: (0,0)∘(0,0) = (1,1)
    text = path.read_text().replace("- - 0\n  - 0\n  - 0\n", "- - 0\n  - 0\n  - 3\n", 1)
    path.write_text(text)
    code, out, _ = run(capsys, "validate", "--groupoid", str(path))
    assert code == 3
    assert "violation" in out


def test_validate_unparseable_file(capsys, tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("objects: [}{\n")
    code, _, err = run(capsys, "validate", "--groupoid", str(path))
    assert code == 2


def test_state_check_uniform_ok(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, out, _ = run(capsys, "state-check", "--groupoid", "pair:3",
                       "--grid", "0,1,3", "--lagrangian", "zero",
                       "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    checks = {r["check"]: r for r in rows}
    assert checks["lagrangian_symmetry"]["status"] == "pass"
    assert checks["density_normalization"]["status"] == "pass"
    assert float(checks["positivity_min_eigenvalue"]["value"]) >= -1e-10
    assert float(checks["positivity_identity_residual"]["value"]) <= 1e-10


def test_state_check_asymmetric_lagrangian(capsys, tmp_path):
    from sumhist.io import lagrangian_csv
    g = sh.pair_groupoid(2)
    vals = np.zeros(4)
    vals[1 * 2 + 0] = 1.0
    lag_file = tmp_path / "lag.csv"
    lagrangian_csv(vals, lag_file)
    code, _, err = run(capsys, "state-check", "--groupoid", "pair:2",
                       "--grid", "0,1,2", "--lagrangian", str(lag_file))
    assert code == 3
    assert "symmetry" in err
    assert "(1, 2)" in err or "(2, 1)" in err  # the offending morphism pair


def test_state_check_unnormalized_density(capsys, tmp_path):
    from sumhist.io import save_state_spec
    spec = sh.StateSpec(np.full((1, 2), 0.4))
    spec_file = tmp_path / "state.yaml"
    save_state_spec(spec, spec_file)
    code, _, err = run(capsys, "state-check", "--groupoid", "pair:2",
                       "--grid", "0,1,2", "--lagrangian", "zero",
                       "--dfs", str(spec_file))
    assert code == 3
    assert "normalization" in err


def test_state_check_failures_read_fail_in_their_rows(capsys, tmp_path):
    from sumhist.io import lagrangian_csv, save_state_spec
    vals = np.zeros(4)
    vals[1 * 2 + 0] = 1.0
    lagrangian_csv(vals, tmp_path / "lag.csv")
    save_state_spec(sh.StateSpec(np.full((1, 2), 0.4)), tmp_path / "state.yaml")
    base = ("state-check", "--groupoid", "pair:2", "--grid", "0,1,2")
    for flags, failing, passing in (
            (("--lagrangian", str(tmp_path / "lag.csv")),
             "lagrangian_symmetry", "density_normalization"),
            (("--lagrangian", "zero", "--dfs", str(tmp_path / "state.yaml")),
             "density_normalization", "lagrangian_symmetry")):
        code, out, _ = run(capsys, *base, *flags)
        rows = {r["check"]: r["status"] for r in csv.DictReader(io.StringIO(out))}
        assert code == 3
        assert rows == {failing: "fail", passing: "pass"}


def test_state_check_identity_gate_scales_with_the_form_value(capsys):
    # 16384 histories: form values of 8.4e3-2.2e4, so an absolute residual of
    # 1.1e-10 is about 31 ulps of them; the row still prints the absolute worst
    code, out, _ = run(capsys, "state-check", "--groupoid", "pair:2", "--grid", "0,1,13",
                       "--lagrangian", "energy:line,0.7", "--seed", "0")
    assert code == 0
    assert "positivity_identity_residual,1.127773430198431e-10,pass" in out.splitlines()


def test_propagate_finite_with_oracle(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, out, _ = run(capsys, "propagate", "--groupoid", "pair:3",
                       "--grid", "0,1,4", "--lagrangian", "zero",
                       "--oracle", "transfer-matrix", "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert len(rows) == 9
    assert all(float(r["oracle_rel_dev"]) <= 1e-12 for r in rows)
    # zero lagrangian, uniform density: amplitude = (1/3) * 3^(N-1) = 9
    assert float(rows[0]["re"]) == pytest.approx((1.0 / 3.0) * 3.0 ** 3)


def test_propagate_reproducing_check(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, _, err = run(capsys, "propagate", "--groupoid", "pair:3",
                       "--grid", "0,1,4", "--lagrangian", "energy:line,0.5",
                       "--check", "reproducing", "--at", "2",
                       "--out", str(out_file))
    assert code == 0
    assert "reproducing residual" in err


@pytest.mark.parametrize("gate", ["oracle", "residual"])
def test_propagate_tol_gates_exit_3_on_a_deviation_above_tol(capsys, monkeypatch, gate):
    # a reference 1e-6 off must fail each --tol gate that reads it
    cli = importlib.import_module("sumhist.cli")
    if gate == "oracle":
        exact = cli.transfer_oracle_table

        def skewed(*args, **kw):
            t = exact(*args, **kw)
            return sh.PropagatorTable(t.grid, t.x0s, t.x1s, t.amplitudes * (1 + 1e-6))
        monkeypatch.setattr(cli, "transfer_oracle_table", skewed)
        argv = ("--oracle", "transfer-matrix")
    else:
        monkeypatch.setattr(cli, "reproducing_residual",
                            lambda state, j: (1e-6, sh.propagator_table(state)))
        argv = ("--check", "reproducing", "--at", "2")
    code, out, err = run(capsys, "propagate", "--groupoid", "pair:3", "--grid", "0,1,4",
                         "--lagrangian", "energy:line,0.5", *argv)
    assert code == 3 and out.startswith("x0,")
    assert "1.000e-06" in err


def test_propagate_refuses_an_underflowed_oracle_before_the_path_sum(capsys, monkeypatch):
    argv = ("propagate", "--groupoid", "pair:3", "--grid", "0,1,2", "--lagrangian",
            "energy:circle,3", "--hbar", "1e-3", "--oracle", "transfer-matrix")
    code, out, err = run(capsys, *argv)             # real mode: a zero can be true
    assert code == 0 and out.startswith("x0,")

    def enumerate_(*args, **kw):
        raise AssertionError("the path sum ran before the oracle")

    monkeypatch.setattr(cli, "propagator_table", enumerate_)
    code, out, err = run(capsys, *argv, "--mode", "euclidean")
    assert (code, out) == (2, "")
    assert "underflows below the smallest normal double at 6 endpoint pairs" in err


def test_propagate_refuses_an_underflowed_reproducing_check_before_the_path_sum(
        capsys, monkeypatch):
    import sumhist.propagator as sp
    calls = {}
    for module in (cli, sp):
        monkeypatch.setattr(module, "propagator_table",
                            _counted(calls, "table", module.propagator_table))
    argv = ("propagate", "--groupoid", "pair:3", "--grid", "0,1,2", "--lagrangian",
            "energy:circle,3", "--hbar", "1e-3", "--check", "reproducing", "--at", "1")
    code, out, err = run(capsys, *argv)             # real mode: a zero can be true
    assert code == 0 and out.startswith("x0,") and calls == {"table": 3}
    calls.clear()
    code, out, err = run(capsys, *argv, "--mode", "euclidean")
    assert (code, out, calls) == (2, "", {})
    assert ("underflows below the smallest normal double at 6 endpoint pairs with "
            "histories, first (x0, x1) = (0, 1); the reproducing check cannot") in err


def test_propagate_refuses_histories_above_a_monkeypatched_cap(capsys, monkeypatch):
    argv = ("propagate", "--groupoid", "pair:3", "--grid", "0,1,4", "--lagrangian", "zero")
    monkeypatch.setattr(cli, "PROPAGATE_HISTORY_CAP", 3 ** 5)
    assert run(capsys, *argv)[0] == 0               # at the cap
    monkeypatch.setattr(cli, "PROPAGATE_HISTORY_CAP", 3 ** 5 - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("error: 243 histories on this grid; the path sum needs <= 242 "
                   "(use a coarser grid)\n")


@pytest.mark.parametrize("flags, unread", [
    (("--groupoid", "pair:3"), "--groupoid"),
    (("--measure", "ow.csv"), "--measure"),
    (("--lagrangian", "/nonexistent.csv"), "--lagrangian"),
    (("--lagrangian", "zero"), "--lagrangian"),
    (("--dfs", "spec.yaml"), "--dfs"),
    (("--oracle", "transfer-matrix"), "--oracle"),
    (("--check", "reproducing"), "--check"),
    (("--at", "2"), "--at"),
    (("--oracle", "transfer-matrix", "--check", "reproducing", "--at", "2",
      "--tol", "1e-30", "--groupoid", "pair:3"), "--groupoid, --check, --at, --oracle"),
])
def test_propagate_geometry_refuses_finite_model_flags(capsys, flags, unread):
    # the geometry route reads no groupoid and runs no finite check, so a
    # request for either must not pass silently
    code, out, err = run(capsys, "propagate", "--geometry", "line", "--N", "4", *flags)
    assert (code, out) == (2, "")
    assert _one_line_error(err) == f"error: propagate --geometry line: does not read {unread}"


@pytest.mark.parametrize("command, flags, given", [
    ("propagate", ("--N", "4"), "--N"),
    ("propagate", ("--T", "1"), "--T"),
    ("converge", ("--N", "64", "--T", "1"), "--N or --T"),
])
def test_grid_is_not_given_with_N_or_T(capsys, command, flags, given):
    # the grid fixes both, so an explicit --N or --T would be overridden unseen
    code, out, err = run(capsys, command, "--geometry", "line", "--mode", "euclidean",
                         "--grid", "0,1,4", *flags)
    assert (code, out) == (2, "")
    excluded = "; ".join(f"--grid excludes {flag}" for flag in given.split(" or "))
    assert _one_line_error(err) == f"error: {command} --geometry line: {excluded}"


def test_grid_alone_slices_as_N_and_T_do(capsys):
    argv = ("propagate", "--geometry", "line", "--mode", "euclidean", "--x1", "0.5")
    assert run(capsys, *argv, "--grid", "0,0.5,4") == run(capsys, *argv, "--N", "4", "--T", "0.5")
    assert run(capsys, *argv) == run(capsys, *argv, "--N", "64", "--T", "1")


def test_propagate_requires_interior_slice(capsys, tmp_path):
    code, _, err = run(capsys, "propagate", "--groupoid", "pair:3",
                       "--grid", "0,1,4", "--check", "reproducing", "--at", "0")
    assert code == 2


def test_propagate_line_euclidean(capsys, tmp_path):
    out_file = tmp_path / "line.csv"
    code, out, _ = run(capsys, "propagate", "--geometry", "line",
                       "--mode", "euclidean", "--N", "64", "--T", "1",
                       "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert rows and all(float(r["rel_error"]) <= 1e-3 for r in rows)


def test_propagate_circle_euclidean(capsys, tmp_path):
    out_file = tmp_path / "circle.csv"
    code, out, _ = run(capsys, "propagate", "--geometry", "circle",
                       "--mode", "euclidean", "--N", "32", "--T", "0.5",
                       "--sites", "128", "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert rows and all(float(r["rel_error"]) <= 1e-2 for r in rows)


def _counted(calls, name, fn):
    def counting(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return counting


def _counted_chain_matrices(monkeypatch):
    """The shape of every chain matrix built, in call order."""
    import sumhist.propagator as sp
    shapes, build = [], sp._chain_matrix

    def counting(*args, **kwargs):
        matrix = build(*args, **kwargs)
        shapes.append(matrix.shape)
        return matrix

    monkeypatch.setattr(sp, "_chain_matrix", counting)
    return shapes


def test_circle_builds_one_transfer_per_slicing_and_chains_its_start_column(
        capsys, monkeypatch):
    # every circle chain starts from one column (a vector, not a matrix) and
    # runs the N - 2 interior slices; one slice runs none
    import sumhist.propagator as sp
    shapes = _counted_chain_matrices(monkeypatch)
    chains, chain = [], sp._slice_chain

    def recording(K, weights, v, steps):
        chains.append((np.ndim(v), steps))
        return chain(K, weights, v, steps)

    monkeypatch.setattr(sp, "_slice_chain", recording)
    code, out, _ = run(capsys, "propagate", "--geometry", "circle", "--mode", "euclidean",
                       "--N", "16", "--sites", "64")
    assert code == 0 and len(out.splitlines()) == 1 + 8
    assert shapes == [(64, 64)] and chains == [(1, 14)]
    shapes.clear()
    chains.clear()
    code, out, _ = run(capsys, "converge", "--geometry", "circle", "--mode", "euclidean",
                       "--sweep", "1,2,4,8,16", "--sites", "64")
    assert code == 0 and len(out.splitlines()) == 1 + 5
    assert shapes == [(64, 64)] * 5 and chains == [(1, n - 2) for n in (2, 4, 8, 16)]


def test_propagate_line_builds_one_interior_chain(capsys, monkeypatch):
    # the quadrature kernel is the one chain matrix of the line route
    shapes = _counted_chain_matrices(monkeypatch)
    code, out, _ = run(capsys, "propagate", "--geometry", "line", "--mode", "euclidean",
                       "--N", "8", "--quad-nodes", "100")
    assert code == 0 and len(out.splitlines()) == 1 + 9
    assert shapes == [(100, 100)]


def test_propagate_line_warns_of_quadrature_nodes_coarser_than_the_slice(capsys):
    # node spacing 0.099 against a one-slice width sqrt(hbar dt / m) of 0.0095:
    # the chain overflows to nan, the warning names the cause, and the exit
    # code stays 0 while propagate --geometry gates nothing on --tol
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "propagate", "--geometry", "line", "--mode", "euclidean",
                           "--N", "512", "--quad-nodes", "120", "--quad-halfwidth", "5.87",
                           "--T", "0.968", "--mass", "1.54", "--hbar", "0.074", "--x1", "0.5")
    assert code == 0 and ",nan," in out
    assert [str(w.message) for w in caught if w.category is UserWarning] == [
        "quadrature nodes too coarse for the requested slicing: node spacing exceeds "
        "the one-slice kernel width"]


def test_propagate_json_format(capsys, tmp_path):
    out_file = tmp_path / "t.json"
    code, _, _ = run(capsys, "propagate", "--groupoid", "pair:2",
                     "--grid", "0,1,2", "--format", "json", "--out", str(out_file))
    assert code == 0
    rows = json.loads(out_file.read_text())
    assert len(rows) == 4
    assert set(rows[0]) == {"x0", "t0", "x1", "t1", "re", "im", "abs", "phase"}


def test_propagate_geometry_json_format(capsys, tmp_path):
    out_file = tmp_path / "line.json"
    code, _, _ = run(capsys, "propagate", "--geometry", "line", "--mode", "euclidean",
                     "--N", "4", "--x1", "0.5,1.0", "--format", "json",
                     "--out", str(out_file))
    assert code == 0
    rows = json.loads(out_file.read_text())
    assert [r["x1"] for r in rows] == ["0.5", "1.0"]
    assert list(rows[0]) == ["x0", "t0", "x1", "t1", "re", "im", "abs", "phase",
                             "rel_error"]


def test_propagate_geometry_reports_a_nan_error_as_nan(capsys):
    # quadrature nodes ten times coarser than the slice width: the chain
    # overflows to inf * 0, and the summary must not read the NaN as 0
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "propagate", "--geometry", "line", "--mode", "euclidean",
                             "--N", "512", "--quad-nodes", "120", "--quad-halfwidth", "5.87",
                             "--T", "0.968", "--mass", "1.54", "--hbar", "0.074", "--x1", "0.5")
    assert code == 0
    assert out.splitlines()[1].split(",")[-1] == "nan"
    assert err.splitlines()[-1] == "max relative error against the reference kernel: nan"


def test_propagate_threads_deterministic(capsys, tmp_path):
    # --threads has no effect on the result: every N gives the canonical sum
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f, threads in ((f1, "1"), (f2, "4")):
        code, _, _ = run(capsys, "propagate", "--groupoid", "pair:3",
                         "--grid", "0,1,4", "--lagrangian", "energy:line,0.5",
                         "--threads", threads, "--out", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reproducing_check_enumerates_each_pair_once(capsys, monkeypatch, threads):
    # pair:3 over 4 intervals split at 2: one enumeration for each of the 9
    # pairs of the table and the 9 + 9 of the two halves, whatever --threads
    # says
    calls = []
    inner = sh.propagator.path_sum_terms

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(sh.propagator, "path_sum_terms", counted)
    code, _, _ = run(capsys, "propagate", "--groupoid", "pair:3", "--grid", "0,1,4",
                     "--check", "reproducing", "--at", "2", "--threads", threads)
    assert code == 0 and len(calls) == 27


def test_output_byte_reproducible(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run(capsys, "propagate", "--groupoid", "pair_x_cyclic:2,2",
                         "--grid", "0,1,3", "--lagrangian", "zero", "--out", str(f))
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_converge_line(capsys, tmp_path):
    out_file = tmp_path / "conv.csv"
    code, _, _ = run(capsys, "converge", "--geometry", "line",
                     "--mode", "euclidean", "--sweep", "1,2,4,8,16,32,64",
                     "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert [int(r["N"]) for r in rows] == [1, 2, 4, 8, 16, 32, 64]
    assert float(rows[0]["rel_error"]) <= 1e-12


def test_converge_circle(capsys, tmp_path):
    out_file = tmp_path / "conv.csv"
    code, _, _ = run(capsys, "converge", "--geometry", "circle",
                     "--mode", "euclidean", "--T", "0.5",
                     "--sweep", "1,2,4,8,16,32", "--sites", "128",
                     "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    errs = [float(r["rel_error"]) for r in rows]
    assert errs[0] > errs[2]  # winding capture: genuine decrease


def test_converge_failure_exit_code(capsys, tmp_path):
    # a zero floor turns the roundoff-level jitter of the exactly sliced line
    # kernel into a failed monotone check; the table is still written
    out_file = tmp_path / "conv.csv"
    code, _, err = run(capsys, "converge", "--geometry", "line",
                       "--mode", "euclidean", "--sweep", "1,2,4,8,16,32,64,128",
                       "--floor", "0", "--burnin", "1", "--out", str(out_file))
    assert code == 3
    assert "decrease" in err
    rows = list(csv.DictReader(out_file.open()))
    assert len(rows) == 8


@pytest.mark.parametrize("sweep", ["16,512", "512"])
def test_converge_fails_a_sweep_with_a_nan_error(capsys, sweep):
    # the 120-node chain overflows at N = 512; with one row past the burn-in
    # there is no pair to compare, and the NaN alone must fail the gate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run(capsys, "converge", "--geometry", "line", "--mode", "euclidean",
                             "--quad-nodes", "120", "--quad-halfwidth", "5.87", "--T", "0.968",
                             "--mass", "1.54", "--hbar", "0.074", "--x1", "0.5",
                             "--sweep", sweep)
    assert code == 3 and "convergence check failed" in err
    assert out.splitlines()[-1].startswith("512,") and out.rstrip().endswith(",nan")


def test_converge_requires_geometry(capsys):
    code, _, err = run(capsys, "converge")
    assert code == 2


def test_measure_files_accepted(capsys, tmp_path):
    from sumhist.io import fiber_weights_csv, object_weights_csv
    g = sh.pair_groupoid(2)
    object_weights_csv([1.0, 2.0], tmp_path / "ow.csv")
    fiber_weights_csv(np.array([1.0, 2.0, 1.0, 2.0])[g.src], tmp_path / "fw.csv")
    # density must normalize against the weighted object measure
    from sumhist.io import save_state_spec
    p = np.array([[0.2, 0.4]])  # 1*0.2 + 2*0.4 = 1
    save_state_spec(sh.StateSpec(p), tmp_path / "state.yaml")
    code, _, err = run(capsys, "propagate", "--groupoid", "pair:2",
                       "--grid", "0,1,3",
                       "--measure", f"{tmp_path}/ow.csv:{tmp_path}/fw.csv",
                       "--dfs", f"{tmp_path}/state.yaml",
                       "--oracle", "transfer-matrix",
                       "--out", str(tmp_path / "t.csv"))
    assert code == 0


def test_state_check_evaluates_the_family_as_link_arrays(capsys, monkeypatch):
    # state-check reads the histories over the grid as link rows: it builds
    # no History and never calls the per-history action
    sact = importlib.import_module("sumhist.action")   # sh.action is the function
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sh.History, "__post_init__",
                        counted("History", sh.History.__post_init__))
    monkeypatch.setattr(sact, "action", counted("action", sact.action))
    monkeypatch.setattr(sact, "links_of", counted("links_of", sact.links_of))
    code, out, _ = run(capsys, "state-check", "--groupoid", "pair:3", "--grid", "0,1,3",
                       "--lagrangian", "energy:line,0.5")
    assert code == 0 and out.count(",pass\n") == 4
    assert calls == []


def test_state_check_never_materialises_the_form(capsys):
    # pair:4 over five intervals has 4096 histories: the dense form alone
    # would be 4096^2 complex values, 268 MB
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "state-check", "--groupoid", "pair:4", "--grid", "0,1,5",
                           "--lagrangian", "energy:line,0.5", "--seed", "5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.count(",pass\n") == 4
    assert peak < 16 * 2 ** 20


def test_validate_scans_composable_triples_in_bounded_chunks(capsys):
    # pair_x_cyclic:8,8 has 512 morphisms; (chunk, M, M) gathers peaked at 58 MB
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "validate", "--groupoid", "pair_x_cyclic:8,8")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.endswith(": ok: all groupoid axioms hold\n")
    assert peak <= 32 * 2 ** 20


def test_state_check_refuses_oversized_family(capsys):
    code, _, err = run(capsys, "state-check", "--groupoid", "pair:6",
                       "--grid", "0,1,6", "--lagrangian", "zero")
    assert code == 2
    assert "20000" in err


def test_state_check_counts_histories_exactly(capsys):
    # 3**41 histories: a float64 matrix power rounds it to 36472996377170788352
    code, _, err = run(capsys, "state-check", "--groupoid", "pair:3",
                       "--grid", "0,1,40", "--lagrangian", "zero")
    assert code == 2
    assert err == (f"error: {3 ** 41} histories on this grid; the positivity "
                   "certificate needs <= 20000 (use a coarser grid)\n")


def test_geometry_bad_endpoint_list(capsys):
    code, _, err = run(capsys, "propagate", "--geometry", "line",
                       "--mode", "euclidean", "--N", "4", "--x1", "1.0,oops")
    assert code == 2
    code, _, err = run(capsys, "converge", "--geometry", "line",
                       "--mode", "euclidean", "--x1", "nope")
    assert code == 2


def test_validate_out_writes_the_summary(capsys, tmp_path):
    out_file = tmp_path / "summary.txt"
    code, out, _ = run(capsys, "validate", "--groupoid", "pair:3", "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert out_file.read_text().startswith("pair:3: ok")


@pytest.mark.parametrize("argv", [
    ("validate", "--groupoid", "pair:2", "--threads", "2"),
    ("state-check", "--groupoid", "pair:2", "--grid", "0,1,2", "--format", "json"),
    ("propagate", "--groupoid", "pair:2", "--grid", "0,1,2", "--seed", "1"),
    ("converge", "--geometry", "line", "--threads", "2"),
    ("converge", "--geometry", "line", "--groupoid", "pair:2"),
])
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert _one_line_error(err) == f"error: unrecognized arguments: {' '.join(argv[-2:])}"


def _one_line_error(err):
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("argv, what", [
    (("validate", "--groupoid"), "groupoid file"),
    (("state-check", "--groupoid", "pair:2", "--grid", "0,1,2", "--dfs"), "state spec"),
])
def test_deeply_nested_yaml_exits_2_with_one_line(capsys, tmp_path, argv, what):
    path = tmp_path / "deep.yaml"
    path.write_text("[" * 600 + "]" * 600)
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert _one_line_error(err) == f"error: {what} {path}: not valid YAML: nested too deeply"


def test_measure_id_out_of_range_is_an_input_error(capsys, tmp_path):
    (tmp_path / "ow.csv").write_text("object_id,weight\n0,1.0\n2,1.0\n")
    code, _, err = run(capsys, "propagate", "--groupoid", "pair:2", "--grid", "0,1,2",
                       "--measure", str(tmp_path / "ow.csv"))
    assert code == 2
    line = _one_line_error(err)
    assert "ow.csv" in line and "line 3" in line and "'object_id'" in line


def test_lagrangian_missing_column_is_an_input_error(capsys, tmp_path):
    (tmp_path / "lag.csv").write_text("morphism_id,val\n0,0.0\n")
    code, _, err = run(capsys, "propagate", "--groupoid", "pair:2", "--grid", "0,1,2",
                       "--lagrangian", str(tmp_path / "lag.csv"))
    assert code == 2
    line = _one_line_error(err)
    assert "lag.csv" in line and "'value'" in line


def test_loaders_refuse_negative_ids_and_bad_numbers(tmp_path):
    from sumhist.io import load_lagrangian_csv, load_weights_csv
    path = tmp_path / "f.csv"
    path.write_text("morphism_id,value,fiber_weight\n-1,0.5,0.5\n")
    with pytest.raises(ValueError, match="line 2, column 'morphism_id'"):
        load_lagrangian_csv(path, 4)
    with pytest.raises(ValueError, match="outside 0..3"):
        load_weights_csv(path, 4, "morphism_id", "fiber_weight")
    path.write_text("morphism_id,value\n1,x\n")
    with pytest.raises(ValueError, match="column 'value': bad number 'x'"):
        load_lagrangian_csv(path, 4)


@pytest.mark.parametrize("flag, text, message", [
    ("--lagrangian", "morphism_id,value\n1,0.9\n2,0.9\n1,0.5\n2,0.5\n",
     "line 4, column 'morphism_id': id 1 repeats line 2"),
    ("--measure", "object_id,weight\n0,1.0\n1,2.0\n1,2.0\n",
     "line 4, column 'object_id': id 1 repeats line 3"),
])
def test_csv_inputs_refuse_a_repeated_id(capsys, tmp_path, flag, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    code, out, err = run(capsys, "propagate", "--groupoid", "pair:2", "--grid", "0,1,2",
                         flag, str(path))
    assert code == 2 and out == ""
    line = _one_line_error(err)
    assert "in.csv" in line and message in line


def test_validate_refuses_a_repeated_compose_row(capsys, tmp_path):
    path = tmp_path / "z2.yaml"
    path.write_text("objects: 1\nmorphisms:\n  - {id: 0, src: 0, tgt: 0}\n"
                    "  - {id: 1, src: 0, tgt: 0}\nunits: [[0, 0]]\n"
                    "inverse: [[0, 0], [1, 1]]\n"
                    "compose: [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 0]]\n")
    code, out, err = run(capsys, "validate", "--groupoid", str(path))
    assert code == 2 and out == ""
    assert "z2.yaml: compose row 5 [1, 1, 0]: repeats" in _one_line_error(err)


@pytest.mark.parametrize("text, message", [
    ("density: 5\n", "density must be 'uniform' or a list of rows, not 5"),
    ("density: [[0, 0.5], [1, 0.5], [0, 0.25]]\n",
     "density row 3 [0, 0.25]: object 0 at slice 0 already has a density"),
    ("density: [[0, 2, 0.5], [0, 1, 0.5], [0, 2, 0.5]]\n",
     "density row 3 [0, 2, 0.5]: object 0 at slice 2 already has a density"),
    ("density: other\n", "not 'other'"),
    ("density: [[2, 0.5], [0, 0.5]]\n", "density row 1 [2, 0.5]: object 2 is outside 0..1"),
    ("density: [[0, 0.5], [-1, 0.5]]\n", "density row 2 [-1, 0.5]: object -1 is outside"),
    ("density: [[0, 0, 0.5], [1, 0.5]]\n", "density row 2 [1, 0.5]: expected"),
    ("density: [[0, 0.5], [1, x]]\n", "density row 2 [1, 'x']: bad density 'x'"),
    ("density: [[0, -1, 0.5]]\n", "density row 1 [0, -1, 0.5]: slice -1 is negative"),
    ("density: [[0.5, 0.5]]\n", "density row 1 [0.5, 0.5]: object and slice must be integers"),
    ("mode: Real\n", "unknown mode 'Real'"),
    ("hbar: [1]\n", "bad hbar [1]"),
    ("density: [}\n", "not valid YAML"),
    ("- 1\n", "must be a mapping"),
])
def test_malformed_state_spec_is_an_input_error(capsys, tmp_path, text, message):
    path = tmp_path / "spec.yaml"
    path.write_text(text)
    code, out, err = run(capsys, "propagate", "--groupoid", "pair:2", "--grid", "0,1,2",
                         "--dfs", str(path))
    assert code == 2 and out == ""
    line = _one_line_error(err)
    assert "spec.yaml" in line and message in line


def test_state_spec_objects_without_a_row_get_density_zero(tmp_path):
    from sumhist.io import load_state_spec
    path = tmp_path / "spec.yaml"
    path.write_text("density: [[0, 1.0]]\n")
    assert load_state_spec(path, sh.pair_groupoid(3)).density.tolist() == [[1.0, 0.0, 0.0]]
    path.write_text("density: [[1, 2, 1.0], [0, 0, 1.0]]\n")
    assert load_state_spec(path, sh.pair_groupoid(2)).density.tolist() == [
        [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_propagate_threads_below_one_is_an_input_error(capsys, threads):
    code, out, err = run(capsys, "propagate", "--groupoid", "pair:2", "--grid", "0,1,2",
                         "--threads", threads)
    assert code == 2 and out == ""
    assert f"--threads must be at least 1, not {threads}" in _one_line_error(err)


ONE_MORPHISM = "objects: 1\nmorphisms:\n  - {id: 0, src: 0, tgt: 0}\n"
CONTRACT_FILES = {
    "syntax.yaml": "objects: [}{\n",
    "units.yaml": ONE_MORPHISM + "units: 5\n",
    "compose.yaml": ONE_MORPHISM + "compose: [[0, 0]]\n",
    "junction.yaml": "density: [[0, 1.0]]\n",
    "inf.csv": "morphism_id,value\n1,inf\n2,inf\n",
    "nan.csv": "morphism_id,value\n1,nan\n2,nan\n",
    "deep.csv": "morphism_id,value\n1,-400\n2,-400\n",
    "huge.csv": "morphism_id,value\n1,1.7e308\n2,1.7e308\n",
    "asym.csv": "morphism_id,value\n1,0.5\n2,0.25\n",
    "half.yaml": "mode: euclidean\ndensity: [[0, 0.4], [1, 0.4]]\n",
}
PAIR2 = ("--groupoid", "pair:2", "--grid", "0,1,3", "--lagrangian")
CIRCLE16 = ("--geometry", "circle", "--mode", "euclidean", "--N", "4", "--sites", "16")
MISSING = "{d}/missing/out.txt"


@pytest.mark.parametrize("argv, message", [
    (("validate", "--groupoid", "pair:2", "--out", MISSING), "No such file"),
    (("state-check", "--groupoid", "pair:2", "--grid", "0,1,2", "--out", MISSING),
     "No such file"),
    (("propagate", "--groupoid", "pair:2", "--grid", "0,1,2", "--out", MISSING),
     "No such file"),
    (("converge", "--geometry", "line", "--sweep", "1,2", "--out", MISSING), "No such file"),
    (("propagate", "--groupoid", "pair:2", "--grid", "0,1,2", "--dfs", "{d}/junction.yaml",
      "--check", "reproducing", "--at", "1"), "strictly positive density at the junction"),
    (("validate", "--groupoid", "{d}/syntax.yaml"), "syntax.yaml, line 1: not valid YAML"),
    (("validate", "--groupoid", "{d}/units.yaml"), "units.yaml: 'units' must be a list"),
    (("validate", "--groupoid", "{d}/compose.yaml"),
     "compose.yaml: compose row 1 [0, 0]: expected 3 integers"),
    (("propagate", "--groupoid", "pair:2", "--grid", "0,1,2", "--hbar", "nan",
      "--lagrangian", "energy:line"), "hbar must be positive"),
    (("propagate", "--geometry", "line", "--T", "nan", "--N", "2", "--x1", "1"),
     "positive total_time"),
    (("propagate", "--groupoid", "pair:2", "--grid", "0,nan,2"), "grid times must be finite"),
    (("propagate", "--geometry", "line", "--N", "2", "--x1", "nan"),
     "endpoints must be finite"),
    (("propagate", "--geometry", "circle", "--mode", "real", "--N", "8"),
     "does not converge at real time"),
    (("converge", "--geometry", "circle", "--mode", "real"), "does not converge at real time"),
    (("propagate", *CIRCLE16, "--winding-max", "-1"), "winding_max must be non-negative"),
    (("converge", *CIRCLE16, "--winding-max", "-1"), "winding_max must be non-negative"),
    (("converge", "--geometry", "line", "--sweep", "1,2", "--x1", "0.5,0.7"),
     "converge takes one --x1 endpoint"),
    (("converge", "--geometry", "circle", "--mode", "euclidean", "--sweep", "1,2",
      "--x1", "0.5,0.7"), "converge takes one --x1 endpoint"),
    (("propagate", *PAIR2, "{d}/inf.csv"), "lagrangian values must be finite"),
    (("state-check", *PAIR2, "{d}/inf.csv"), "lagrangian values must be finite"),
    (("propagate", *PAIR2, "{d}/nan.csv"), "lagrangian values must be finite"),
    (("state-check", *PAIR2, "{d}/nan.csv"), "lagrangian values must be finite"),
    (("propagate", *PAIR2, "{d}/deep.csv", "--mode", "euclidean"), "math range error"),
    (("state-check", *PAIR2, "{d}/deep.csv", "--mode", "euclidean"),
     "positivity is claimed for the real mode only"),
    (("state-check", "--groupoid", "pair:3", "--grid", "0,1,2", "--lagrangian",
      "energy:line,0.5", "--mode", "euclidean"), "positivity is claimed for the real mode only"),
    (("state-check", *PAIR2, "{d}/asym.csv", "--mode", "euclidean"),
     "positivity is claimed for the real mode only"),
    (("state-check", *PAIR2, "zero", "--dfs", "{d}/half.yaml"),
     "positivity is claimed for the real mode only"),
    (("propagate", *PAIR2, "{d}/huge.csv"), "intermediate overflow in fsum"),
    (("state-check", *PAIR2, "{d}/huge.csv"), "intermediate overflow in fsum"),
    (("propagate", *PAIR2, "zero", "--oracle", "transfer-matrix", "--tol", "nan"),
     "--tol must be a non-negative number, not nan"),
    (("propagate", *PAIR2, "zero", "--oracle", "transfer-matrix", "--tol=-1e-12"),
     "--tol must be a non-negative number, not -1e-12"),
    (("propagate", *PAIR2, "zero", "--at", "1"),
     "error: propagate without --geometry: --at needs --check"),
    (("propagate", "--geometry", "line", "--N", "4", "--tol", "nan"),
     "--tol must be a non-negative number, not nan"),
    (("propagate", *CIRCLE16, "--tol=-1e-12"), "--tol must be a non-negative number, not -1e-12"),
    (("propagate", "--geometry", "line", "--mode", "euclidean", "--N", "4",
      "--quad-halfwidth", "1e308"),
     "error: quad_halfwidth 1e+308 makes the quadrature's node spacing "
     "2 * quad_halfwidth / (quad_nodes - 1) overflow"),
    (("propagate", "--groupoid", "pair:6", "--grid", "0,1,6", "--lagrangian", "energy:circle",
      "--mode", "euclidean", "--hbar", "1e-3", "--oracle", "transfer-matrix"),
     "error: the transfer-matrix reference underflows below the smallest normal double at "
     "30 endpoint pairs with histories, first (x0, x1) = (0, 1); the oracle cannot check them"),
    (("propagate", "--groupoid", "pair:6", "--grid", "0,1,6", "--lagrangian", "energy:circle",
      "--mode", "euclidean", "--hbar", "1e-3", "--check", "reproducing", "--at", "3"),
     "error: the transfer-matrix reference underflows below the smallest normal double at "
     "30 endpoint pairs with histories, first (x0, x1) = (0, 1); the reproducing check "
     "cannot check them"),
    (("propagate", "--groupoid", "pair:4", "--grid", "0,1,20", "--lagrangian", "zero"),
     "error: 4398046511104 histories on this grid; the path sum needs <= 100000000 "
     "(use a coarser grid)"),
], ids=["out-validate", "out-state-check", "out-propagate", "out-converge",
        "zero-density-junction", "yaml-syntax", "units-scalar", "compose-short-row",
        "hbar-nan", "T-nan", "grid-nan", "x1-nan", "circle-real-propagate",
        "circle-real-converge", "winding-negative-propagate", "winding-negative-converge",
        "converge-line-two-endpoints", "converge-circle-two-endpoints",
        "lagrangian-inf-propagate", "lagrangian-inf-state-check",
        "lagrangian-nan-propagate", "lagrangian-nan-state-check",
        "euclidean-overflow-propagate", "euclidean-overflow-state-check",
        "state-check-euclidean", "state-check-euclidean-asymmetric",
        "state-check-euclidean-unnormalized",
        "action-overflow-propagate", "action-overflow-state-check",
        "tol-nan", "tol-negative", "at-without-check", "tol-nan-geometry",
        "tol-negative-geometry", "halfwidth-overflow", "oracle-underflow",
        "reproducing-underflow", "history-cap"])
def test_input_errors_exit_2_with_one_line(capsys, recwarn, tmp_path, argv, message):
    for name, text in CONTRACT_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert message in _one_line_error(err)
    assert not recwarn.list  # refused before any work that warns


SMALL = st.integers(-1, 3)
JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                 st.integers(-2, 3), st.lists(SMALL, max_size=2))
ROW = st.lists(st.one_of(SMALL, SMALL, st.floats(0, 1), JUNK), max_size=4)
SECTION = st.one_of(st.lists(st.one_of(ROW, ROW, JUNK), max_size=5), JUNK)
MORPHISM = st.one_of(
    st.fixed_dictionaries({"id": SMALL, "src": SMALL, "tgt": SMALL}),
    st.dictionaries(st.sampled_from(("id", "src", "tgt")), st.one_of(SMALL, JUNK)),
    JUNK)
GROUPOID_DOC = st.fixed_dictionaries(
    {"objects": st.one_of(st.integers(0, 3), JUNK),
     "morphisms": st.one_of(st.lists(MORPHISM, max_size=6), JUNK)},
    optional={"units": SECTION, "inverse": SECTION, "compose": SECTION})


def _saved_description(name):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.yaml"
        sh.save_groupoid_file(sh.resolve_groupoid(name), path)
        return path.read_text()


SAVED_DESCRIPTIONS = [_saved_description(n) for n in ("pair:1", "pair:2", "cyclic:2")]


@st.composite
def _perturbed_groupoid_doc(draw):
    """The full description of a small builtin groupoid with up to two sections
    dropped or replaced, or single rows replaced."""
    doc = yaml.safe_load(draw(st.sampled_from(SAVED_DESCRIPTIONS)))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(doc)))
        how = draw(st.sampled_from(("drop", "replace", "row")))
        if how == "drop":
            del doc[key]
        elif how == "replace" or not isinstance(doc[key], list) or not doc[key]:
            doc[key] = draw(SECTION)
        else:
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(st.one_of(ROW, MORPHISM))
        if not doc:
            break
    return doc


SPEC_DOC = st.fixed_dictionaries({}, optional={
    "hbar": st.one_of(st.floats(), JUNK),
    "mode": st.one_of(st.sampled_from(("real", "euclidean")), JUNK),
    "convention": st.one_of(st.sampled_from(("incremental", "anchored")), JUNK),
    "density": st.one_of(st.just("uniform"), st.just([[0, 0.5], [1, 0.5]]),
                         st.lists(ROW, max_size=4), JUNK)})


LAG_VALUE = st.one_of(st.floats(), st.sampled_from(
    (math.inf, -math.inf, math.nan, 1e308, -1e308, 1.7e308, -400.0))).map(repr)
LAG_CELL = st.one_of(LAG_VALUE, LAG_VALUE, st.text(max_size=3), st.integers(-2, 5).map(str))


@st.composite
def _lagrangian_csv(draw):
    """pair:2 Lagrangian CSV text: one value per inversion pair (so that the
    path sum runs) drawn from all floats, under a header that may miss a
    column, with up to two rows replaced by junk cells or dropped."""
    header = draw(st.sampled_from(("morphism_id,value", "morphism_id,value",
                                   "morphism_id,val", "value", "morphism_id,value,x")))
    off_diagonal = draw(LAG_VALUE)
    rows = [f"0,{draw(LAG_VALUE)}", f"1,{off_diagonal}", f"2,{off_diagonal}",
            f"3,{draw(LAG_VALUE)}"]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(rows) - 1))
        cells = draw(st.lists(LAG_CELL, max_size=3))
        rows[k] = ",".join(cells)
    return "\n".join((header, *rows)) + "\n"


def _file_text(doc):
    """A dumped document, sometimes with a few characters appended, or raw text."""
    dumped = doc.map(yaml.safe_dump)
    return st.one_of(dumped, dumped, st.tuples(dumped, st.text(max_size=3)).map("".join),
                     st.text(st.characters(exclude_categories=("Cs",)), max_size=40))


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=st.one_of(
    _file_text(st.one_of(_perturbed_groupoid_doc(), _perturbed_groupoid_doc(),
                          GROUPOID_DOC)).map(lambda text: (["validate", "--groupoid"], text)),
    _file_text(SPEC_DOC).map(lambda text: (["propagate", "--groupoid", "pair:2",
                                            "--grid", "0,1,2", "--dfs"], text)),
    _file_text(SPEC_DOC).map(lambda text: (["state-check", "--groupoid", "pair:2",
                                            "--grid", "0,1,2", "--dfs"], text)),
    st.tuples(st.sampled_from(("propagate", "state-check")),
              st.sampled_from(("real", "euclidean")), _lagrangian_csv()).map(
        lambda c: ([c[0], "--mode", c[1], *PAIR2], c[2]))))
def test_generated_description_files_never_escape_main(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input"
        path.write_bytes(text.encode())
        code, out, err = _main_captured([*argv, str(path)])
    assert code in (0, 2, 3)
    if code == 2:
        assert out == ""
        _one_line_error(err)


# ---------------------------------------------------------------------------
# refused before any work: description files that fail the axioms, and --out


def _pair2_description(tmp_path, name, edit):
    path = tmp_path / name
    sh.save_groupoid_file(sh.pair_groupoid(2), path)
    doc = yaml.safe_load(path.read_text())
    edit(doc)
    path.write_text(yaml.safe_dump(doc))
    return path


def _all_inverses_zero(doc):
    doc["inverse"] = [[m, 0] for m, _ in doc["inverse"]]


def _drop_compose_3_2(doc):
    doc["compose"] = [row for row in doc["compose"] if row[:2] != [3, 2]]


@pytest.mark.parametrize("edit, violation", [
    (_all_inverses_zero, "[inverse] inverse law fails for morphism 1"),
    (_drop_compose_3_2, "[domain] table[3,2] missing"),
])
@pytest.mark.parametrize("command", ["propagate", "state-check"])
def test_description_file_failing_the_axioms_is_an_input_error(capsys, tmp_path, command,
                                                               edit, violation):
    path = _pair2_description(tmp_path, "bad.yaml", edit)
    code, out, err = run(capsys, command, "--groupoid", str(path), "--grid", "0,1,3",
                         "--lagrangian", "energy:line")
    assert code == 2 and out == ""
    line = _one_line_error(err)
    assert str(path) in line and violation in line
    code, out, _ = run(capsys, "validate", "--groupoid", str(path))
    assert code == 3 and violation in out


def test_valid_description_file_computes_as_its_builtin(capsys, tmp_path):
    path = _pair2_description(tmp_path, "good.yaml", lambda doc: None)
    argv = ("--grid", "0,1,3", "--lagrangian", "energy:line")
    code, from_file, _ = run(capsys, "propagate", "--groupoid", str(path), *argv)
    assert code == 0
    assert from_file == run(capsys, "propagate", "--groupoid", "pair:2", *argv)[1]


@pytest.mark.parametrize("command", [
    ("validate", "--groupoid", "pair:5"),
    ("propagate", "--groupoid", "pair:5", "--grid", "0,1,6"),
    ("converge", "--geometry", "line", "--sweep", "1,2"),
])
def test_unwritable_out_is_refused_before_any_work(capsys, tmp_path, monkeypatch, command):
    def no_work(*_):
        raise AssertionError("the groupoid was resolved before --out was checked")

    monkeypatch.setattr("sumhist.cli.resolve_groupoid", no_work)
    monkeypatch.setattr("sumhist.cli.line_convergence", no_work)
    for out, message in ((tmp_path, "Is a directory"),
                         (tmp_path / "missing" / "t.csv", "No such file or directory")):
        code, stdout, err = run(capsys, *command, "--out", str(out))
        assert code == 2 and stdout == ""
        assert message in _one_line_error(err)
    assert not (tmp_path / "missing").exists()


def test_out_is_neither_created_nor_truncated_by_a_failing_run(capsys, tmp_path):
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    for out in (kept, tmp_path / "new.csv"):
        code, _, err = run(capsys, "propagate", "--groupoid", "pair:2", "--grid", "0,1,2",
                           "--lagrangian", str(tmp_path / "no-such.csv"), "--out", str(out))
        assert code == 2 and "no-such.csv" in _one_line_error(err)
    assert kept.read_text() == "earlier output\n"
    assert not (tmp_path / "new.csv").exists()


# main builds one parser per process and looks the command function up per call


PAIR2_TABLE = ("propagate", "--groupoid", "pair:2", "--grid", "0,1,2")


def test_a_command_rebound_after_the_first_call_is_the_one_that_runs(capsys, monkeypatch):
    assert run(capsys, "validate", "--groupoid", "pair:2")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.groupoid) or 7)
    assert run(capsys, "validate", "--groupoid", "pair:3") == (7, "", "")
    assert seen == ["pair:3"]


def test_flags_of_one_call_fall_back_to_their_defaults_in_the_next(capsys, tmp_path,
                                                                   monkeypatch):
    before = run(capsys, *PAIR2_TABLE)
    out = tmp_path / "t.json"
    assert run(capsys, *PAIR2_TABLE, "--format", "json", "--out", str(out))[:2] == (0, "")
    assert json.loads(out.read_text())
    assert run(capsys, *PAIR2_TABLE) == before
    seen = []
    monkeypatch.setattr(cli, "cmd_propagate", lambda args: seen.append(vars(args)) or 0)
    main(["propagate", "--geometry", "line", "--N", "4", "--T", "2", "--format", "json",
          "--out", str(out)])
    main(["propagate", "--geometry", "line"])
    main([*PAIR2_TABLE, "--lagrangian", "zero", "--format", "json", "--out", str(out)])
    main([*PAIR2_TABLE])
    assert {k: seen[1][k] for k in ("geometry", "N", "T", "format", "out")} == {
        "geometry": "line", "N": 64, "T": 1.0, "format": "csv", "out": None}
    assert seen[2]["lagrangian"] == "zero"
    assert {k: seen[3][k] for k in ("geometry", "lagrangian", "format", "out")} == {
        "geometry": None, "lagrangian": None, "format": "csv", "out": None}
    assert "N" not in seen[3] and "T" not in seen[3]    # the finite branch reads neither


def test_an_argparse_error_leaves_the_next_call_unchanged(capsys):
    before = run(capsys, *PAIR2_TABLE)
    code, out, err = run(capsys, "propagate", "--groupoid", "pair:3", "--out", "x.csv",
                         "--format", "xml")
    assert (code, out) == (2, "")
    assert "invalid choice: 'xml'" in _one_line_error(err)
    assert run(capsys, *PAIR2_TABLE) == before


def test_the_parser_is_built_once_across_calls(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    run(capsys, "validate", "--groupoid", "pair:2")
    run(capsys, *PAIR2_TABLE)
    run(capsys, "converge", "--geometry", "line", "--mode", "euclidean", "--sweep", "1,2")
    code, out, err = run(capsys, "state-check", "--bogus")
    assert (code, out) == (2, "")
    assert _one_line_error(err) == "error: unrecognized arguments: --bogus"
    assert built == [1]


# ---------------------------------------------------------------------------
# the flag table: each branch refuses every flag it does not read.  The reads
# below are written out here, independently of cli.ROWS, as the parent code
# read them, so that a row that takes an unread flag fails a test.


FLAG_VALUES = {
    "--groupoid": "pair:2", "--measure": "w.csv", "--lagrangian": "zero", "--dfs": "s.yaml",
    "--grid": "0,1,2", "--mass": "1", "--hbar": "1", "--mode": "real", "--geometry": "line",
    "--N": "4", "--T": "1", "--x0": "0", "--x1": "1", "--quad-halfwidth": "8",
    "--quad-nodes": "40", "--circumference": "6", "--sites": "9", "--winding-max": "3",
    "--out": "o.csv", "--format": "csv", "--threads": "1", "--check": "reproducing",
    "--at": "1", "--oracle": "transfer-matrix", "--tol": "1", "--seed": "1",
    "--sweep": "1,2", "--burnin": "1", "--floor": "1",
}
MODEL_READS = ("--groupoid", "--measure", "--lagrangian", "--dfs", "--grid", "--mass",
               "--hbar", "--mode", "--out")
SLICED_READS = ("--geometry", "--grid", "--mass", "--hbar", "--mode", "--N", "--T", "--x0",
                "--x1", "--out", "--format")
LINE_READS = ("--quad-halfwidth", "--quad-nodes")
CIRCLE_READS = ("--circumference", "--sites", "--winding-max")
SWEEP_READS = ("--sweep", "--burnin", "--floor")
# branch label -> (a valid argv of the branch, the flags it reads)
BRANCH_READS = {
    "validate": (("validate", "--groupoid", "pair:2"), ("--groupoid", "--out")),
    "state-check": (("state-check", "--groupoid", "pair:2", "--grid", "0,1,2"),
                    (*MODEL_READS, "--seed")),
    "propagate without --geometry": (
        ("propagate", "--groupoid", "pair:2", "--grid", "0,1,2"),
        (*MODEL_READS, "--geometry", "--format", "--threads", "--check", "--at", "--oracle",
         "--tol")),
    "propagate --geometry line": (("propagate", "--geometry", "line"),
                                  (*SLICED_READS, *LINE_READS, "--tol")),
    "propagate --geometry circle": (("propagate", "--geometry", "circle"),
                                    (*SLICED_READS, *CIRCLE_READS, "--tol")),
    "converge --geometry line": (("converge", "--geometry", "line"),
                                 (*SLICED_READS, *LINE_READS, *SWEEP_READS)),
    "converge --geometry circle": (("converge", "--geometry", "circle"),
                                   (*SLICED_READS, *CIRCLE_READS, *SWEEP_READS)),
}
COMMAND_FLAGS = {command: {flag for label, (_, reads) in BRANCH_READS.items()
                           if label.split()[0] == command for flag in reads}
                 for command in ("validate", "state-check", "propagate", "converge")}
UNREAD_CASES = [(label, flag) for label, (_, reads) in BRANCH_READS.items()
                for flag in FLAG_VALUES if flag not in reads]


@pytest.mark.parametrize("branch, flag", UNREAD_CASES,
                         ids=[f"{label}-{flag}" for label, flag in UNREAD_CASES])
def test_each_branch_refuses_every_flag_it_does_not_read(capsys, monkeypatch, branch, flag):
    # the command must not run: a refused flag is refused before any work
    for name in ("validate", "state_check", "propagate", "converge"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: 0)
    argv, _ = BRANCH_READS[branch]
    code, out, err = run(capsys, *argv, flag, FLAG_VALUES[flag])
    assert (code, out) == (2, "")
    if flag in COMMAND_FLAGS[argv[0]]:     # the table refuses it
        want = f"error: {branch}: does not read {flag}"
    else:                                  # the subcommand's parser has no such flag
        want = f"error: unrecognized arguments: {flag} {FLAG_VALUES[flag]}"
    assert _one_line_error(err) == want


@pytest.mark.parametrize("argv, needs", [
    (("validate",), "validate: needs --groupoid"),
    (("validate", "--out", "o.txt"), "validate: needs --groupoid"),
    (("state-check",), "state-check: needs --groupoid, --grid"),
    (("state-check", "--grid", "0,1,2"), "state-check: needs --groupoid"),
    (("state-check", "--groupoid", "pair:2"), "state-check: needs --grid"),
    (("propagate",), "propagate without --geometry: needs --groupoid, --grid"),
    (("propagate", "--grid", "0,1,2"), "propagate without --geometry: needs --groupoid"),
    (("propagate", "--groupoid", "pair:2"), "propagate without --geometry: needs --grid"),
    (("converge",), "converge without --geometry: needs --geometry"),
    (("converge", "--sweep", "1,2"), "converge without --geometry: needs --geometry"),
    (("converge", "--sites", "9"),
     "converge without --geometry: does not read --sites; needs --geometry"),
    (("propagate", "--sites", "9", "--at", "1"), "propagate without --geometry: does not "
     "read --sites; needs --groupoid, --grid; --at needs --check"),
])
def test_a_missing_required_flag_is_refused_in_one_line(capsys, monkeypatch, argv, needs):
    monkeypatch.setattr(cli, "cmd_validate", lambda args: 0)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert _one_line_error(err) == f"error: {needs}"


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: command"),
    (("bogus",), "argument command: invalid choice: 'bogus'"),
    (("propagate", "--groupoid", "pair:2", "--grid", "0,1,2", "--N", "x"),
     "argument --N: invalid int value: 'x'"),
    (("converge", "--geometry", "line", "--tol", "1"), "unrecognized arguments: --tol 1"),
    (("propagate", "--geometry", "sphere"), "argument --geometry: invalid choice: 'sphere'"),
])
def test_argparse_refusals_are_one_line_and_returned(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in _one_line_error(err)


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_exits_0_and_lists_the_flags_of_every_branch(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M))
    assert listed == COMMAND_FLAGS[command]


REAL_SPEC = "hbar: 1.0\nmode: real\nconvention: incremental\ndensity: uniform\n"
EUCLIDEAN_SPEC = "hbar: 0.5\nmode: euclidean\nconvention: anchored\ndensity: uniform\n"


@pytest.mark.parametrize("command", ["propagate", "state-check"])
def test_dfs_spec_fixes_hbar_and_mode_a_given_flag_must_agree(capsys, tmp_path, command):
    (tmp_path / "real.yaml").write_text(REAL_SPEC)
    argv = (command, "--groupoid", "pair:2", "--grid", "0,1,2", "--lagrangian",
            "energy:line,0.5", "--dfs", str(tmp_path / "real.yaml"))
    code, alone, _ = run(capsys, *argv)
    assert code == 0 and alone
    for agree in (("--hbar", "1"), ("--mode", "real"), ("--hbar", "1.0", "--mode", "real")):
        assert run(capsys, *argv, *agree)[:2] == (0, alone)
    spec = tmp_path / "real.yaml"
    for clash, message in [
            (("--hbar", "5"), f"state spec {spec} has hbar 1.0, not --hbar 5.0"),
            (("--mode", "euclidean"), f"state spec {spec} has mode real, not --mode euclidean"),
            (("--hbar", "5", "--mode", "euclidean"),
             f"state spec {spec} has hbar 1.0, not --hbar 5.0; mode real, not --mode euclidean")]:
        code, out, err = run(capsys, *argv, *clash)
        assert (code, out) == (2, "")
        assert _one_line_error(err) == f"error: {message}"


def test_dfs_spec_accepts_the_mode_and_hbar_it_holds(capsys, tmp_path):
    # the euclidean anchored requests of the benchmark pass --mode euclidean
    # beside a euclidean spec
    (tmp_path / "e.yaml").write_text(EUCLIDEAN_SPEC)
    argv = ("propagate", "--groupoid", "pair:3", "--grid", "0,1,3", "--lagrangian",
            "energy:line,0.5", "--dfs", str(tmp_path / "e.yaml"))
    code, alone, _ = run(capsys, *argv)
    assert code == 0 and alone
    assert run(capsys, *argv, "--mode", "euclidean", "--hbar", "0.5")[:2] == (0, alone)
    assert run(capsys, *argv, "--mode", "real")[0] == 2


def _readme_argvs():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [tuple(shlex.split(line)[1:]) for line in lines if line.startswith("sumhist ")]


def _benchmark_argvs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    return [req.argv for name in workloads.WORKLOADS
            for req in workloads.build(name, 201, tmp_path / name) if req.kind == "cli"]


def test_the_history_cap_refuses_no_benchmark_or_readme_call(tmp_path, monkeypatch):
    counts = []
    monkeypatch.chdir(tmp_path)
    for argv in [*_benchmark_argvs(tmp_path, monkeypatch), *_readme_argvs()]:
        args = cli.build_parser().parse_args(argv)
        cli._check_flags(args)
        if args.command == "propagate" and not args.geometry:
            g = cli._load_groupoid(args.groupoid)
            counts.append(sh.total_histories(g, cli._parse_grid(args.grid).n_intervals))
    assert len(counts) > 100 and max(counts) == 279936 <= cli.PROPAGATE_HISTORY_CAP // 100


def test_propagate_help_lists_the_flags_of_each_branch(capsys):
    with pytest.raises(SystemExit):
        main(["propagate", "--help"])
    epilog = capsys.readouterr().out.split("\n\n")[-1]
    branches = dict(re.findall(r"^(propagate.*):\n((?:  .*\n?)+)", epilog, re.M))
    assert list(branches) == ["propagate without --geometry", "propagate --geometry line",
                              "propagate --geometry circle"]
    assert [name for name, text in branches.items() if "--sites" in text] == [
        "propagate --geometry circle"]
    assert "requires --groupoid, --grid" in branches["propagate without --geometry"]


def test_the_flag_check_refuses_no_benchmark_or_readme_call(capsys, tmp_path, monkeypatch):
    readme = _readme_argvs()
    calls = [*_benchmark_argvs(tmp_path, monkeypatch), *readme]
    assert len(readme) >= 9 and len(calls) > 150
    assert {argv[0] for argv in readme} == {"validate", "state-check", "propagate", "converge"}
    ran = []
    for name in ("validate", "state_check", "propagate", "converge"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: ran.append(args.command) or 0)
    monkeypatch.chdir(tmp_path)
    for argv in calls:
        assert run(capsys, *argv) == (0, "", ""), argv
    assert ran == [argv[0] for argv in calls]
