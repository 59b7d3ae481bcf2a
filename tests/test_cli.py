import csv
import json

import numpy as np
import pytest

import sumhist as sh
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


def test_propagate_threads_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f, threads in ((f1, "1"), (f2, "4")):
        code, _, _ = run(capsys, "propagate", "--groupoid", "pair:3",
                         "--grid", "0,1,4", "--lagrangian", "energy:line,0.5",
                         "--threads", threads, "--out", str(f))
        assert code == 0
    a = list(csv.DictReader(f1.open()))
    b = list(csv.DictReader(f2.open()))
    for ra, rb in zip(a, b):
        assert abs(float(ra["re"]) - float(rb["re"])) <= 1e-13
        assert abs(float(ra["im"]) - float(rb["im"])) <= 1e-13


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


def test_converge_requires_geometry(capsys):
    code, _, err = run(capsys, "converge", "--groupoid", "pair:2")
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


def test_state_check_refuses_oversized_family(capsys):
    code, _, err = run(capsys, "state-check", "--groupoid", "pair:6",
                       "--grid", "0,1,6", "--lagrangian", "zero")
    assert code == 2
    assert "20000" in err


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
])
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _one_line_error(err):
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


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
    from sumhist.io import (load_algebra_element_csv, load_lagrangian_csv,
                            load_weights_csv)
    path = tmp_path / "f.csv"
    path.write_text("morphism_id,value,fiber_weight,re,im\n-1,0.5,0.5,0.5,0.5\n")
    with pytest.raises(ValueError, match="line 2, column 'morphism_id'"):
        load_lagrangian_csv(path, 4)
    with pytest.raises(ValueError, match="outside 0..3"):
        load_weights_csv(path, 4, "morphism_id", "fiber_weight")
    with pytest.raises(ValueError, match="line 2, column 'morphism_id'"):
        load_algebra_element_csv(path, 4)
    path.write_text("morphism_id,re,im\n1,0.5,x\n")
    with pytest.raises(ValueError, match="column 'im': bad number 'x'"):
        load_algebra_element_csv(path, 4)
