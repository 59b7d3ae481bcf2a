"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import sumhist.cli  # noqa: E402
from sumhist.groupoid import load_groupoid_file, resolve_groupoid, validate_axioms  # noqa: E402
from sumhist.histories import count_histories  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import verify  # noqa: E402


@pytest.mark.parametrize("name", ["pair:2", "pair:3", "cyclic:3", "pair_x_cyclic:2,2",
                                  "pair_x_cyclic:2,3"])
def test_hom_power_counts_match_count_histories(name):
    g = resolve_groupoid(name)
    for n in range(1, 5):
        P = workloads.hom_power(g, n)
        for x0 in range(g.n_objects):
            for x1 in range(g.n_objects):
                assert P[x1][x0] == count_histories(g, x0, x1, n)


def test_relabeled_description_file_is_a_valid_groupoid(tmp_path):
    inp = workloads.Inputs(tmp_path, np.random.default_rng(3))
    g = load_groupoid_file(tmp_path / inp.description("pair_x_cyclic:2,2", "d"))
    assert validate_axioms(g).ok
    assert workloads.table_histories(g, 3) == workloads.table_histories(
        resolve_groupoid("pair_x_cyclic:2,2"), 3)


def _file_digests(d: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.iterdir())}


def test_same_seed_gives_same_requests_inputs_and_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    ra = workloads.build("small-requests", 7, a)
    rb = workloads.build("small-requests", 7, b)
    assert [r.as_json() for r in ra] == [r.as_json() for r in rb]
    assert _file_digests(a) == _file_digests(b)
    rc = workloads.build("small-requests", 8, tmp_path / "c")
    assert [r.as_json() for r in rc] != [r.as_json() for r in ra]

    digests = []
    for reqs, d in ((ra, a), (rb, b)):
        checker = run.Checker(reqs)
        results, errors, _ = run.run_pass(reqs, d)
        checker.add(0, results, errors)
        assert checker.failures == []
        digests.append(checker.first)
    assert digests[0] == digests[1]


def test_checks_reject_wrong_outputs(tmp_path):
    reqs = workloads.build("pathsum-table", 1, tmp_path)
    table = next(r for r in reqs if r.rid == "table-pxc22")
    results, errors, _ = run.run_pass([table], tmp_path)
    rc, out, err = results[0]
    assert verify(table, (rc, out, err), {}) is None
    assert "exit code" in verify(table, (3, out, err), {})
    assert "above tol" in verify(table, (rc, out, "max relative deviation 1e-3\n"), {})
    assert "table rows" in verify(table, (rc, out.rsplit("\n", 2)[0] + "\n", err), {})
    velocity = next(r for r in reqs if r.op == "velocity")
    good = workloads.LIBRARY["velocity"]({}, velocity.params)
    assert verify(velocity, good, {}) is None
    assert "differs" in verify(velocity, good[:5] + [good[5] * (1 + 1e-9)] + good[6:], {})


def test_tracing_counts_histories_and_restores_names(tmp_path):
    reqs = [r for r in workloads.build("pathsum-table", 2, tmp_path)
            if r.rid == "table-pxc22"]
    original = sumhist.cli.cmd_propagate
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert sumhist.cli.cmd_propagate is not original
        run.run_pass(reqs, tmp_path, rec)
    finally:
        undo()
    assert sumhist.cli.cmd_propagate is original
    layers = rec.summary()
    assert layers["histories.enumerated"] == reqs[0].histories == 32768
    assert layers["cli.propagate.calls"] == 1
    assert layers["propagator.finite_propagator.calls"] == 4
    assert 0 <= layers["cli.propagate.self_s"] <= layers["cli.propagate.busy_s"]
    parents = {s[1]: s[0] for s in rec.spans}
    assert all(s[2] is None or parents[s[2]] for s in rec.spans)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metrics()
    e2e = run.end_to_end([0.1], [{"lat": [0.1, 0.2]}], 1.0, None)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, u) for k, (_, u) in e2e.items()]
