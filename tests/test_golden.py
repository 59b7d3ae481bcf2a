"""Golden outputs: the sha256 of stdout and the exit code of small CLI calls.

The digests pin the exact bytes of the finite path sum (real, euclidean,
anchored, JSON under --threads 2), the line kernels on both routes, the
circle lattice chain and a convergence sweep, the state-check report with
its closed-form spectrum, the violation report of a corrupted groupoid file,
the report of the sum-splitting check with and without --threads, and
the warnings of the quadrature domain and of a coarse circle lattice.  A
change that is meant to keep every output byte-identical must leave them all
unchanged.  They were recorded on x86-64 Linux with CPython 3.11 and numpy
2.4; another libm or numpy build may round the last bits differently.
"""

import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

import sumhist as sh
from sumhist.cli import main

from conftest import mutated_copy

ANCHORED_SPEC = "hbar: 0.7\nmode: real\nconvention: anchored\ndensity: uniform\n"


def write_corrupted_groupoid(path):
    """pair_x_cyclic:2,2 after four seeded mutated_copy corruptions; its report
    holds domain, unit, inverse and associativity violations."""
    rng = np.random.default_rng(9)
    g = sh.builtin_groupoid("pair_x_cyclic:2,2")
    for _ in range(4):
        g = mutated_copy(g, rng)
    sh.save_groupoid_file(g, path)


GOLDEN = {
    "finite-real": (
        ["propagate", "--groupoid", "pair:3", "--grid", "0,1,3",
         "--lagrangian", "energy:line,0.5"],
        0, "9fc651990148de54ce3faead1fbb57f50cecb1cef191445a379fda5a1c3f20c2"),
    "finite-euclidean": (
        ["propagate", "--groupoid", "pair:3", "--grid", "0,1,3",
         "--lagrangian", "energy:line,0.5", "--mode", "euclidean", "--hbar", "0.3"],
        0, "439faa7dc525b9c42d7b6d0ac52c0b98730a233f05c6facc796dffbecdc85a63"),
    "finite-anchored-dfs": (
        ["propagate", "--groupoid", "pair:3", "--grid", "0,1,3",
         "--lagrangian", "energy:line,0.5", "--dfs", "{spec}"],
        0, "b04edb78bfaeeaf720ebf51b64e8d36c213ab69fa2663678f6e5281ee4e02010"),
    "finite-json-threads-2": (
        ["propagate", "--groupoid", "pair_x_cyclic:2,2", "--grid", "0,1,3",
         "--lagrangian", "energy:circle,2.0", "--threads", "2", "--format", "json"],
        0, "24795727dc50b2358326c6d1294714511bccd464a15f7bef06a645c157244f2b"),
    "line-real": (
        ["propagate", "--geometry", "line", "--N", "8", "--T", "0.7",
         "--x1=-1.5,0,0.25,2"],
        0, "258567965ff9b30bb7c70c703ebb3e294b51ab68eaa3903859cb86a74eda5e31"),
    "line-euclidean": (
        ["propagate", "--geometry", "line", "--mode", "euclidean", "--N", "4",
         "--quad-nodes", "120", "--x1", "0,0.5,1"],
        0, "8ef0d6030eae2d49e906c54df81309bb4ad5f2cef7e98d69f2f3a722a0f34854"),
    "circle-euclidean": (
        ["propagate", "--geometry", "circle", "--mode", "euclidean", "--N", "4",
         "--T", "0.5", "--sites", "48"],
        0, "8269ea95ea9398f20b6397d5cc9b5ee946848951a4faff5865f7018f0024d2e9"),
    "state-check": (
        ["state-check", "--groupoid", "pair:3", "--grid", "0,1,3",
         "--lagrangian", "energy:line,0.5"],
        0, "1fef8209a5ba324446dd5c3c954fee7a62ed3d30004fe5803fadae7359899535"),
    "validate-corrupted": (
        ["validate", "--groupoid", "{corrupted}"],
        3, "c4526e2072eaa658c022505119fbd5cdab445ae5ed0faec4b8bf928f7d866a88"),
    "converge-line": (
        ["converge", "--geometry", "line", "--sweep", "1,2,4,8", "--x1", "0.75"],
        0, "b636e23497d168ad43b78125f860840f2c195cc5e2fc78efc77a4f9b5b2ba40b"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_stdout_is_byte_identical(name, capsys, tmp_path):
    argv, want_code, want_digest = GOLDEN[name]
    spec = tmp_path / "spec.yaml"
    spec.write_text(ANCHORED_SPEC)
    corrupted = tmp_path / "corrupted.yaml"
    write_corrupted_groupoid(corrupted)
    code = main([a.format(spec=spec, corrupted=corrupted) for a in argv])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (want_code, want_digest)


# stdout and stderr digests of the sum-splitting check; --threads has no
# effect on the result, so every N gives the same bytes
RESIDUAL_ARGV = ["propagate", "--groupoid", "pair:3", "--grid", "0,1,4",
                 "--lagrangian", "energy:line,0.5", "--hbar", "0.7",
                 "--check", "reproducing", "--at", "2"]
RESIDUAL_STDERR = "a570c9aba8f09061fc8576a6bcc7cc88084ca8436982eb7fb0653f9e6063fb03"
RESIDUAL_GOLDEN = {
    "1": "a7b4baaca0066a78ce7b9281d5cf49ae29a81d2e4db4166190e9e0cde91245df",
    "2": "a7b4baaca0066a78ce7b9281d5cf49ae29a81d2e4db4166190e9e0cde91245df",
}


@pytest.mark.parametrize("threads", sorted(RESIDUAL_GOLDEN))
def test_reproducing_check_stderr_is_byte_identical(threads, capsys):
    code = main([*RESIDUAL_ARGV, "--threads", threads])
    captured = capsys.readouterr()
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (captured.out, captured.err)]
    assert (code, digests) == (0, [RESIDUAL_GOLDEN[threads], RESIDUAL_STDERR])


# stdout and stderr digests of geometry calls that warn.  Each warning is
# rendered as the CLI shows it under the default filter (once per call site),
# with the file it is attributed to but not the line number.
WARNING_GOLDEN = {
    "line-quadrature-domain": (
        ["propagate", "--geometry", "line", "--mode", "euclidean", "--N", "4",
         "--quad-nodes", "120", "--x1=-1,2.5,0.5"],
        ["48916d93585230adef8909d7dcf992d080083b6a98a051daa209092840bd7b6b",
         "3ad19dee1da4ac3d9c038de287489e7371fee30d6b029501c8099144da055520"]),
    "circle-coarse-lattice": (
        ["propagate", "--geometry", "circle", "--mode", "euclidean", "--N", "4",
         "--T", "0.5", "--sites", "16"],
        ["7704f0074b517ab775124e4f9db5d70baff70b79e2b88d8d65504843a2b923a0",
         "08cfb226cbf6e7d18e8e2e09ae8ad94b85c181028104dd63ab97476fe572d286"]),
}


@pytest.mark.parametrize("name", sorted(WARNING_GOLDEN))
def test_geometry_warnings_are_byte_identical(name, capsys):
    argv, want = WARNING_GOLDEN[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        code = main(argv)
    captured = capsys.readouterr()
    shown = "".join(f"{Path(w.filename).name}: {w.category.__name__}: {w.message}\n"
                    for w in caught)
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (captured.out, captured.err + shown)]
    assert (code, digests) == (0, want)
