"""Golden outputs: the sha256 of stdout and the exit code of small CLI calls.

The digests pin the exact bytes of the finite path sum (real, euclidean,
anchored, JSON under --threads 2), the line kernels on both routes, the
circle lattice chain and a convergence sweep, the state-check report with
its closed-form spectrum, the violation report of a corrupted groupoid file,
the report of the sum-splitting check with and without --threads, and
the warnings of the quadrature domain and of a coarse circle lattice.  A
change that is meant to keep every output byte-identical must leave them all
unchanged.  They were recorded on x86-64 Linux with CPython 3.11 and numpy
2.4; another libm or numpy build may round the last bits differently.  The
kernels of the line and circle chains take libm exp through phase_factors,
so those two digests hold under numpy's CPU dispatch with AVX-512 switched
off as well.  The chains' mat-vecs still depend on the BLAS kernel: the
real euclidean chain of the 48-site circle keeps its bytes under
OpenBLAS's Sandybridge kernels (no FMA), which a subprocess test checks
where numpy's BLAS is OpenBLAS, and the quadrature chain of line-euclidean
does not.
"""

import hashlib
import os
import subprocess
import sys
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
        0, "cf8d5de474803f9547f1226891e64bbee75ff006ee591ed9c6bc89c7a8d4724e"),
    "circle-euclidean": (
        ["propagate", "--geometry", "circle", "--mode", "euclidean", "--N", "4",
         "--T", "0.5", "--sites", "48"],
        0, "7404e08c5e8d8dd509ed7e2f765c536ef18806840b85a81c1ab1a1d8238bfc88"),
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
        ["49c03b36364b1f65421085c87c22c907ed3d73e290f1a63926365cde7df3f0c0",
         "eef78fae32e373021dc318c3a11fffd2f4cacd51827e6b6d783dbdf2dd4124c9"]),
    "circle-coarse-lattice": (
        ["propagate", "--geometry", "circle", "--mode", "euclidean", "--N", "4",
         "--T", "0.5", "--sites", "16"],
        ["27b362a358ec6f663d471dcfe31d118115496f765d846084e6d483f8f5a4ca36",
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


# numpy's AVX-512 loops switched off, for the process that runs the CLI call
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"

# a child process that prints the exit code and stdout digest of one CLI
# call, or exits 3 if numpy refuses NPY_DISABLE_CPU_FEATURES (a feature of
# its baseline, or one this build does not dispatch)
DISPATCH_CHILD = """
import hashlib, io, sys, warnings
from contextlib import redirect_stdout
warnings.simplefilter("error", ImportWarning)
try:
    import numpy
except (ImportWarning, RuntimeError) as exc:
    print(exc, file=sys.stderr)
    sys.exit(3)
warnings.resetwarnings()
from sumhist.cli import main
out = io.StringIO()
with redirect_stdout(out):
    code = main(sys.argv[1:])
print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def _child_run(argv, **env):
    """Run DISPATCH_CHILD on argv with the src/ of this checkout on the path
    and env added to the environment."""
    src = str(Path(sh.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **env)
    return subprocess.run([sys.executable, "-c", DISPATCH_CHILD, *argv], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", ["circle-euclidean", "line-euclidean"])
def test_kernel_goldens_hold_without_avx512_dispatch(name):
    argv, want_code, want_digest = GOLDEN[name]
    run = _child_run(argv, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    if run.returncode == 3:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={NO_AVX512!r}: "
                    f"{run.stderr.strip()}")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str(want_code), want_digest]


def _blas_name() -> str:
    """The BLAS numpy was built with, as its build configuration names it."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


@pytest.mark.skipif("openblas" not in _blas_name().lower(),
                    reason=f"numpy's BLAS is {_blas_name()}, not OpenBLAS")
def test_circle_golden_holds_under_openblas_kernels_without_fma():
    # the lattice chain is real in euclidean mode; the 48-site circle keeps
    # its bytes under OpenBLAS's Sandybridge kernels, the quadrature chain of
    # line-euclidean does not
    argv, want_code, want_digest = GOLDEN["circle-euclidean"]
    run = _child_run(argv, OPENBLAS_CORETYPE="Sandybridge")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str(want_code), want_digest]
