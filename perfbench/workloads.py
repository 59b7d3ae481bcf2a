"""Seeded inputs and request lists of the four benchmark workloads.

Every workload is a closed loop with one client: the runner sends request
after request and waits for each to return.  A request is either a
``sumhist.cli.main(argv)`` call or, where no CLI command reaches a layer, a call
of that layer's public functions.  The program sees only the files written
here and the argv; everything is derived from the one ``--seed``.

The mix of request kinds and problem sizes is fixed per workload; the seed
draws the values (Lagrangians, weights, densities, endpoints, labels, random
vectors) and the order of the ``small-requests`` mix.  Work per pass is
therefore the same for every seed, so run-to-run spread measures the code and
the host, not the draw.

Why each workload exists:

* ``pathsum-table`` -- the literal path sum at bulk size (pair:6 N=6 table with
  weights, pair:5 N=6 euclidean sum-splitting, the multi-morphism hom sets of
  pair_x_cyclic:2,2, and the velocity form of all 36 endpoint pairs, which no
  CLI command reaches).  It
  bypasses groupoid validation, the certificate and the continuum code.  A
  vectorized path-sum kernel, or any work on enumeration, action, phases or
  ``fsum``, shows here.  The euclidean request keeps libm ``exp`` weights in
  the measured path, where a vectorized ``np.exp`` would break byte identity.
* ``small-requests`` -- the same path-sum layer used through ~160 tiny
  requests, so per-call overhead dominates: groupoid builds, loaders, state
  validation, argparse and writers.  A kernel that trades set-up cost for
  throughput shows its loss here and its gain on ``pathsum-table``.  The
  ``--threads 2`` sum-splitting requests stay in the mix so that the
  partitioned, thread-pool branch of ``finite_propagator`` is measured until it
  is deleted, and its deletion shows as a gain or a loss here.
* ``checks`` -- the verification layers with no path sum: exhaustive axiom
  validation, the state-check positivity certificate with its dense form
  matrices, and the star algebra (modular function, convolution, involution,
  the dense positivity certificate).  Table-free groupoids, fiber-wise
  ``left_regular`` and a linear-cost certificate move this workload and must
  leave ``pathsum-table`` unchanged.
* ``continuum`` -- line quadrature and recursion, circle lattice powers and
  their convergence sweeps; no groupoid and no history is built.  A quadrature
  kernel cache or the complex-time refactor shows here and nowhere else.
  ``propagate --geometry circle --mode real`` is left out on purpose: its
  image-sum reference does not converge at real time, and the CLI exits 0 on
  it with about 135% relative error.  The benchmark records that defect
  (``KNOWN_DEFECTS``) instead of measuring a meaningless comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sumhist import algebra as salg
from sumhist import geometry as sgeo
from sumhist import groupoid as sgrp
from sumhist import io as sio
from sumhist import propagator as sprop
from sumhist import states as sst
from sumhist.action import StateSpec, energy_lagrangian, uniform_state_spec
from sumhist.histories import TimeGrid

WORKLOADS = ("pathsum-table", "small-requests", "checks", "continuum")

# Calibration probe of each workload (run.PROBES).  On a shared host the speed
# of interpreter-bound and of memory-bound work drifts by up to 1.7x over
# minutes, and differently for each.  A workload's latencies are scaled by the
# probe that tracks its own work: measured over five seeds, the interpreter
# probe cut the spread of the path-sum workloads from 0.2-0.4 to under 0.1,
# and the memory probe (allocating and touching 32 MB, as the dense tables and
# forms of checks do) cut that of checks from 0.16-0.33 to under 0.1.  Neither
# probe tracked continuum, whose BLAS-bound times are reported as measured.
PROBE = {"pathsum-table": "interpreter", "small-requests": "interpreter",
         "checks": "memory", "continuum": None}

KNOWN_DEFECTS = (
    "propagate --geometry circle --mode real exits 0 with ~135% relative error "
    "against an image sum that does not converge at real time; left out of "
    "the continuum workload",
)

TOL = 1e-9           # --tol passed to every gated finite request
GEOMETRY_BOUND = 1e-9  # bound on geometry rel_error columns (never gated by the CLI)


@dataclass(frozen=True)
class Request:
    """One request of a pass.

    kind 'cli' calls sumhist.cli.main(argv); kind 'lib' calls LIBRARY[op](ctx,
    params).  expect holds what the checker verifies; histories is the number
    of histories the literal path sum must cover for this request."""

    rid: str
    kind: str
    argv: tuple = ()
    op: str = ""
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    histories: int = 0

    def as_json(self) -> dict:
        return {"rid": self.rid, "kind": self.kind, "argv": list(self.argv),
                "op": self.op, "params": self.params, "expect": self.expect,
                "histories": self.histories}


# ---------------------------------------------------------------------------
# history counts from hom-size matrix powers


def hom_size_matrix(g) -> list[list[int]]:
    """H[y][x] = number of morphisms x -> y, as exact integers."""
    H = [[0] * g.n_objects for _ in range(g.n_objects)]
    for s, t in zip(g.src.tolist(), g.tgt.tolist()):
        H[t][s] += 1
    return H


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def hom_power(g, n_steps: int) -> list[list[int]]:
    """H^n_steps; entry [x1][x0] counts the histories from x0 to x1."""
    H = hom_size_matrix(g)
    P = H
    for _ in range(n_steps - 1):
        P = _matmul(H, P)
    return P


def table_histories(g, n_steps: int) -> int:
    """Histories over all endpoint pairs of an n_steps grid."""
    return sum(map(sum, hom_power(g, n_steps)))


def splitting_histories(g, n_steps: int, at: int) -> int:
    """The full table plus the two sub-tables of a sum-splitting check."""
    return (table_histories(g, n_steps) + table_histories(g, at)
            + table_histories(g, n_steps - at))


# ---------------------------------------------------------------------------
# seeded input files


def _symmetric_values(rng, g) -> np.ndarray:
    """Seeded Lagrangian values with L(m) == L(m^-1)."""
    vals = rng.uniform(0.0, 2.0, g.n_morphisms)
    inv = g.inverse_of
    for m in range(g.n_morphisms):
        if inv[m] < m:
            vals[m] = vals[inv[m]]
    return vals


def _relabel(g, perm: np.ndarray, name: str):
    """The same groupoid with morphism m renamed perm[m]."""
    back = np.argsort(perm)
    table = np.full_like(g.table, sgrp.UNDEFINED)
    defined = g.table[back][:, back]
    table[defined >= 0] = perm[defined[defined >= 0]]
    return sgrp.FiniteGroupoid(g.n_objects, g.src[back].copy(), g.tgt[back].copy(),
                               perm[g.unit_of], perm[g.inverse_of[back]], table,
                               name=name)


class Inputs:
    """Writes the seeded input files of one workload into a work directory."""

    def __init__(self, workdir: Path, rng):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rng = rng
        self._groupoids = {}

    def groupoid(self, name: str):
        if name not in self._groupoids:
            self._groupoids[name] = sgrp.resolve_groupoid(name)
        return self._groupoids[name]

    def _slug(self, name: str) -> str:
        return name.replace(":", "").replace(",", "_")

    def lagrangian(self, name: str) -> str:
        g = self.groupoid(name)
        path = f"lag_{self._slug(name)}.csv"
        sio.lagrangian_csv(_symmetric_values(self.rng, g), self.dir / path)
        return path

    def measure(self, name: str) -> str:
        g = self.groupoid(name)
        obj = f"obj_{self._slug(name)}.csv"
        fib = f"fib_{self._slug(name)}.csv"
        sio.object_weights_csv(self.rng.uniform(0.5, 1.5, g.n_objects), self.dir / obj)
        sio.fiber_weights_csv(self.rng.uniform(0.5, 1.5, g.n_morphisms), self.dir / fib)
        return f"{obj}:{fib}"

    def anchored_spec(self, name: str, tag: str) -> str:
        """Euclidean, anchored-convention state spec with a seeded density
        normalized against the counting measure."""
        g = self.groupoid(name)
        w = self.rng.uniform(0.5, 1.5, g.n_objects)
        p = w / w.sum()
        spec = StateSpec(p[None, :], hbar=float(self.rng.uniform(0.5, 2.0)),
                         mode="euclidean", convention="anchored")
        path = f"spec_{self._slug(name)}{tag}.yaml"
        sio.save_state_spec(spec, self.dir / path)
        return path

    def description(self, name: str, stem: str) -> str:
        """Description file of a builtin with seeded morphism labels."""
        g = self.groupoid(name)
        perm = self.rng.permutation(g.n_morphisms)
        path = f"{stem}.yaml"
        sgrp.save_groupoid_file(_relabel(g, perm, stem), self.dir / path)
        return path


def _propagate(g_name, n, extra, expect, histories, rid):
    argv = ("propagate", "--groupoid", g_name, "--grid", f"0,1,{n}", *extra)
    return Request(rid, "cli", argv=argv, expect=expect, histories=histories)


# ---------------------------------------------------------------------------
# workloads


def pathsum_table(inp: Inputs, rng) -> list[Request]:
    reqs = []
    g6 = inp.groupoid("pair:6")
    reqs.append(_propagate(
        "pair:6", 6, ("--lagrangian", inp.lagrangian("pair:6"),
                      "--measure", inp.measure("pair:6"),
                      "--oracle", "transfer-matrix", "--tol", repr(TOL)),
        {"rc": 0, "rows": 36, "oracle": True}, table_histories(g6, 6), "table-pair6"))
    g5 = inp.groupoid("pair:5")
    reqs.append(_propagate(
        "pair:5", 6, ("--mode", "euclidean", "--lagrangian", inp.lagrangian("pair:5"),
                      "--check", "reproducing", "--at", "3",
                      "--oracle", "transfer-matrix", "--tol", repr(TOL)),
        {"rc": 0, "rows": 25, "oracle": True, "reproducing": True},
        splitting_histories(g5, 6, 3), "split-pair5"))
    gx = inp.groupoid("pair_x_cyclic:2,2")
    reqs.append(_propagate(
        "pair_x_cyclic:2,2", 7, ("--lagrangian", inp.lagrangian("pair_x_cyclic:2,2"),
                                 "--oracle", "transfer-matrix", "--tol", repr(TOL)),
        {"rc": 0, "rows": 4, "oracle": True}, table_histories(gx, 7), "table-pxc22"))
    lattice = {"circumference": float(rng.uniform(4.0, 8.0)),
               "total_time": float(rng.uniform(0.5, 1.5)),
               "mass": float(rng.uniform(0.5, 2.0)), "sites": 6, "n": 6}
    reqs.append(Request("velocity-table", "lib", op="velocity", params=lattice,
                        expect={"vs_finite": 1e-12}, histories=table_histories(g6, 6)))
    return reqs


def small_requests(inp: Inputs, rng) -> list[Request]:
    reqs = []
    files = {}
    for name in ("pair:2", "pair:3", "pair:4", "pair_x_cyclic:2,2"):
        files[name] = (inp.lagrangian(name), inp.measure(name))
    # finite tables with measure, Lagrangian CSV and the transfer oracle
    sizes = [(f"pair:{k}", n) for k in (2, 3, 4) for n in (2, 3, 4)] * 7
    sizes += [("pair_x_cyclic:2,2", 3)] * 7
    for i, (name, n) in enumerate(sizes):
        lag, meas = files[name]
        g = inp.groupoid(name)
        reqs.append(_propagate(name, n, ("--lagrangian", lag, "--measure", meas,
                                         "--oracle", "transfer-matrix",
                                         "--tol", repr(TOL)),
                               {"rc": 0, "rows": g.n_objects ** 2, "oracle": True},
                               table_histories(g, n), f"table-{i}"))
    # euclidean, anchored-convention state specs (from_links + action branch)
    specs = {name: [inp.anchored_spec(name, f"_{t}") for t in range(2)]
             for name in ("pair:2", "pair:3")}
    for i in range(30):
        name = ("pair:2", "pair:3")[i % 2]
        n = 2 + (i // 2) % 2
        g = inp.groupoid(name)
        fmt = ("--format", "json") if i % 3 == 0 else ()
        reqs.append(_propagate(name, n, ("--mode", "euclidean", "--dfs", specs[name][i % 4 // 2],
                                         "--lagrangian", files[name][0], *fmt),
                               {"rc": 0, "rows": g.n_objects ** 2, "json": bool(fmt)},
                               table_histories(g, n), f"anchored-{i}"))
    # sum-splitting through the partitioned, two-thread branch; kept under a
    # tenth of the mix, because thread hand-offs make these the noisiest
    # requests and request_p90_s would otherwise sit among them
    for i in range(10):
        name, n, at = (("pair:3", 4, 2), ("pair:2", 3, 1))[i % 2]
        lag, meas = files[name]
        g = inp.groupoid(name)
        reqs.append(_propagate(name, n, ("--lagrangian", lag, "--measure", meas,
                                         "--check", "reproducing", "--at", str(at),
                                         "--threads", "2", "--tol", repr(TOL)),
                               {"rc": 0, "rows": g.n_objects ** 2, "reproducing": True},
                               splitting_histories(g, n, at), f"threads-{i}"))
    # small state checks
    for i in range(25):
        name, n = (("pair:2", 2), ("pair:2", 3), ("pair:3", 2), ("pair:3", 3))[i % 4]
        lag = (f"energy:line,{rng.uniform(0.5, 1.5)!r}" if i % 2 == 0
               else files[name][0])
        argv = ("state-check", "--groupoid", name, "--grid", f"0,1,{n}",
                "--lagrangian", lag, "--seed", str(int(rng.integers(1 << 30))))
        reqs.append(Request(f"state-{i}", "cli", argv=argv,
                            expect={"rc": 0, "report": True}))
    # axiom validation of builtins and of description files
    builtins = ["pair:2", "pair:3", "pair:4", "pair:5", "cyclic:3", "cyclic:4",
                "cyclic:5", "cyclic:6", "pair_x_cyclic:2,2", "pair_x_cyclic:2,3",
                "pair_x_cyclic:3,2"]
    for i in range(15):
        name = builtins[i % len(builtins)]
        reqs.append(Request(f"validate-{i}", "cli", argv=("validate", "--groupoid", name),
                            expect={"rc": 0, "valid": True}))
    descs = [inp.description("pair:3", "desc_pair3"),
             inp.description("pair_x_cyclic:2,2", "desc_pxc22")]
    for i in range(10):
        reqs.append(Request(f"validate-file-{i}", "cli",
                            argv=("validate", "--groupoid", descs[i % 2]),
                            expect={"rc": 0, "valid": True}))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def checks(inp: Inputs, rng) -> list[Request]:
    weights_seed = int(rng.integers(1 << 30))
    reqs = [
        Request("validate-pxc88", "cli", argv=("validate", "--groupoid", "pair_x_cyclic:8,8"),
                expect={"rc": 0, "valid": True}),
        Request("state-pair4", "cli",
                argv=("state-check", "--groupoid", "pair:4", "--grid", "0,1,5",
                      "--lagrangian", f"energy:line,{rng.uniform(0.5, 1.5)!r}",
                      "--mass", repr(float(rng.uniform(0.5, 2.0))),
                      "--seed", str(int(rng.integers(1 << 30)))),
                expect={"rc": 0, "report": True}),
        Request("algebra-build", "lib", op="build_measure",
                params={"groupoid": "pair:48", "seed": weights_seed},
                expect={"morphisms": 48 * 48}),
        Request("modular", "lib", op="modular", params={"seed": weights_seed, "objects": 48},
                expect={"modular": 1e-12}),
    ]
    for i in range(10):
        reqs.append(Request(f"involution-{i}", "lib", op="involution_law",
                            params={"seed": int(rng.integers(1 << 30))},
                            expect={"law": 1e-12}))
    for i in range(3):
        reqs.append(Request(f"certify-{i}", "lib", op="certify",
                            params={"groupoid": "pair_x_cyclic:8,8", "factorized": True,
                                    "seed": int(rng.integers(1 << 30))},
                            expect={"verdict": "positive"}))
    reqs.append(Request("certify-random", "lib", op="certify",
                        params={"groupoid": "pair_x_cyclic:8,8", "factorized": False,
                                "seed": int(rng.integers(1 << 30))},
                        expect={"verdict": "indefinite"}))
    return reqs


def continuum(inp: Inputs, rng) -> list[Request]:
    quad = ("--quad-nodes", "800", "--quad-halfwidth", "10")
    x0 = repr(round(float(rng.uniform(-1.0, 1.0)), 6))
    x1s = ",".join(repr(round(float(v), 6)) for v in rng.uniform(-2.0, 2.0, 9))
    sites = 512
    circ = 2 * math.pi
    k0 = int(rng.integers(sites))
    th0 = repr(circ * k0 / sites)
    th1s = ",".join(repr(circ * int(k) / sites) for k in rng.integers(0, sites, 8))
    th1 = repr(circ * int(rng.integers(sites)) / sites)
    line_x1 = repr(round(float(rng.uniform(-2.0, 2.0)), 6))
    sweep_line = ",".join(str(2 ** k) for k in range(2, 10))
    sweep_circle = ",".join(str(2 ** k) for k in range(0, 9))
    geo = {"rc": 0, "rel_error_max": GEOMETRY_BOUND}
    return [
        Request("line-euclidean", "cli",
                argv=("propagate", "--geometry", "line", "--mode", "euclidean",
                      "--N", "256", *quad, f"--x0={x0}", f"--x1={x1s}"), expect=geo),
        Request("line-real", "cli",
                argv=("propagate", "--geometry", "line", "--mode", "real",
                      "--N", "256", *quad, f"--x0={x0}", f"--x1={x1s}"), expect=geo),
        Request("line-converge", "cli",
                argv=("converge", "--geometry", "line", "--mode", "euclidean", *quad,
                      "--sweep", sweep_line, f"--x0={x0}", f"--x1={line_x1}"),
                expect={"rc": 0, "final_rel_error_max": GEOMETRY_BOUND}),
        Request("circle-euclidean", "cli",
                argv=("propagate", "--geometry", "circle", "--mode", "euclidean",
                      "--N", "256", "--sites", str(sites), f"--x0={th0}", f"--x1={th1s}"),
                expect=geo),
        Request("circle-converge", "cli",
                argv=("converge", "--geometry", "circle", "--mode", "euclidean",
                      "--sites", str(sites), "--sweep", sweep_circle,
                      f"--x0={th0}", f"--x1={th1}"),
                expect={"rc": 0, "final_rel_error_max": GEOMETRY_BOUND}),
    ]


REQUEST_LISTS = {"pathsum-table": pathsum_table, "small-requests": small_requests,
            "checks": checks, "continuum": continuum}


def build(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Write the seeded inputs of a workload and return its request list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return REQUEST_LISTS[workload](Inputs(workdir, rng), rng)


# ---------------------------------------------------------------------------
# library requests: ops reached by no CLI command


def _velocity(ctx, p):
    """Velocity-form amplitudes of every endpoint pair, row-major in (x0, x1)."""
    geom = sgeo.CircleLattice(p["sites"], p["circumference"])
    grid = TimeGrid.uniform(0.0, p["total_time"], p["n"])
    spec = uniform_state_spec(sgrp.pair_groupoid(p["sites"]), mode="real")
    return [sprop.velocity_form_propagator(geom, grid, spec, p["mass"], x0, x1)
            for x0 in range(p["sites"]) for x1 in range(p["sites"])]


def _build_measure(ctx, p):
    g = sgrp.resolve_groupoid(p["groupoid"])
    w = np.random.default_rng(p["seed"]).uniform(0.5, 1.5, g.n_objects)
    ctx["measure"] = salg.GroupoidMeasure(g, w, np.ones(g.n_morphisms))
    return ctx["measure"]


def _modular(ctx, p):
    return salg.modular_function(ctx["measure"])


def _involution_law(ctx, p):
    """(f ⋆ h)* and h* ⋆ f* for seeded f, h."""
    m = ctx["measure"]
    rng = np.random.default_rng(p["seed"])
    n = m.groupoid.n_morphisms
    f, h = rng.standard_normal((2, n, 2)) @ np.array([1.0, 1j])
    lhs = salg.involute(salg.convolve(f, h, m), m)
    rhs = salg.convolve(salg.involute(h, m), salg.involute(f, m), m)
    return lhs, rhs


def _certify(ctx, p):
    """Dense certificate of phi(m) = sqrt(p(src) p(tgt)) exp(i S(m)): S a
    coboundary s(tgt) - s(src) (positive type) or seeded noise (not)."""
    g = sgrp.resolve_groupoid(p["groupoid"])
    rng = np.random.default_rng(p["seed"])
    w = rng.uniform(0.5, 1.5, g.n_objects)
    m = salg.GroupoidMeasure(g, w, np.ones(g.n_morphisms))
    dens = rng.uniform(0.5, 1.5, g.n_objects)
    if p["factorized"]:
        s = rng.uniform(-math.pi, math.pi, g.n_objects)
        action = s[g.tgt] - s[g.src]
    else:
        action = rng.uniform(-math.pi, math.pi, g.n_morphisms)
    phi = sst.PhaseState(g, dens, action).values
    return sst.certify_positive_type(phi, m)


LIBRARY = {"velocity": _velocity, "build_measure": _build_measure,
           "modular": _modular, "involution_law": _involution_law,
           "certify": _certify}


def digest_bytes(req: Request, result) -> bytes:
    """Canonical bytes of a request's output: stdout for CLI requests, the
    exact values returned for library requests."""
    if req.kind == "cli":
        return result[1].encode()
    if req.op == "velocity":
        return repr([complex(z) for z in result]).encode()
    if req.op == "build_measure":
        return (repr(result.groupoid) + result.object_weights.tobytes().hex()).encode()
    if req.op == "modular":
        return np.ascontiguousarray(result).tobytes()
    if req.op == "involution_law":
        return b"".join(np.ascontiguousarray(a).tobytes() for a in result)
    if req.op == "certify":
        return json.dumps([repr(result.min_eigenvalue), result.form_matrix_dim,
                           result.verdict, repr(result.hermiticity_defect)]).encode()
    raise KeyError(req.op)


def velocity_reference(p) -> list:
    """finite_propagator on the pair groupoid with the energy Lagrangian of
    the same lattice, for every endpoint pair: the position form the velocity
    form must equal."""
    geom = sgeo.CircleLattice(p["sites"], p["circumference"])
    grid = TimeGrid.uniform(0.0, p["total_time"], p["n"])
    g = sgrp.pair_groupoid(p["sites"])
    spec = uniform_state_spec(g, mode="real")
    lag = energy_lagrangian(g, geom, grid.dt(0), p["mass"])
    return [sprop.finite_propagator(g, grid, lag, spec, x0, x1)
            for x0 in range(p["sites"]) for x1 in range(p["sites"])]
