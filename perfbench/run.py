"""sumhist benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sumhist checkout; the package is imported from its
``src/``.  The runner writes the seeded inputs (``workloads.py``), then
repeats the workload's request sequence (a pass) in this process until about
``--seconds`` have elapsed, sending each request only after the previous one
returned.  Every output is checked (``checks.py``); a failed check counts in
``failed``, and ``failed / attempted`` is the error rate.

``--trace 0`` reports the end-to-end metrics, all with tracing off:

* ``setup_s`` -- median time to import ``sumhist.cli`` with numpy and yaml,
  once in this process before the first request and in four fresh processes;
* ``wall_s`` -- wall time of the request sequence: the sum over its requests
  of each request's median latency over the passes;
* ``request_p50_s`` / ``request_p90_s`` -- median and 90th percentile of those
  per-request latencies;
* ``peak_rss_mb`` -- peak resident memory of this process.

Between requests the runner times the workload's calibration probe
(``workloads.PROBE``): fixed work that tracks the host's speed for the kind of
work the workload does, ``interpreter_probe`` or ``memory_probe``.  Each
latency is scaled to a reference host speed by the probe samples around it
(``scaled_latencies``); a workload without a probe is reported as measured.
``host.calibration_s`` in the traced run is the probe's median time.

``--trace 1`` alternates untraced and traced passes (``tracing.py``) and
reports the per-layer metrics: span counts and times as measured (medians over
traced passes), the path-sum history count and rate, CPU time per untraced
pass, and the tracing overhead (traced minus untraced ``wall_s``).

The last stdout line is the JSON result; the lines before it name each metric
with its unit, the error rate, host facts and the sha256 of the outputs.  A
record with host facts, per-request digests, failures, all timings and the
spans is written to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 4
PROBE = ("import sys, time\nt = time.perf_counter()\nsys.path.insert(0, sys.argv[1])\n"
         "import numpy, yaml, sumhist.cli\nprint(repr(time.perf_counter() - t))\n")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CALIBRATE_EVERY = 0.1
CALIBRATION_BURST = 3
LONG_REQUEST_S = 0.5
WINDOW_S = 0.5
clock = time.perf_counter


def _parse(argv):
    ap = argparse.ArgumentParser(description="sumhist benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program() -> float:
    """Import sumhist.cli from this checkout's src/; returns the time taken."""
    t = clock()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import yaml  # noqa: F401
    import sumhist.cli
    elapsed = clock() - t
    if Path(sumhist.cli.__file__).resolve() != (SRC / "sumhist" / "cli.py").resolve():
        raise RuntimeError(f"imported {sumhist.cli.__file__}, not this checkout's")
    return elapsed


def _setup_probe() -> float:
    r = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], capture_output=True,
                       text=True, timeout=60, check=True)
    return float(r.stdout)


def host_facts() -> dict:
    import numpy as np
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "machine": platform.machine(),
            "blas": blas, "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


# ---------------------------------------------------------------------------
# one request, one pass


def run_request(req, ctx, cli, library):
    """Send one request; returns (seconds, result, error)."""
    if req.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        t = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(req.argv))
        except SystemExit as exc:           # argparse rejects argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:                    # a traceback is a failed request
            rc = 1
            err.write(traceback.format_exc())
        return clock() - t, (rc, out.getvalue(), err.getvalue()), None
    t = clock()
    try:
        result = library[req.op](ctx, req.params)
    except Exception:
        return clock() - t, None, traceback.format_exc(limit=3)
    return clock() - t, result, None


@contextlib.contextmanager
def _chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def interpreter_probe() -> complex:
    """Fixed interpreter-bound work shaped like a literal path sum (about 4 ms
    on the reference host); it never changes, so its time tracks host speed."""
    vals = [0.1 * k for k in range(16)]
    terms = []
    for path in itertools.product(range(4), repeat=5):
        s = math.fsum(vals[a * 4 + b] for a, b in zip(path, path[1:]))
        w = 1.0
        for c in path:
            w *= 1.0 + 0.01 * c
        terms.append(w * complex(math.cos(s), math.sin(s)))
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def memory_probe() -> float:
    """Fixed memory-bound work: allocate, touch and reduce 32 MB (about 22 ms
    on the reference host)."""
    import numpy as np
    a = np.zeros(2_000_000, dtype=complex)
    a[::7] = 1.0
    return float(np.abs(a).sum())


# probe name -> (probe, its time on the reference host in seconds)
PROBES = {"interpreter": (interpreter_probe, 0.004), "memory": (memory_probe, 0.022)}


def run_pass(requests, workdir, recorder=None, probe=None):
    """One pass over the request list.

    Returns (results, errors, timing): timing holds each request's start and
    latency, the pass CPU time, and samples of the calibration probe with
    their start times.  CALIBRATION_BURST samples are taken before the first
    request and after any request of LONG_REQUEST_S or more; one sample after
    any other request that ends CALIBRATE_EVERY or more after the previous
    sample.  Without a probe no samples are taken."""
    import sumhist.cli as cli
    from workloads import LIBRARY
    ctx = {}
    t0 = clock()
    timing = {"start": [], "lat": [], "cal": [], "cal_t": []}
    results, errors = [], []

    def calibrate(n):
        for _ in range(n if probe is not None else 0):
            t = clock()
            probe()
            timing["cal"].append(clock() - t)
            timing["cal_t"].append(t - t0)

    cpu = time.process_time()
    calibrate(CALIBRATION_BURST)
    with _chdir(workdir):
        for req in requests:
            if recorder is not None:
                recorder.rid = req.rid
            timing["start"].append(clock() - t0)
            dt, result, error = run_request(req, ctx, cli, LIBRARY)
            timing["lat"].append(dt)
            results.append(result)
            errors.append(error)
            if dt >= LONG_REQUEST_S:
                calibrate(CALIBRATION_BURST)
            elif timing["cal_t"] and clock() - t0 - timing["cal_t"][-1] >= CALIBRATE_EVERY:
                calibrate(1)
    timing["cpu"] = time.process_time() - cpu
    return results, errors, timing


class Checker:
    """Digests every output and verifies each distinct one once."""

    def __init__(self, requests):
        self.requests = requests
        self.first = [None] * len(requests)     # digest of the first pass
        self.verdicts = {}                       # (index, digest) -> reason or None
        self.refs = {}
        self.attempted = 0
        self.failures = []

    def add(self, pass_no, results, errors):
        from checks import verify
        from workloads import digest_bytes
        for i, (req, result, error) in enumerate(zip(self.requests, results, errors)):
            self.attempted += 1
            if error is not None:
                reason = f"raised: {error.strip().splitlines()[-1]}"
            else:
                digest = hashlib.sha256(digest_bytes(req, result)).hexdigest()
                if self.first[i] is None:
                    self.first[i] = digest
                if (i, digest) not in self.verdicts:
                    self.verdicts[(i, digest)] = verify(req, result, self.refs)
                reason = self.verdicts[(i, digest)]
                if reason is None and digest != self.first[i]:
                    reason = "output differs from the first pass"
            if reason is not None:
                self.failures.append({"pass": pass_no, "rid": req.rid, "reason": reason})

    def combined_digest(self) -> str:
        return hashlib.sha256("\n".join(d or "-" for d in self.first).encode()).hexdigest()


# ---------------------------------------------------------------------------
# metrics


def scaled_latencies(p, ref) -> list:
    """Latencies of one pass.  With a probe reference time ref, each is in
    reference-host seconds: multiplied by ref over the median of the probe
    samples taken from WINDOW_S before the request starts to WINDOW_S after it
    ends."""
    if ref is None:
        return p["lat"]
    out = []
    for start, x in zip(p["start"], p["lat"]):
        near = [c for t, c in zip(p["cal_t"], p["cal"])
                if start - WINDOW_S <= t <= start + x + WINDOW_S]
        out.append(x * ref / statistics.median(near))
    return out


def typical_latencies(passes, ref) -> list:
    """Per request of the sequence, its median latency over the passes."""
    return [statistics.median(col)
            for col in zip(*(scaled_latencies(p, ref) for p in passes))]


def end_to_end(setup, passes, rss_mb, ref):
    lat = sorted(typical_latencies(passes, ref))
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {"setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(lat), "s"),
            "request_p50_s": (statistics.median(lat), "s"),
            "request_p90_s": (p90, "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def per_layer(untraced, traced, histories, ref):
    """Per-layer metrics: span times as measured (medians over traced passes);
    rate and overhead from pass times as in end_to_end."""
    from tracing import per_layer_metrics
    wall_u = sum(typical_latencies(untraced, ref))
    wall_t = sum(typical_latencies(traced, ref))
    values = {k: statistics.median(p["layers"][k] for p in traced)
              for k in traced[0]["layers"]}
    values.update({"pathsum.histories": histories,
                   "pathsum.histories_per_s": histories / wall_u,
                   "proc.cpu_s": statistics.median(p["cpu"] for p in untraced),
                   "host.calibration_s": statistics.median(
                       [x for p in untraced + traced for x in p["cal"]] or [0.0]),
                   "trace.overhead_s": wall_t - wall_u})
    return {name: (values[name], unit) for name, unit, _ in per_layer_metrics()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sumhist" / "cli.py").is_file():
        print(f"error: {SRC / 'sumhist'} not found; run from the root of a sumhist "
              "checkout", file=sys.stderr)
        return 2
    setup = [_import_program()]
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup += [_setup_probe() for _ in range(SETUP_PROBES)]

    probe, ref = PROBES[workloads.PROBE[args.workload]] if workloads.PROBE[args.workload] \
        else (None, None)
    workdir = OUT / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        requests = workloads.build(args.workload, args.seed, workdir)
        checker = Checker(requests)
        passes, spans = [], []
        start = clock()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            rec = tracing.Recorder() if traced else None
            undo = tracing.install(rec) if traced else None
            try:
                results, errors, timing = run_pass(requests, workdir, rec, probe)
            finally:
                if undo is not None:
                    undo()
            entry = {"traced": traced, **timing}
            if traced:
                entry["layers"] = rec.summary()
                spans.append(rec.spans)
            passes.append(entry)
            checker.add(len(passes) - 1, results, errors)
            del results
            # stop when one more pass would end further past the deadline than
            # stopping now falls short of it
            elapsed = clock() - start
            if (elapsed + 0.5 * elapsed / len(passes) >= args.seconds
                    and (not args.trace or len(passes) >= 2)):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    histories = sum(r.histories for r in requests)
    if args.trace:
        metrics = per_layer(untraced, [p for p in passes if p["traced"]], histories, ref)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(setup, untraced, rss_mb, ref)

    failed = len(checker.failures)
    host = host_facts()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "setup_s": setup,
              "passes": passes,
              "requests": [r.as_json() for r in requests],
              "digests": checker.first, "outputs_sha256": checker.combined_digest(),
              "failures": checker.failures[:100], "known_defects": workloads.KNOWN_DEFECTS,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "spans": spans}
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    rec_path = OUT / "runs" / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    rec_path.write_text(json.dumps(record))

    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(untraced)} untraced) of {len(requests)} requests")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {failed / checker.attempted!r} ({failed} of {checker.attempted})")
    for f in checker.failures[:5]:
        print(f"failed pass {f['pass']} {f['rid']}: {f['reason']}")
    print(f"outputs_sha256 {checker.combined_digest()}")
    print(f"record {rec_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
