"""Run every workload on a range of seeds and report the run-to-run spread.

    python3 perfbench/spread.py [--workloads pathsum-table,checks] \
        [--seeds 1-10] [--seconds 25] [--trace 0|1] [--out FILE]

``--seeds 7`` runs each workload (all four by default) once on seed 7.

For each workload and metric it prints the median of the runs, their first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  Runs are sequential
in fresh processes from the root of the checkout.  The summary, with every
value, is written as JSON to ``--out`` (default ``.perfbench/spread.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pathsum-table", "small-requests", "checks", "continuum")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {r.returncode}: {r.stderr[-500:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / ".perfbench" / "spread.json"))
    args = ap.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            t = time.perf_counter()
            res = run_once(workload, seed, args.seconds, args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: {time.perf_counter() - t:.1f} s, "
                  f"correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[workload] = {"correct": all(r["correct"] for r in runs),
                             "failed": sum(r["failed"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs),
                             "metrics": metrics}
        unit = runs[0]["metrics"]
        for name, s in metrics.items():
            print(f"  {name} ({unit[name]['unit']}): median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']!r}", flush=True)
        failed = summary[workload]["failed"]
        print(f"  error_rate {failed / summary[workload]['attempted']!r}", flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                               "trace": args.trace, "workloads": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
