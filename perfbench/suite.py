"""Run every workload plain and traced, and print one table.

Usage: python3 perfbench/suite.py [--seed N] [--seconds S]

Run from the root of a checkout.  This covers every workload in
workloads.py.  Each workload runs once with ``--trace 0``
(end-to-end metrics) and once with ``--trace 1`` (per-layer metrics and
tracing overhead).  Every metric is printed by name with its unit, per
workload, followed by ``failed_frac`` and the known defect behind each
failure.  All results, with the environment, go to
``perfbench/out/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    results = {}
    for wl in WORKLOADS:
        plain = run_one(wl, args.seed, args.seconds, 0)
        traced = run_one(wl, args.seed, args.seconds, 1)
        results[wl] = {"end_to_end": plain, "per_layer": traced}
        d = plain["detail"]
        print(f"== {wl}: {d['attempted']} operations x {d['passes']} passes, seed {args.seed}, "
              f"correct={plain['result']['correct']}")
        for name, m in plain["result"]["metrics"].items():
            print(f"   {name:44s} {m['value']:12.6g} {m['unit']}")
        if "op_p90_ms" in d["metrics"]:
            print(f"   {'op_p90_ms':44s} {d['metrics']['op_p90_ms']['value']:12.6g} ms")
        print(f"   {'failed_frac':44s} {d['failed_frac']:12.6g} 1   "
              f"{d['failed']}/{d['attempted']} by cause {d['failed_by_cause']}")
        t = traced["detail"]["metrics"]
        print(f"   {'trace.overhead_frac':44s} {t['trace.overhead_frac']['value']:12.6g} 1")
        print(f"   {'trace.op_ms':44s} {t['trace.op_ms']['value']:12.6g} ms   "
              f"= sum of self_ms {t['trace.self_sum_ms']['value']:.6g} ms")
        layers = sorted(
            ((k, m) for k, m in t.items() if k.endswith(".self_ms") and m["value"] > 0.0),
            key=lambda km: -km[1]["value"],
        )
        for name, m in layers:
            print(f"     {name:42s} {m['value']:12.6g} ms/op")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "results.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
