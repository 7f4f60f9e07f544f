"""Benchmark entry point: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload {scan,spectra,sweep,cli} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout.  The program measured is the checkout's own
``src/iobspectra``, never an installed copy.  With ``--trace 0`` the run
measures set-up in fresh interpreters, then runs the workload's fixed list
of operations in a closed loop, in whole passes, for about S seconds, and
reports the end-to-end metrics.  With ``--trace 1`` it runs S/2 seconds
untraced and S/2 seconds with every public layer wrapped, and reports the
per-layer metrics and the tracing overhead.

End-to-end times are reported at reference host speed (calibration.py):
each one is scaled by how much slower than the reference a fixed kernel,
timed between operations, ran at that moment.  The details line also
holds the times as measured and the host speed.

Every operation's output is checked on every pass; see workloads.py.
``attempted`` counts the run's distinct operations, and ``failed`` those
that failed on any pass, so both depend on the seed alone.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the details (the
environment, failures by cause, the full per-layer table), which are also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import tracer as tracing
from calibration import Clock
from workloads import WORKLOADS, Failure, Program

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# op_p90_ms goes into the details only when at least ten samples lie beyond
# it; in a default run only spectra holds that many operations.
P90_MIN_OPS = 100

# Per-layer metrics reported in the last line of a traced run: the counts,
# and the times of layers that every workload calls.  Times of layers only
# some workloads call (find_thresholds, spectrum, dynamics, cli) are in the
# full table of the details line, where a workload that never calls a layer
# reports zero.
PER_LAYER = {
    "steady_state.find_thresholds.calls": "count",
    "steady_state.find_thresholds.solves_per_call": "count",
    "steady_state.solve_inversion.calls": "count",
    "steady_state.solve_inversion.three_root_frac": "1",
    "steady_state.solve_inversion.self_ms": "ms",
    "steady_state.solutions_at.self_ms": "ms",
    "steady_state.effective_params.calls": "count",
    "steady_state.coherence.calls": "count",
    "core.validate_mechanism.calls": "count",
    "spectrum.oracle_spectrum.points": "count",
    "spectrum.incoherent_spectrum.points": "count",
    "dynamics.solve_ivp.nfev": "count",
    "dynamics.solve_ivp.njev": "count",
    "dynamics.solve_ivp.nlu": "count",
    "dynamics.solve_ivp.failed": "count",
    "cli.bytes_out": "B",
    "trace.op_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_frac": "1",
}


def unit_of(key: str, units: dict) -> str:
    if key in units:
        return units[key]
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("us_per_point"):
        return "us"
    return "1" if key.endswith("_frac") else "count"


def pin_to_one_cpu() -> int:
    """Run this process, and the processes it starts, on one CPU.

    On the 2-vCPU machine the benchmark was tuned on, the speeds of the two
    vCPUs drift independently: for seconds at a time one ran the calibration
    kernel up to 1.6x faster than the other.  The kernel only measures the
    speed of the CPU it runs on, so the operations must run there too.  The
    highest-numbered CPU is chosen because CPU 0 tends to carry the system's
    own interrupt work.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_program(root: str) -> Program:
    """Import iobspectra from ``root/src`` and refuse any other copy."""
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "iobspectra", "__init__.py")):
        raise SystemExit(f"perfbench: no iobspectra package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import iobspectra
    from iobspectra import cli, core, dynamics, spectrum, steady_state

    if not os.path.realpath(iobspectra.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: iobspectra resolved to {iobspectra.__file__}, not under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    modules = {
        "iobspectra": iobspectra, "core": core, "steady_state": steady_state,
        "spectrum": spectrum, "dynamics": dynamics, "cli": cli,
        "MediumParams": iobspectra.MediumParams, "Mechanism": iobspectra.Mechanism,
        "Branch": iobspectra.Branch,
    }
    return Program(root=root, modules=modules, env=env)


def environment(prog: Program, seed: int) -> dict:
    import scipy

    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=prog.root,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(prog.root):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "seed": seed,
        "iobspectra_file": prog.iobspectra.__file__,
        "platform": platform.platform(),
    }


def measure_setup(prog: Program, name: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh interpreter to end of warm-up, SETUP_REPEATS times.

    Returns the times at reference host speed and as measured.
    """
    times = []
    clock = Clock()
    for r in range(SETUP_REPEATS):
        clock.calibrate(r)
        start = time.monotonic()
        if name == "cli":
            proc = subprocess.run([sys.executable, "-m", "iobspectra", "--help"], cwd=prog.root,
                                  env=prog.env, capture_output=True, text=True, timeout=120)
            end = time.monotonic()
        else:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), name,
                                   str(seed)], cwd=prog.root, env=prog.env,
                                  capture_output=True, text=True, timeout=120)
            end = float(proc.stdout.split()[-1]) if proc.returncode == 0 else 0.0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up run failed: {proc.stderr.strip()[-500:]}")
        times.append(end - start)
    clock.calibrate(SETUP_REPEATS)
    return [t * clock.factor(r) for r, t in enumerate(times)], times


class Loop:
    """Closed loop with one client over a fixed list of a workload's inputs.

    The run's operations are the first ``workload.pass_ops`` inputs of the
    seed.  The loop runs whole passes over them until its time is up, so
    which operations run, and which of them fail, depends on the seed alone.
    Every operation is checked on every pass.  Each latency is converted to
    reference host speed with the calibration clock (calibration.py), and an
    operation's latency is the median over its passes.
    """

    def __init__(self, prog: Program, workload, seed: int):
        self.prog = prog
        self.workload = workload
        self.inputs = [workload.make_input(seed, i) for i in range(workload.pass_ops)]
        self.references: dict = {}
        self.failures: list[list[Failure]] = [[] for _ in self.inputs]
        self.clock = Clock()
        self.timed: list[tuple[int, float]] = []   # (input index, seconds) in run order
        self.bytes_out = 0

    def one(self, j: int) -> None:
        w, prog = self.workload, self.prog
        inp = self.inputs[j]
        expected = None
        if w.name == "cli":
            expected = self.references.get(inp["index"])
            if expected is None:
                try:
                    expected = w.reference(prog, inp)
                except Exception:  # the library itself failed on these inputs
                    expected = Failure("library reference raised: "
                                       + traceback.format_exc(limit=1).strip().splitlines()[-1])
                self.references[inp["index"]] = expected
        tr = prog.tracer
        self.clock.before(len(self.timed))
        if tr is not None:
            tr.op = len(self.timed)
            span = tr.begin(tracing.OP)
        t0 = time.perf_counter()
        try:
            out = w.run(prog, inp)
            error = None
        except Exception:  # an operation that raises counts as failed
            out, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        self.clock.after(elapsed)
        if tr is not None:
            tr.end(span)
            if prog.child_trace is not None and os.path.exists(prog.child_trace):
                with open(prog.child_trace, encoding="utf-8") as fh:
                    tr.merge(json.load(fh), span)
                os.remove(prog.child_trace)
        if error is not None:
            fails = [Failure(f"raised: {error.strip().splitlines()[-1]}")]
        elif w.name == "cli":
            fails = w.check(inp, out, expected)
            self.bytes_out += len(out[1].encode())
        else:
            fails = w.check(inp, out)
        self.timed.append((j, elapsed))
        if fails and not self.failures[j]:
            self.failures[j] = fails

    def run_for(self, seconds: float) -> None:
        """Whole passes, stopping at the pass boundary nearest ``seconds``."""
        start = time.monotonic()
        passes = 0
        while True:
            for j in range(len(self.inputs)):
                self.one(j)
            passes += 1
            spent = time.monotonic() - start
            if spent + 0.5 * spent / passes >= seconds:
                break
        self.clock.calibrate(len(self.timed))

    def latencies(self) -> list[float]:
        """Per operation: median latency over its passes, at reference speed."""
        samples: list[list[float]] = [[] for _ in self.inputs]
        for pos, (j, elapsed) in enumerate(self.timed):
            samples[j].append(elapsed * self.clock.factor(pos))
        return [statistics.median(s) for s in samples]

    def ops_per_s(self) -> float:
        lat = self.latencies()
        return len(lat) / sum(lat)

    def raw_ops_per_s(self) -> float:
        return len(self.timed) / sum(e for _, e in self.timed)


def failure_report(loops) -> dict:
    """Failures per distinct operation; one that fails on any pass counts once."""
    attempted = len(loops[0].inputs)
    by_cause: dict[str, int] = {}
    examples: list[str] = []
    failed = unexplained = 0
    for per_input in zip(*(lp.failures for lp in loops)):
        fails = next((f for f in per_input if f), [])
        if not fails:
            continue
        failed += 1
        causes = sorted({f.defect or "unexplained" for f in fails})
        unexplained += "unexplained" in causes
        for c in causes:
            by_cause[c] = by_cause.get(c, 0) + 1
        if len(examples) < 5:
            examples.extend(f"{f.defect or 'unexplained'}: {f.reason}" for f in fails[:2])
    return {"attempted": attempted, "failed": failed, "unexplained": unexplained,
            "failed_frac": failed / attempted, "failed_by_cause": by_cause,
            "examples": examples}


def end_to_end(loop: Loop, setup: list[float], cli: bool) -> dict:
    lat_ms = np.array(loop.latencies()) * 1e3
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": loop.ops_per_s(),
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if lat_ms.size >= P90_MIN_OPS:
        metrics["op_p90_ms"] = float(np.percentile(lat_ms, 90))
    return metrics


def per_layer(prog: Program, traced: Loop, plain: Loop) -> dict:
    n = len(traced.timed)
    summary = prog.tracer.summary(n)
    table = {}
    for name, entry in summary.items():
        for key, value in entry.items():
            table[f"{name}.{key}"] = value
    table["cli.import_ms"] = summary.get(tracing.CLI_IMPORT, {}).get("total_ms", 0.0)
    table["cli.bytes_out"] = traced.bytes_out / n
    op = summary[tracing.OP]
    table["trace.op_ms"] = op["total_ms"]
    table["trace.unattributed_ms"] = op["self_ms"]
    table["trace.self_sum_ms"] = sum(e["self_ms"] for e in summary.values())
    table["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / plain.ops_per_s()
    table["trace.ops"] = n
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    prog = load_program(root)
    workload = WORKLOADS[args.workload]
    is_cli = workload.name == "cli"
    env = environment(prog, args.seed)
    env["pinned_cpu"] = pin_to_one_cpu()
    os.makedirs(OUT_DIR, exist_ok=True)

    setup, setup_raw = ([], []) if args.trace else measure_setup(prog, workload.name, args.seed)
    plain = Loop(prog, workload, args.seed)
    # untimed warm-up: lazy imports, page cache, allocator pools
    Loop(prog, workload, args.seed).one(0)

    loops = [plain]
    if args.trace == 0:
        plain.run_for(args.seconds)
        metrics = end_to_end(plain, setup, is_cli)
        units = END_TO_END
    else:
        plain.run_for(args.seconds / 2)
        prog.tracer = tracing.Tracer()
        if is_cli:
            prog.child_trace = os.path.join(OUT_DIR, f"child-trace-{os.getpid()}.json")
        else:
            prog.tracer.install(prog.modules)
        traced = Loop(prog, workload, args.seed)
        traced.references = plain.references
        try:
            traced.run_for(args.seconds / 2)
        finally:
            prog.tracer.uninstall()
        loops.append(traced)
        metrics = per_layer(prog, traced, plain)
        units = PER_LAYER
        prog.tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}.json"))

    failures = failure_report(loops)
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "ops": len(plain.timed),
        "passes": len(plain.timed) // len(plain.inputs),
        "host_speed": plain.clock.speed(), "raw_ops_per_s": plain.raw_ops_per_s(),
        "setup_s_samples": setup, "setup_s_raw_samples": setup_raw, **failures,
        "metrics": {k: {"value": v, "unit": unit_of(k, units)} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"{workload.name}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for key, unit in units.items():
        print(f"{workload.name:8s} {key:48s} {metrics[key]:.6g} {unit}")
    print(f"{workload.name:8s} {'failed_frac':48s} {failures['failed_frac']:.6g} 1  "
          f"(by cause: {failures['failed_by_cause']})")
    print(json.dumps({"detail": detail}))
    result = {
        # Failures matching a defect documented at the seed commit are counted
        # in ``failed``; any other wrong answer makes the run incorrect.
        "correct": failures["unexplained"] == 0,
        "attempted": failures["attempted"],
        "failed": failures["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
