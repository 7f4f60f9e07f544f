"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, parse_output  # noqa: E402

PROG = run.load_program(ROOT)


def _equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    w = WORKLOADS[name]
    first = [w.make_input(7, i) for i in range(w.pass_ops)]
    again = [w.make_input(7, i) for i in range(w.pass_ops)]
    other = [w.make_input(8, i) for i in range(w.pass_ops)]
    assert all(_equal(a, b) for a, b in zip(first, again))
    assert not all(_equal(a, b) for a, b in zip(first, other))


def test_oracle_folds_match_the_readme_medium():
    up, down = oracles.folds(1.0, 3.0, 50.0)
    assert abs(up - 15.6741308) < 1e-6 and abs(down - 1.3939697) < 1e-6
    assert oracles.folds(1.0, 3.0, 3.0) is None


# ------------------------------------------------------- checks catch errors

def _scan_case(i):
    w = WORKLOADS["scan"]
    inp = w.make_input(3, i)
    return w, inp, w.run(PROG, inp)


def test_scan_check_flags_a_perturbed_root():
    w, inp, (th, scan) = _scan_case(0)  # wide window, full range
    assert w.check(inp, (th, scan)) == []
    k = len(scan.points) // 3
    point = scan.points[k]
    bad = [replace(s, w=s.w + 1e-5) for s in point.solutions]
    points = list(scan.points)
    points[k] = point._replace(solutions=bad)
    fails = w.check(inp, (th, replace(scan, points=points)))
    assert any("wrong roots" in f.reason and f.defect is None for f in fails)


def test_scan_check_flags_a_shifted_fold():
    w, inp, (th, scan) = _scan_case(0)
    fails = w.check(inp, ((th[0] + 1e-4, th[1]), scan))
    assert [f.defect for f in fails] == [None]
    fails = w.check(inp, (th, replace(scan, omega_down=scan.omega_down - 1e-4)))
    assert [f.defect for f in fails] == [None]


def test_scan_check_flags_a_wrong_label():
    w, inp, (th, scan) = _scan_case(0)
    k = len(scan.points) - 1  # above the window: a lone upper-branch root
    points = list(scan.points)
    points[k] = points[k]._replace(
        solutions=[replace(s, branch=PROG.Branch.LOWER) for s in points[k].solutions])
    fails = w.check(inp, (th, replace(scan, points=points)))
    assert any("labels" in f.reason and f.defect is None for f in fails)


def test_scan_known_defects_are_tagged_not_hidden():
    w = WORKLOADS["scan"]
    # the README's 17:25 range above the window of delta=3, zeta=50
    inp = {"kind": "partial", "mech": "lorentz", "delta": 3.0, "zl": 50.0, "zm": 0.0,
           "grid": np.linspace(17.0, 25.0, 2000)}
    fails = w.check(inp, w.run(PROG, inp))
    assert [f.defect for f in fails] == ["range-label"]
    # ROADMAP's cusp example: window [0.198965, 0.202561] missed by the grid
    inp = {"kind": "cusp", "mech": "lorentz", "delta": 3.0, "zl": 4.0744, "zm": 0.0,
           "grid": np.linspace(0.0, 0.4, 2000)}
    fails = w.check(inp, w.run(PROG, inp))
    assert [f.defect for f in fails] == ["cusp-miss"]


def test_spectra_check_flags_b2_typo_density():
    w = WORKLOADS["spectra"]
    inp = w.make_input(5, 0)
    sol, spec, oracle, ratio = w.run(PROG, inp)
    assert w.check(inp, (sol, spec, oracle, ratio)) == []
    c = spec.coefficients
    o2, d2 = abs(sol.omega_eff) ** 2, sol.delta_eff ** 2
    # the quartic drive term of b2 dropped to quadratic, as verify --inject-b2-typo does
    bad_b2 = 16.0 * o2 + 2.0 * o2 * (4.0 * d2 + 1.0) + d2 * d2 - 1.5 * d2 + 0.5625
    bad = PROG.spectrum.incoherent_spectrum(inp["nu"], replace(c, b2=bad_b2), sol.rho22, 1.0)
    fails = w.check(inp, (sol, replace(spec, incoherent=bad), oracle, ratio))
    assert any("oracle" in f.reason for f in fails)
    assert any("sum rule" in f.reason for f in w.check(inp, (sol, spec, oracle, ratio * 1.001)))
    shifted = replace(spec, peaks=[p * 1.001 for p in spec.peaks])
    assert any("peaks" in f.reason for f in w.check(inp, (sol, shifted, oracle, ratio)))


class _Sweep:
    def __init__(self, jumps):
        self.jumps = jumps


def test_sweep_check_flags_bad_jumps_and_warnings():
    w = WORKLOADS["sweep"]
    inp = w.make_input(1, 0)  # up-sweep
    up, _ = oracles.folds(1.0, inp["delta"], inp["zl"] + inp["zm"])
    assert w.check(inp, (_Sweep([up + 0.02]), [])) == []
    assert w.check(inp, (_Sweep([up - 0.01]), []))         # before the fold
    assert w.check(inp, (_Sweep([up + 0.2]), []))          # too late
    assert w.check(inp, (_Sweep([up + 0.02, up + 0.05]), []))
    assert w.check(inp, (_Sweep([]), []))
    assert w.check(inp, (_Sweep([up + 0.02]), ["NonAdiabaticWarning"]))


def test_cli_check_flags_failures_and_mismatches():
    w = WORKLOADS["cli"]
    inp = w.make_input(2, 0)  # spectrum, csv
    expected = w.reference(PROG, inp)
    code, out, err = w.run(PROG, inp)
    assert w.check(inp, (code, out, err), expected) == []
    assert w.check(inp, (3, out, err), expected)
    meta, _ = parse_output(out, "csv")
    tampered = out.replace(repr(meta["w"]), repr(meta["w"] * (1 + 1e-12)), 1)
    assert w.check(inp, (0, tampered, err), expected)
    ver = next(w.make_input(2, i) for i in range(w.pass_ops) if w.make_input(2, i)["command"] == "verify")
    lines = w.reference(PROG, ver)
    ok = "\n".join(lines) + "\n"
    assert w.check(ver, (0, ok, ""), lines) == []
    failed = ok.replace("overall: PASS", "overall: FAIL")
    assert w.check(ver, (1, failed, ""), lines)
    assert w.check(ver, (0, failed, ""), lines)


def test_injected_b2_typo_fails_verify():
    proc = subprocess.run([sys.executable, "-m", "iobspectra", "verify", "--inject-b2-typo"],
                          cwd=ROOT, env=PROG.env, capture_output=True, text=True, timeout=120)
    w = WORKLOADS["cli"]
    ver = {"command": "verify", "fmt": "csv"}
    assert w.check(ver, (proc.returncode, proc.stdout, proc.stderr), ["overall: PASS"])


# ------------------------------------------------ loop and calibration clock

class _Counting:
    """A workload whose operations take no time and whose input 1 always fails."""

    name = "fake"
    pass_ops = 3

    def make_input(self, seed, i):
        return {"i": i, "seed": seed}

    def run(self, prog, inp):
        return inp["i"]

    def check(self, inp, out):
        return [run.Failure("odd one out")] if out == 1 else []


def test_loop_runs_whole_passes_and_counts_distinct_failures():
    loop = run.Loop(PROG, _Counting(), seed=4)
    loop.run_for(0.05)
    assert len(loop.timed) % 3 == 0 and len(loop.timed) >= 3
    assert [j for j, _ in loop.timed[:3]] == [0, 1, 2]
    report = run.failure_report([loop])
    assert (report["attempted"], report["failed"]) == (3, 1)
    assert len(loop.latencies()) == 3


def test_clock_factor_uses_the_nearest_calibrations():
    clock = calibration.Clock()
    ref = calibration.REFERENCE_S
    clock.positions = [0, 1, 2, 3, 10, 11, 12, 13]
    clock.seconds = [ref] * 4 + [2 * ref] * 4
    assert clock.factor(0) == 1.0       # only fast calibrations around it
    assert clock.factor(12) == 0.5      # only slow calibrations around it
    assert clock.factor(5) == pytest.approx(1 / 1.5)  # three fast before, three slow after
    assert calibration.time_kernel() > 0.0


# --------------------------------------------------------- output contract

def test_printed_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for trace, names in ((0, e2e), (1, layer)):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "spectra",
             "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == names
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        assert result["correct"] is True and result["failed"] == 0


def test_refuses_a_checkout_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
