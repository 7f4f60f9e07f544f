"""The four workloads: seeded inputs, the timed operation, and its checks.

Every workload is a closed loop with one client.  Inputs come from
``make_input(seed, i)`` alone, cycling through a fixed mix of input kinds so
that every run sees the same proportions whatever the seed; the seed only
draws the parameters inside each kind.  ``run`` is the timed operation and
touches only the program.  ``check`` returns the ways the output is wrong,
judged against :mod:`oracles` (or, for the CLI, against the in-process
library result computed outside the timed region).

A failure carries a defect tag when it matches one of the two defects known
at the seed commit (ROADMAP item 2):

* ``cusp-miss``: ``find_thresholds`` samples drives on a 512-point grid and
  reports no window when the true bistable window is narrower than that
  grid's spacing.
* ``range-label``: ``scan_hysteresis`` locates folds only inside its own drive
  range, so a range that starts above the window labels the upper branch
  ``lower``.

Tagged failures still count as failed operations; any untagged failure is an
unexplained wrong answer.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass

import numpy as np

import oracles

GAMMA = 1.0
CLI_RUNNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_runner.py")
CUSP_MISS = "cusp-miss"
RANGE_LABEL = "range-label"
THRESHOLD_GRID = 512      # find_thresholds' sampling grid
THRESHOLD_TOL = 2e-6      # program's bisection tolerance (1e-6) with margin
ROOT_TOL = 1e-7
CLOSED_VS_ORACLE_TOL = 1e-10
SUM_RULE_TOL = 1e-9
PEAK_TOL = 1e-9


@dataclass
class Failure:
    reason: str
    defect: str | None = None


@dataclass
class Program:
    """Handles on the program under test, shared by every workload."""

    root: str
    modules: dict
    env: dict
    tracer: object | None = None
    # set in a traced CLI run: CLI operations go through cli_runner.py,
    # which writes the child's spans here
    child_trace: str | None = None

    def __getattr__(self, name):
        try:
            return self.modules[name]
        except KeyError:
            raise AttributeError(name) from None


def _rng(seed: int, i: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, i, salt])


def _couplings(mech: str, zeta: float, rng) -> tuple[float, float]:
    if mech == "lorentz":
        return zeta, 0.0
    if mech == "detuning":
        return 0.0, zeta
    share = rng.uniform(0.3, 0.7)
    return share * zeta, (1.0 - share) * zeta


def _params(prog: Program, inp: dict):
    return prog.MediumParams(gamma=GAMMA, delta=inp["delta"],
                             zeta_lorentz=inp["zl"], zeta_detuning=inp["zm"])


def _summarise(fails: list[Failure], kind: str, count: int, defect: str | None, example: str):
    if count:
        fails.append(Failure(f"{count} {kind} (first: {example})", defect))


# ---------------------------------------------------------------------- scan

class Scan:
    """find_thresholds then scan_hysteresis over a ~2000-point drive grid."""

    name = "scan"
    # Wide windows, near-cusp windows, monostable media and partial ranges
    # (2 of 7).  The kinds cost, cheapest first: cusp ~ mono < partial above
    # < partial inside < wide, so an odd cycle puts the median latency inside
    # one kind rather than on the edge between two.
    kinds = ("wide", "cusp", "wide", "mono", "partial", "wide", "partial")
    mechs = ("lorentz", "detuning", "joint")
    pass_ops = 21         # every kind under every mechanism

    def make_input(self, seed: int, i: int) -> dict:
        rng = _rng(seed, i, 1)
        kind = self.kinds[i % len(self.kinds)]
        mech = self.mechs[(i // len(self.kinds)) % len(self.mechs)]
        if kind == "cusp":
            delta = rng.uniform(1.0, 4.0)
            zeta = oracles.zeta_for_width(GAMMA, delta, rng.uniform(0.001, 0.004))
        elif kind == "mono":
            delta = rng.uniform(1.0, 4.0)
            zeta = oracles.cusp_zeta(GAMMA, delta) * rng.uniform(0.5, 0.9)
        else:
            delta, zeta = rng.uniform(2.5, 3.5), rng.uniform(40.0, 55.0)
        zl, zm = _couplings(mech, zeta, rng)
        exact = oracles.folds(GAMMA, delta, zeta)
        if kind == "mono":
            lo, hi = 0.0, rng.uniform(10.0, 15.0)
        elif kind == "cusp":
            lo, hi = 0.0, 2.0 * exact[0]
        elif kind == "wide":
            lo, hi = 0.0, 1.5 * exact[0]
        elif i % len(self.kinds) == 4:  # partial range starting inside the window
            up, down = exact
            lo, hi = down + rng.uniform(0.3, 0.4) * (up - down), 1.5 * up
        else:  # partial range starting above the window, like the README's 17:25
            lo = exact[0] * rng.uniform(1.05, 1.15)
            hi = lo + 0.5 * exact[0]
        return {"kind": kind, "mech": mech, "delta": delta, "zl": zl, "zm": zm,
                "grid": np.linspace(lo, hi, 2000)}

    def run(self, prog: Program, inp: dict):
        params = _params(prog, inp)
        mech = prog.Mechanism(inp["mech"])
        thresholds = prog.steady_state.find_thresholds(params, mech)
        return thresholds, prog.steady_state.scan_hysteresis(params, mech, inp["grid"])

    def check(self, inp: dict, out) -> list[Failure]:
        thresholds, scan = out
        zeta = inp["zl"] + inp["zm"]
        grid = inp["grid"]
        exact = oracles.folds(GAMMA, inp["delta"], zeta)
        fails: list[Failure] = []

        if exact is None:
            if thresholds is not None:
                fails.append(Failure(f"thresholds {thresholds} for a monostable medium"))
        elif thresholds is None:
            spacing = (1.25 * zeta + GAMMA) / (THRESHOLD_GRID - 1)
            fails.append(Failure(
                f"find_thresholds found no window; exact {exact}",
                CUSP_MISS if exact[0] - exact[1] < spacing else None,
            ))
        elif max(abs(thresholds[0] - exact[0]), abs(thresholds[1] - exact[1])) > THRESHOLD_TOL:
            fails.append(Failure(f"find_thresholds {thresholds} != exact {exact}"))

        if len(scan.points) != grid.size:
            return fails + [Failure(f"{len(scan.points)} scan points for {grid.size} drives")]

        span = grid[-1] - grid[0]
        margin = span / (THRESHOLD_GRID - 1)
        if exact is not None and grid[0] + margin < exact[1] and exact[0] < grid[-1] - margin:
            got = (scan.omega_up, scan.omega_down)
            if None in got or max(abs(got[0] - exact[0]), abs(got[1] - exact[1])) > THRESHOLD_TOL:
                fails.append(Failure(f"scan thresholds {got} != exact {exact}"))

        label_defect = None
        if exact is not None and scan.omega_up is None:
            if grid[0] >= exact[0]:
                label_defect = RANGE_LABEL
            elif exact[0] - exact[1] < margin:
                label_defect = CUSP_MISS

        refs = oracles.inversion_roots(GAMMA, inp["delta"], zeta, grid)
        n_count = n_value = n_label = 0
        ex_count = ex_value = ex_label = ""
        for om, point, ref in zip(grid, scan.points, refs):
            if oracles.near_fold(om, exact, GAMMA):
                continue
            ws = [s.w for s in point.solutions]
            if len(ws) != len(ref):
                n_count += 1
                ex_count = ex_count or f"omega={om}: {len(ws)} roots, expected {len(ref)}"
                continue
            if np.max(np.abs(np.asarray(ws) - ref)) > ROOT_TOL:
                n_value += 1
                ex_value = ex_value or f"omega={om}: w={ws}, expected {list(ref)}"
            labels = [s.branch.value for s in point.solutions]
            expected = (["lower", "middle", "upper"] if len(ref) == 3
                        else [oracles.expected_single_label(om, exact)])
            if labels != expected:
                n_label += 1
                ex_label = ex_label or f"omega={om}: {labels}, expected {expected}"
        _summarise(fails, "drives with a wrong root count", n_count, None, ex_count)
        _summarise(fails, "drives with wrong roots", n_value, None, ex_value)
        _summarise(fails, "drives with wrong branch labels", n_label, label_defect, ex_label)
        return fails


# ------------------------------------------------------------------- spectra

class Spectra:
    """Branch solution, closed-form and 3x3-oracle spectra, and the sum rule."""

    name = "spectra"
    # (drive placement, branch); a third are single-root drives beyond a fold
    kinds = (("window", "lower"), ("window", "middle"), ("beyond", "upper"),
             ("window", "upper"), ("window", "lower"), ("beyond", "lower"))
    mechs = ("lorentz", "detuning")
    pass_ops = 120
    nu_points = 20001

    def make_input(self, seed: int, i: int) -> dict:
        rng = _rng(seed, i, 2)
        where, branch = self.kinds[i % len(self.kinds)]
        mech = self.mechs[(i // len(self.kinds)) % len(self.mechs)]
        delta, zeta = rng.uniform(2.5, 3.5), rng.uniform(35.0, 50.0)
        zl, zm = _couplings(mech, zeta, rng)
        up, down = oracles.folds(GAMMA, delta, zeta)
        if where == "window":
            omega = down + rng.uniform(0.15, 0.85) * (up - down)
        elif branch == "upper":
            omega = up * rng.uniform(1.05, 1.4)
        else:
            omega = down * rng.uniform(0.3, 0.9)
        w_ref = self.reference_root(delta, zeta, omega, branch)
        nu_p = oracles.side_peak(*oracles.effective_sq(GAMMA, delta, zl, zm, omega, w_ref), GAMMA)
        half = 2.0 * (nu_p or 0.0) + 10.0 * GAMMA
        return {"mech": mech, "delta": delta, "zl": zl, "zm": zm, "omega": omega,
                "branch": branch, "nu": np.linspace(-half, half, self.nu_points)}

    @staticmethod
    def reference_root(delta, zeta, omega, branch) -> float:
        ref = oracles.inversion_roots(GAMMA, delta, zeta, [omega])[0]
        return ref[0] if ref.size == 1 else ref[("lower", "middle", "upper").index(branch)]

    def run(self, prog: Program, inp: dict):
        ss, sp = prog.steady_state, prog.spectrum
        params = _params(prog, inp)
        sol = ss.branch_solution(params, prog.Mechanism(inp["mech"]),
                                 prog.Branch(inp["branch"]), omega=inp["omega"])
        spec = sp.spectrum_for_solution(sol, GAMMA, inp["nu"])
        rho = ss.stationary_state(sol.omega_eff, sol.delta_eff, GAMMA)
        oracle = sp.oracle_spectrum(inp["nu"], sol.omega_eff, sol.delta_eff, GAMMA, rho)
        ratio = sp.sum_rule_ratio(spec, sol.rho22, sol.rho12)
        return sol, spec, oracle, ratio

    def check(self, inp: dict, out) -> list[Failure]:
        sol, spec, oracle, ratio = out
        fails: list[Failure] = []
        w_ref = self.reference_root(inp["delta"], inp["zl"] + inp["zm"], inp["omega"], inp["branch"])
        if abs(sol.rho22 - 0.5 * (1.0 - w_ref)) > 1e-9:
            fails.append(Failure(f"rho22 {sol.rho22} != {(1.0 - w_ref) / 2} from the companion root"))
        # Both references lose digits when almost all emission is elastic:
        # the 3x3 source term and the sum-rule denominator are the difference
        # rho22 - |rho12|^2 of two nearly equal numbers.  Their tolerances
        # scale with that cancellation (1 at strong drive, ~1e3 far below
        # the lower fold).
        cancel = max(1.0, sol.rho22 / (sol.rho22 - abs(sol.rho12) ** 2))
        closed = spec.incoherent
        rel = np.abs(closed - oracle) / np.maximum(np.abs(closed), np.abs(oracle))
        if not rel.max() <= CLOSED_VS_ORACLE_TOL * cancel:
            fails.append(Failure(f"closed form vs 3x3 oracle: max rel dev {rel.max():.3e}"
                                 f" (cancellation {cancel:.3g})"))
        if not abs(ratio - math.pi) <= SUM_RULE_TOL * cancel * math.pi:
            fails.append(Failure(f"sum rule {ratio!r} != pi (cancellation {cancel:.3g})"))
        o2, d_bar = oracles.effective_sq(GAMMA, inp["delta"], inp["zl"], inp["zm"], inp["omega"], w_ref)
        nu_p = oracles.side_peak(o2, d_bar, GAMMA)
        expected = [0.0] if nu_p is None else [-nu_p, 0.0, nu_p]
        got = sorted(spec.peaks)
        if len(got) != len(expected) or any(
            abs(g - e) > PEAK_TOL * max(1.0, abs(e)) for g, e in zip(got, expected)
        ):
            fails.append(Failure(f"peaks {got} != {expected}"))
        return fails


# --------------------------------------------------------------------- sweep

class Sweep:
    """One adiabatic drive ramp at 1e-3 gamma^2 across one fold."""

    name = "sweep"
    # Down-sweeps cost about 1.35x up-sweeps.  Three up-sweeps in a cycle of
    # five put the median latency inside the up-sweeps rather than on the
    # edge between the two.
    kinds = (("lorentz", "up"), ("lorentz", "down"), ("detuning", "up"), ("detuning", "down"),
             ("joint", "up"))
    pass_ops = 20
    ramp_rate = 1e-3
    half_span = 0.3      # gamma either side of the fold
    spacing = 0.005      # README sample spacing, in gamma
    jump_window = 0.1    # a jump must lie within this of the exact fold

    def make_input(self, seed: int, i: int) -> dict:
        rng = _rng(seed, i, 3)
        mech, direction = self.kinds[i % len(self.kinds)]
        delta, zeta = rng.uniform(2.4, 2.6), rng.uniform(11.5, 12.5)
        zl, zm = _couplings(mech, zeta, rng)
        up, down = oracles.folds(GAMMA, delta, zeta)
        fold = up if direction == "up" else down
        sign = 1.0 if direction == "up" else -1.0
        start, end = fold - sign * self.half_span, fold + sign * self.half_span
        samples = int(round(2 * self.half_span / self.spacing)) + 1
        return {"mech": mech, "direction": direction, "delta": delta, "zl": zl, "zm": zm,
                "start": start, "end": end, "samples": samples}

    def run(self, prog: Program, inp: dict):
        params = _params(prog, inp)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = prog.dynamics.sweep_adiabatic(
                params, prog.Mechanism(inp["mech"]), inp["start"], inp["end"],
                self.ramp_rate, samples=inp["samples"],
            )
        return result, [w.category.__name__ for w in caught]

    def check(self, inp: dict, out) -> list[Failure]:
        result, categories = out
        fails: list[Failure] = []
        if "NonAdiabaticWarning" in categories:
            fails.append(Failure("NonAdiabaticWarning raised"))
        up, down = oracles.folds(GAMMA, inp["delta"], inp["zl"] + inp["zm"])
        if inp["direction"] == "up":
            lo, hi = up, up + self.jump_window
        else:
            lo, hi = down - self.jump_window, down
        jumps = [float(j) for j in result.jumps]
        if len(jumps) != 1 or not lo <= jumps[0] <= hi:
            fails.append(Failure(f"jumps {jumps}, expected one in [{lo}, {hi}]"))
        return fails


# ----------------------------------------------------------------------- cli

def parse_output(text: str, fmt: str) -> tuple[dict, dict]:
    """(meta, columns) from a CSV or JSON document written by the CLI."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["meta"], doc["data"]
    meta, names, rows = {}, [], []
    for line in text.splitlines():
        if line.startswith("# columns: "):
            names = line[len("# columns: "):].split(",")
        elif line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            meta[key] = _parse_cell(value, meta_value=True)
        elif line:
            rows.append([_parse_cell(c) for c in line.split(",")])
    return meta, {n: [r[k] for r in rows] for k, n in enumerate(names)}


def _parse_cell(text: str, meta_value: bool = False):
    if text in ("none", "null"):
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        pass
    if meta_value:
        try:
            return json.loads(text)
        except ValueError:
            pass
    return text


def _plain(values) -> list:
    out = []
    for v in values:
        if isinstance(v, (bool, np.bool_)):
            out.append(bool(v))
        elif v is None or isinstance(v, str):
            out.append(v)
        else:
            out.append(float(v))
    return out


class Cli:
    """One ``python -m iobspectra`` subprocess per operation."""

    name = "cli"
    kinds = (("spectrum", "csv"), ("hysteresis", "json"), ("peaks", "csv"),
             ("dynamics", "json"), ("verify", "csv"), ("spectrum", "json"),
             ("hysteresis", "csv"), ("peaks", "json"), ("dynamics", "csv"),
             ("verify", "json"))
    # Instances repeat every this many operations, so that reference results
    # are computed once per instance, outside the timed region.
    pool = 20
    pass_ops = pool

    def make_input(self, seed: int, i: int) -> dict:
        i %= self.pool
        rng = _rng(seed, i, 4)
        command, fmt = self.kinds[i % len(self.kinds)]
        second = (i // len(self.kinds)) % 2 == 1
        delta, zeta = rng.uniform(2.5, 3.5), rng.uniform(40.0, 50.0)
        up, down = oracles.folds(GAMMA, delta, zeta)
        inp = {"index": i, "command": command, "fmt": fmt, "delta": delta, "zeta": zeta,
               "omega": down + rng.uniform(0.15, 0.85) * (up - down),
               "top": round(1.5 * up, 3), "branch": ("lower", "upper")[second],
               "relax_from_branch": second, "seed": int(rng.integers(0, 1000))}
        medium = ["--delta", repr(delta), "--zeta-l", repr(zeta)]
        if command == "spectrum":
            args = ["spectrum", *medium, "--omega", repr(inp["omega"]), "--branch", inp["branch"]]
        elif command == "hysteresis":
            args = ["hysteresis", *medium, "--omega", f"0:{inp['top']!r}:2000"]
        elif command == "peaks":
            args = ["peaks", *medium, "--zeta-m", repr(zeta), "--mechanism", "both",
                    "--free-atom-reference", "--omega", f"0.05:{inp['top']!r}:500"]
        elif command == "dynamics":
            args = ["dynamics", "--mode", "relax", *medium, "--omega", repr(inp["omega"]),
                    "--t-end", "50"]
            if second:
                args += ["--branch", "upper", "--perturb", "0.001"]
        else:
            args = ["verify", "--seed", str(inp["seed"])]
        inp["args"] = args + ["--format", fmt]
        return inp

    def run(self, prog: Program, inp: dict):
        if prog.child_trace is None:
            cmd = [sys.executable, "-m", "iobspectra", *inp["args"]]
        else:
            cmd = [sys.executable, CLI_RUNNER, prog.child_trace, *inp["args"]]
        proc = subprocess.run(cmd, cwd=prog.root, env=prog.env, capture_output=True,
                              text=True, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr

    def reference(self, prog: Program, inp: dict):
        """The library result for the same inputs, in the form the CLI prints it."""
        ss, sp, dy = prog.steady_state, prog.spectrum, prog.dynamics
        lorentz = prog.Mechanism.LORENTZ
        medium = prog.MediumParams(gamma=GAMMA, delta=inp["delta"], zeta_lorentz=inp["zeta"])
        cmd = inp["command"]
        if cmd == "verify":
            results = prog.cli.run_verification(inp["seed"])
            return [f"{r.name}: {'PASS' if r.passed else 'FAIL'}  "
                    f"max_dev={r.max_dev:.3e}  tol={r.tol:.0e}" for r in results] + ["overall: PASS"]
        if cmd == "spectrum":
            sol = ss.branch_solution(medium, lorentz, prog.Branch(inp["branch"]), omega=inp["omega"])
            res = sp.spectrum_for_solution(sol, GAMMA)
            meta = {"w": sol.w, "rho22": sol.rho22, "elastic_weight": res.elastic_weight,
                    "peaks": _plain(res.peaks)}
            return meta, {"nu": _plain(res.nu_grid), "density": _plain(res.incoherent)}
        if cmd == "hysteresis":
            scan = ss.scan_hysteresis(medium, lorentz, np.linspace(0.0, inp["top"], 2000))
            cols = {k: [] for k in ("omega", "branch", "w", "rho22", "stable",
                                    "omega_eff_abs", "delta_eff")}
            for point in scan.points:
                for s in point.solutions:
                    for k, v in (("omega", point.omega), ("branch", s.branch.value), ("w", s.w),
                                 ("rho22", s.rho22), ("stable", s.stable),
                                 ("omega_eff_abs", abs(s.omega_eff)), ("delta_eff", s.delta_eff)):
                        cols[k].append(v)
            meta = {"omega_up": scan.omega_up, "omega_down": scan.omega_down}
            return ({k: None if v is None else float(v) for k, v in meta.items()},
                    {k: _plain(v) for k, v in cols.items()})
        if cmd == "peaks":
            cols = {"omega": [], "mechanism": [], "branch": [], "nu_p": []}
            grid = np.linspace(0.05, inp["top"], 500)
            families = (("lorentz", inp["zeta"], 0.0), ("detuning", 0.0, inp["zeta"]),
                        ("free", 0.0, 0.0))
            for tag, zl, zm in families:
                p = prog.MediumParams(gamma=GAMMA, delta=inp["delta"],
                                      zeta_lorentz=zl, zeta_detuning=zm)
                mech = prog.Mechanism("detuning" if tag == "detuning" else "lorentz")
                for point in ss.scan_hysteresis(p, mech, grid).points:
                    for s in point.solutions:
                        c = sp.spectrum_coefficients(abs(s.omega_eff) ** 2, s.delta_eff, GAMMA)
                        cols["omega"].append(point.omega)
                        cols["mechanism"].append(tag)
                        cols["branch"].append(s.branch.value)
                        cols["nu_p"].append(math.sqrt(c.nu_p_sq) if c.nu_p_sq > 0.0 else None)
            return {}, {k: _plain(v) for k, v in cols.items()}
        params = prog.MediumParams(gamma=GAMMA, delta=inp["delta"], omega=inp["omega"],
                                   zeta_lorentz=inp["zeta"])
        if inp["relax_from_branch"]:
            sol = ss.branch_solution(params, lorentz, prog.Branch.UPPER)
            fp = dy.fixed_point_state(params, lorentz, sol.w)
            state0 = dy.BlochState(fp.u, fp.v, fp.w + 0.001)
        else:
            state0 = dy.BlochState(0.0, 0.0, 1.0)
        traj = dy.integrate(state0, params, lorentz, inp["omega"], 50.0,
                            t_eval=np.linspace(0.0, 50.0, 1001))
        arr = traj.state_array()
        return {}, {"t": _plain(traj.times), "u": _plain(arr[:, 0]), "v": _plain(arr[:, 1]),
                    "w": _plain(arr[:, 2])}

    def check(self, inp: dict, out, expected) -> list[Failure]:
        code, stdout, stderr = out
        if isinstance(expected, Failure):
            return [expected]
        if code != 0:
            return [Failure(f"exit code {code}: {stderr.strip()[-200:]}")]
        if inp["command"] == "verify":
            lines = stdout.splitlines()
            if "overall: PASS" not in lines:
                return [Failure("verify did not print 'overall: PASS'")]
            if lines != expected:
                return [Failure(f"verify printed {lines}, library gives {expected}")]
            return []
        try:
            meta, cols = parse_output(stdout, inp["fmt"])
        except (ValueError, KeyError) as exc:
            return [Failure(f"unparsable {inp['fmt']} output: {exc}")]
        exp_meta, exp_cols = expected
        fails = []
        for key, value in exp_meta.items():
            if meta.get(key) != value:
                fails.append(Failure(f"meta {key}: {meta.get(key)!r} != library {value!r}"))
        for key, values in exp_cols.items():
            if cols.get(key) != values:
                fails.append(Failure(f"column {key} differs from the library result"))
        return fails


WORKLOADS = {w.name: w for w in (Scan(), Spectra(), Sweep(), Cli())}
