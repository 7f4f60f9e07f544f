"""Command-line front end emitting deterministic, machine-readable data.

Subcommands
    hysteresis  steady-state branches over a drive grid, with thresholds
    spectrum    incoherent emission density for one branch at one drive
    peaks       side-peak positions over a drive grid (per mechanism/branch)
    dynamics    time-domain sweeps and relaxation runs
    verify      cross-checks every closed form against its independent oracle
                (the suite lives in :mod:`iobspectra.verify`)

All numeric output is written with shortest round-trip float formatting, so
identical configurations produce byte-identical files on one machine,
whatever the CPU affinity or BLAS thread count.  Diagnostics go to stderr;
data streams stay clean.  Exit codes: 0 ok, 1 verify failure,
2 configuration error, 3 numerical failure, 4 branch absent.

Each subparser carries its handler as ``run``.  A handler checks the parsed
arguments before it computes or writes anything (a failed check is a
configuration error), and the data commands write through ``_emit``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import dynamics, spectrum, steady_state
from .core import (
    Branch,
    BranchNotPresentError,
    IntegrationError,
    MediumParams,
    Mechanism,
    NoPhysicalRootError,
    SWITCHED_OFF,
    check_drive,
    validate_mechanism,
)
from .verify import run_verification

FORMAT_VERSION = "1"
GRID_POINT_CAP = 1_000_000

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BRANCH_ABSENT = 4


# --------------------------------------------------------------------------
# argument checks
# --------------------------------------------------------------------------

def parse_grid(spec: str) -> np.ndarray:
    """Parse 'start:end:count' into a linspace grid (count capped at 1e6)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:end:count, got {spec!r}")
    try:
        start, end = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"malformed grid spec {spec!r}: {exc}") from exc
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    if count > GRID_POINT_CAP:
        raise ValueError(f"grid count {count} exceeds cap {GRID_POINT_CAP}")
    if not (math.isfinite(start) and math.isfinite(end)) or end <= start:
        raise ValueError(f"grid spec {spec!r} must have finite end > start")
    if not math.isfinite(end - start):  # linspace would overflow
        raise ValueError(f"grid spec {spec!r} spans beyond the largest float")
    return np.linspace(start, end, count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iobspectra",
        description="Steady-state bistability and emission spectra of a dense "
        "two-level medium (all frequencies in units of the decay rate).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    mechanisms = [m.value for m in Mechanism]
    branches = [b.value for b in Branch]

    def common(p: argparse.ArgumentParser, run, mechanism_choices=mechanisms):
        p.set_defaults(run=run)
        p.add_argument("--gamma", type=float, default=1.0, help="decay rate (unit scale)")
        p.add_argument("--delta", type=float, default=0.0, help="bare detuning")
        p.add_argument("--zeta-l", type=float, default=0.0, help="local-field coupling")
        p.add_argument("--zeta-m", type=float, default=0.0, help="detuning-shift coupling")
        p.add_argument("--mechanism", choices=mechanism_choices, default="lorentz",
                       help="feedback mechanism (joint is experimental)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-v", "--verbose", action="count", default=0)

    p_hyst = sub.add_parser("hysteresis", help="branch structure over a drive grid")
    common(p_hyst, _cmd_hysteresis)
    p_hyst.add_argument("--omega", required=True, help="drive grid start:end:count")

    p_spec = sub.add_parser("spectrum", help="emission spectrum on one branch")
    common(p_spec, _cmd_spectrum)
    p_spec.add_argument("--omega", required=True, type=float, help="drive strength")
    p_spec.add_argument("--branch", choices=branches, default="lower")
    p_spec.add_argument("--nu-grid", default=None, help="emission grid start:end:count")
    p_spec.add_argument(
        "--normalize", choices=("free-atom-max",), default=None,
        help="rescale densities by the saturated free-atom peak value",
    )

    p_peaks = sub.add_parser("peaks", help="side-peak positions over a drive grid")
    common(p_peaks, _cmd_peaks, mechanism_choices=[*mechanisms, "both"])
    p_peaks.add_argument("--omega", required=True, help="drive grid start:end:count")
    p_peaks.add_argument(
        "--free-atom-reference", action="store_true",
        help="append the zeta=0 reference family",
    )

    p_dyn = sub.add_parser("dynamics", help="time-domain sweeps and relaxation")
    common(p_dyn, _cmd_dynamics)
    p_dyn.add_argument("--mode", choices=("sweep-up", "sweep-down", "relax"), default="relax")
    p_dyn.add_argument(
        "--omega", required=True,
        help="sweep: range start:end:count; relax: scalar drive",
    )
    p_dyn.add_argument("--ramp-rate", type=float, default=1e-3, help="sweep ramp rate")
    p_dyn.add_argument("--t-end", type=float, default=50.0, help="relax run length")
    p_dyn.add_argument("--branch", choices=[*branches, "ground"],
                       default="ground", help="relax initial condition")
    p_dyn.add_argument("--perturb", type=float, default=0.0,
                       help="inversion offset added to the relax start state")
    p_dyn.add_argument("--samples", type=int, default=1001,
                       help="relax output times; checked in every mode, but sweeps "
                       "sample at the --omega grid points")

    p_ver = sub.add_parser("verify", help="run the oracle cross-check suite")
    common(p_ver, _cmd_verify)
    p_ver.add_argument(
        "--inject-b2-typo", action="store_true",
        help="self-test: corrupt the quartic b2 term and confirm detection",
    )

    return parser


def _medium(ns: argparse.Namespace) -> MediumParams:
    """The checked medium of the command line; the drive is set per point."""
    return MediumParams(gamma=ns.gamma, delta=ns.delta,
                        zeta_lorentz=ns.zeta_l, zeta_detuning=ns.zeta_m)


def _medium_and_mechanism(ns: argparse.Namespace) -> tuple[MediumParams, Mechanism]:
    """The checked medium and the mechanism tag, checked against its couplings."""
    params, mech = _medium(ns), Mechanism(ns.mechanism)
    validate_mechanism(params, mech)
    return params, mech


def _drive_grid(spec: str) -> np.ndarray:
    grid = parse_grid(spec)
    check_drive(grid[0], "omega grid")
    return grid


# --------------------------------------------------------------------------
# output writing
# --------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _meta_value(value) -> str:
    if isinstance(value, (dict, list, tuple)) or value is None or isinstance(value, bool):
        return json.dumps(value, allow_nan=False)
    return str(value)


# rows that the writers format and write at a time
_BLOCK_ROWS = 4096


def _csv_cells(values: list) -> list[str]:
    try:  # a slice of floats; str(x) of a float is its repr
        return list(map(float.__repr__, values))
    except TypeError:
        return list(map(_fmt_cell, values))


def write_csv(stream, meta: dict, columns: dict) -> None:
    for key, value in meta.items():
        stream.write(f"# {key}: {_meta_value(value)}\n")
    stream.write("# columns: " + ",".join(columns) + "\n")
    cols = list(columns.values())
    rows = min(map(len, cols), default=0)
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        cells = [_csv_cells(c[start:stop]) for c in cols]
        stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(stream, meta: dict, columns: dict) -> None:
    """The bytes of ``json.dump({"meta": meta, "data": columns})`` with
    ``indent=1``, ``separators=(",", ": ")`` and ``allow_nan=False``, plus a
    newline.  The columns, lists of scalars under string names, go through
    the C encoder a block of cells at a time."""
    head = json.dumps(meta, allow_nan=False, separators=(",", ": "), indent=1)
    stream.write('{\n "meta": ' + head.replace("\n", "\n ") + ',\n "data": {')
    for i, (name, values) in enumerate(columns.items()):
        stream.write((",\n  " if i else "\n  ") + json.dumps(name) + ": [")
        for start in range(0, len(values), _BLOCK_ROWS):
            block = json.dumps(values[start:start + _BLOCK_ROWS], allow_nan=False,
                               separators=(",\n   ", ": "))
            stream.write((",\n   " if start else "\n   ") + block[1:-1])
        stream.write("\n  ]" if values else "]")
    stream.write("\n }\n}\n" if columns else "}\n}\n")


def _emit(ns: argparse.Namespace, columns: dict, **meta) -> int:
    """Write ``columns`` under :func:`_base_meta` with ``meta`` added; EXIT_OK."""
    meta = _base_meta(ns, **meta)
    writer = write_csv if ns.fmt == "csv" else write_json
    if ns.out is None:
        writer(sys.stdout, meta, columns)
    else:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            writer(fh, meta, columns)
    return EXIT_OK


def _base_meta(ns: argparse.Namespace, **extra) -> dict:
    meta = {
        "format_version": FORMAT_VERSION,
        "command": ns.command,
        "gamma": ns.gamma,
        "delta": ns.delta,
        "zeta_l": ns.zeta_l,
        "zeta_m": ns.zeta_m,
        # the --omega text; spectrum parses it to a float, whose str is its repr
        "omega": str(ns.omega),
        "seed": ns.seed,
        "mechanism": ns.mechanism,
    }
    # an extra "mechanism" (peaks' list of families) keeps its place in the order
    meta.update(extra)
    digest = hashlib.sha256(
        json.dumps(meta, sort_keys=True, allow_nan=False).encode()
    ).hexdigest()
    meta["build"] = digest[:12]
    return meta


def _diag(ns: argparse.Namespace, message: str) -> None:
    if ns.verbose:
        print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _root_columns(scan: steady_state.HysteresisScan) -> dict:
    """One row per root of an array-backed scan, drive by drive, as Python
    scalars; NoPhysicalRootError if some drive has no root."""
    arr, branches = scan.points.arrays, scan.points.branches
    rootless = arr.omega[arr.count == 0]
    if rootless.size:
        raise NoPhysicalRootError(f"no inversion root in (0, 1] at {rootless.size} of "
                                  f"{arr.omega.size} drives, the first at omega={rootless[0]}")
    found = branches != ""
    w, z = arr.w[found], arr.omega_eff[found]
    return {
        "omega": np.repeat(arr.omega, arr.count).tolist(),
        "branch": branches[found].tolist(),
        "w": w.tolist(),
        "rho22": (0.5 * (1.0 - w)).tolist(),
        "stable": arr.stable[found].tolist(),
        # hypot, as Python's abs in the solution records: np.abs rounds some |z| differently
        "omega_eff_abs": np.hypot(z.real, z.imag).tolist(),
        "delta_eff": arr.delta_eff[found].tolist(),
    }


def _cmd_hysteresis(ns: argparse.Namespace) -> int:
    params, mech = _medium_and_mechanism(ns)
    grid = _drive_grid(ns.omega)
    scan = steady_state.scan_hysteresis(params, mech, grid)
    _diag(ns, f"scanned {len(scan.points)} drives, "
              f"thresholds={scan.omega_up}, {scan.omega_down}")
    return _emit(ns, _root_columns(scan), omega_up=scan.omega_up, omega_down=scan.omega_down)


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    params, mech = _medium_and_mechanism(ns)
    params = replace(params, omega=ns.omega)
    nu_grid = None if ns.nu_grid is None else parse_grid(ns.nu_grid)
    sol = steady_state.branch_solution(params, mech, Branch(ns.branch))
    _diag(ns, f"{ns.branch} branch at omega={ns.omega}: "
              f"w={sol.w:.6g}, |omega_eff|={abs(sol.omega_eff):.6g}")
    result = spectrum.spectrum_for_solution(sol, params.gamma, nu_grid)
    overflowed = [k for k, v in asdict(result.coefficients).items() if not math.isfinite(v)]
    if overflowed:  # the density would read 0 at every offset
        raise OverflowError(f"density coefficients {', '.join(overflowed)} overflow "
                            f"at |omega_eff| = {abs(sol.omega_eff)}")
    density = result.incoherent
    reference = None
    if ns.normalize == "free-atom-max":
        reference = spectrum.free_atom_saturation_max(params.gamma)
        density = density / reference
    return _emit(
        ns,
        {"nu": result.nu_grid.tolist(), "density": density.tolist()},
        branch=ns.branch,
        w=sol.w,
        rho22=sol.rho22,
        omega_eff_abs=abs(sol.omega_eff),
        delta_eff=sol.delta_eff,
        unstable=not sol.stable,
        elastic_weight=result.elastic_weight,
        peaks=list(result.peaks),
        # "gamma6" is the denominator floor b0; the key stays for
        # readers of existing files and for unchanged build ids
        coefficients={**asdict(result.coefficients), "gamma6": result.coefficients.b0},
        normalize=ns.normalize,
        normalize_reference=reference,
    )


def _cmd_peaks(ns: argparse.Namespace) -> int:
    base = _medium(ns)
    grid = _drive_grid(ns.omega)
    mechs = list(SWITCHED_OFF) if ns.mechanism == "both" else [Mechanism(ns.mechanism)]
    # a single mechanism runs with its SWITCHED_OFF coupling at 0, the free atom with every one
    families = [(m.value, m, replace(base, **{SWITCHED_OFF[m]: 0.0} if m in SWITCHED_OFF else {}))
                for m in mechs]
    if ns.free_atom_reference:
        free = replace(base, **dict.fromkeys(SWITCHED_OFF.values(), 0.0))
        families.append(("free", Mechanism.LORENTZ, free))
    cols = {k: [] for k in ("omega", "mechanism", "branch", "nu_p")}
    thresholds: dict[str, object] = {}
    for tag, mech, medium in families:
        scan = steady_state.scan_hysteresis(medium, mech, grid)
        thresholds[tag] = None if scan.omega_up is None else [scan.omega_up, scan.omega_down]
        roots = _root_columns(scan)
        with np.errstate(over="ignore"):  # b2 and b0 overflow past |omega_eff| ~ 1e77; unread
            # float_power rounds as Python's x ** 2 (libm pow); np.square differs on some values
            o2 = np.float_power(roots["omega_eff_abs"], 2.0)
            nu_p_sq = spectrum.spectrum_coefficients(o2, np.array(roots["delta_eff"]),
                                                     medium.gamma).nu_p_sq
        cols["omega"] += roots["omega"]
        cols["mechanism"] += [tag] * len(nu_p_sq)
        cols["branch"] += roots["branch"]
        cols["nu_p"] += [math.sqrt(x) if x > 0.0 else None for x in nu_p_sq.tolist()]

    return _emit(ns, cols, mechanism=",".join(m.value for m in mechs),
                 free_atom_reference=ns.free_atom_reference, thresholds=thresholds)


def _cmd_dynamics(ns: argparse.Namespace) -> int:
    params, mech = _medium_and_mechanism(ns)
    if ns.mode == "relax":
        try:
            omega = float(ns.omega)
        except ValueError as exc:
            raise ValueError("relax mode needs a scalar --omega") from exc
        params = replace(params, omega=omega)
        if not 0.0 < ns.t_end < math.inf:
            raise ValueError("t-end must be positive and finite")
    else:
        grid = _drive_grid(ns.omega)
    if ns.samples < 2 or ns.samples > GRID_POINT_CAP:
        raise ValueError("samples must lie in [2, 1e6]")

    if ns.mode == "relax":
        if ns.branch == "ground":
            u, v, w = 0.0, 0.0, 1.0
        else:
            sol = steady_state.branch_solution(params, mech, Branch(ns.branch))
            u, v, w = 2.0 * sol.rho12.real, 2.0 * sol.rho12.imag, sol.w
        state0 = dynamics.BlochState(u, v, w + ns.perturb)
        t_eval = np.linspace(0.0, ns.t_end, ns.samples)
        traj = dynamics.integrate(state0, params, mech, omega, ns.t_end, t_eval=t_eval)
        meta = dict(branch=ns.branch, perturb=ns.perturb, t_end=ns.t_end, jumps=[])
    else:
        start, end = (grid[0], grid[-1]) if ns.mode == "sweep-up" else (grid[-1], grid[0])
        result = dynamics.sweep_adiabatic(
            params, mech, float(start), float(end), ns.ramp_rate, samples=len(grid),
        )
        traj = result.trajectory
        meta = dict(ramp_rate=ns.ramp_rate, jumps=list(result.jumps))
    u, v, w = traj.uvw.T.tolist()
    cols = {"t": traj.times.tolist(), "omega": traj.omegas.tolist(), "u": u, "v": v, "w": w}
    return _emit(ns, cols, mode=ns.mode, **meta)


def _cmd_verify(ns: argparse.Namespace) -> int:
    _medium_and_mechanism(ns)  # the suite draws its own media, but the flags must agree
    results = run_verification(ns.seed, ns.inject_b2_typo)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name}: {status}  max_dev={r.max_dev:.3e}  tol={r.tol:.0e}")
    overall = all(r.passed for r in results)
    lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if ns.out is not None:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK if overall else EXIT_VERIFY_FAILED


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return ns.run(ns)
    except BranchNotPresentError as exc:
        print(f"iobspectra: {exc}", file=sys.stderr)
        return EXIT_BRANCH_ABSENT
    except (NoPhysicalRootError, IntegrationError, OverflowError) as exc:
        print(f"iobspectra: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # failed argument checks, and preconditions checked past them (bad start
        # states, ramp rates, ...), are configuration problems
        print(f"iobspectra: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"iobspectra: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    # the imports' objects live until exit: no collection, the last one at
    # shutdown included, need walk them
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
