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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectrum, steady_state
from .core import (
    Branch,
    BranchNotPresentError,
    IntegrationError,
    MechanismError,
    MediumParams,
    Mechanism,
    NoPhysicalRootError,
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
# configuration
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
    return np.linspace(start, end, count)


@dataclass
class RunConfig:
    """Validated run configuration; every field is in gamma units."""

    command: str
    params: MediumParams
    mechanism: Mechanism = Mechanism.LORENTZ
    mechanisms: list[Mechanism] = field(default_factory=list)  # peaks only
    omega_spec: str = ""
    omega_scalar: float | None = None
    omega_grid: np.ndarray | None = None
    branch: Branch = Branch.LOWER
    nu_grid: np.ndarray | None = None
    fmt: str = "csv"
    out: str | None = None
    normalize: str | None = None
    seed: int = 0
    verbosity: int = 0
    mode: str = "relax"
    relax_start: str = "ground"
    ramp_rate: float = 1e-3
    t_end: float = 50.0
    perturb: float = 0.0
    samples: int = 1001
    free_atom_reference: bool = False
    inject_b2_typo: bool = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iobspectra",
        description="Steady-state bistability and emission spectra of a dense "
        "two-level medium (all frequencies in units of the decay rate).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, mechanism_choices=("lorentz", "detuning", "joint")):
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
    common(p_hyst)
    p_hyst.add_argument("--omega", required=True, help="drive grid start:end:count")

    p_spec = sub.add_parser("spectrum", help="emission spectrum on one branch")
    common(p_spec)
    p_spec.add_argument("--omega", required=True, type=float, help="drive strength")
    p_spec.add_argument("--branch", choices=("lower", "middle", "upper"), default="lower")
    p_spec.add_argument("--nu-grid", default=None, help="emission grid start:end:count")
    p_spec.add_argument(
        "--normalize", choices=("free-atom-max",), default=None,
        help="rescale densities by the saturated free-atom peak value",
    )

    p_peaks = sub.add_parser("peaks", help="side-peak positions over a drive grid")
    common(p_peaks, mechanism_choices=("lorentz", "detuning", "joint", "both"))
    p_peaks.add_argument("--omega", required=True, help="drive grid start:end:count")
    p_peaks.add_argument(
        "--free-atom-reference", action="store_true",
        help="append the zeta=0 reference family",
    )

    p_dyn = sub.add_parser("dynamics", help="time-domain sweeps and relaxation")
    common(p_dyn)
    p_dyn.add_argument("--mode", choices=("sweep-up", "sweep-down", "relax"), default="relax")
    p_dyn.add_argument(
        "--omega", required=True,
        help="sweep: range start:end:count; relax: scalar drive",
    )
    p_dyn.add_argument("--ramp-rate", type=float, default=1e-3, help="sweep ramp rate")
    p_dyn.add_argument("--t-end", type=float, default=50.0, help="relax run length")
    p_dyn.add_argument("--branch", choices=("lower", "middle", "upper", "ground"),
                       default="ground", help="relax initial condition")
    p_dyn.add_argument("--perturb", type=float, default=0.0,
                       help="inversion offset added to the relax start state")
    p_dyn.add_argument("--samples", type=int, default=1001)

    p_ver = sub.add_parser("verify", help="run the oracle cross-check suite")
    common(p_ver)
    p_ver.add_argument(
        "--inject-b2-typo", action="store_true",
        help="self-test: corrupt the quartic b2 term and confirm detection",
    )

    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    params = MediumParams(
        gamma=ns.gamma,
        delta=ns.delta,
        omega=0.0,
        zeta_lorentz=ns.zeta_l,
        zeta_detuning=ns.zeta_m,
    )
    cfg = RunConfig(
        command=ns.command,
        params=params,
        fmt=ns.fmt,
        out=ns.out,
        seed=ns.seed,
        verbosity=ns.verbose,
    )

    if ns.command == "peaks":
        tags = ["lorentz", "detuning"] if ns.mechanism == "both" else [ns.mechanism]
        cfg.mechanisms = [Mechanism(t) for t in tags]
        cfg.free_atom_reference = ns.free_atom_reference
    else:
        cfg.mechanism = Mechanism(ns.mechanism)
        validate_mechanism(params, cfg.mechanism)

    if ns.command in ("hysteresis", "peaks"):
        cfg.omega_spec = ns.omega
        cfg.omega_grid = parse_grid(ns.omega)
        if cfg.omega_grid[0] < 0.0:
            raise ValueError("omega grid must be nonnegative")
    elif ns.command == "spectrum":
        cfg.omega_spec = repr(float(ns.omega))
        cfg.omega_scalar = float(ns.omega)
        if cfg.omega_scalar < 0.0:
            raise ValueError("omega must be nonnegative")
        cfg.branch = Branch(ns.branch)
        cfg.normalize = ns.normalize
        if ns.nu_grid is not None:
            cfg.nu_grid = parse_grid(ns.nu_grid)
    elif ns.command == "dynamics":
        cfg.mode = ns.mode
        cfg.ramp_rate = ns.ramp_rate
        cfg.t_end = ns.t_end
        cfg.perturb = ns.perturb
        cfg.samples = ns.samples
        cfg.omega_spec = ns.omega
        if ns.mode == "relax":
            try:
                cfg.omega_scalar = float(ns.omega)
            except ValueError as exc:
                raise ValueError("relax mode needs a scalar --omega") from exc
            if cfg.omega_scalar < 0.0:
                raise ValueError("omega must be nonnegative")
            cfg.relax_start = ns.branch
            if ns.branch != "ground":
                cfg.branch = Branch(ns.branch)
            if not ns.t_end > 0.0:
                raise ValueError("t-end must be positive")
        else:
            cfg.omega_grid = parse_grid(ns.omega)
            if cfg.omega_grid[0] < 0.0:
                raise ValueError("omega grid must be nonnegative")
        if ns.samples < 2 or ns.samples > GRID_POINT_CAP:
            raise ValueError("samples must lie in [2, 1e6]")
    elif ns.command == "verify":
        cfg.inject_b2_typo = ns.inject_b2_typo

    return cfg


# --------------------------------------------------------------------------
# output writing
# --------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _meta_value(value) -> str:
    if isinstance(value, (dict, list, tuple)) or value is None or isinstance(value, bool):
        return json.dumps(value, allow_nan=False)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(stream, meta: dict, columns: dict) -> None:
    for key, value in meta.items():
        stream.write(f"# {key}: {_meta_value(value)}\n")
    names = list(columns)
    stream.write("# columns: " + ",".join(names) + "\n")
    for row in zip(*(columns[n] for n in names)):
        stream.write(",".join(_fmt_cell(v) for v in row) + "\n")


def write_json(stream, meta: dict, columns: dict) -> None:
    payload = {"meta": meta, "data": columns}
    json.dump(payload, stream, allow_nan=False, separators=(",", ": "), indent=1)
    stream.write("\n")


def _emit(cfg: RunConfig, meta: dict, columns: dict) -> None:
    writer = write_csv if cfg.fmt == "csv" else write_json
    if cfg.out is None:
        writer(sys.stdout, meta, columns)
        return
    with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
        writer(fh, meta, columns)


def _base_meta(cfg: RunConfig, **extra) -> dict:
    meta = {
        "format_version": FORMAT_VERSION,
        "command": cfg.command,
        "gamma": cfg.params.gamma,
        "delta": cfg.params.delta,
        "zeta_l": cfg.params.zeta_lorentz,
        "zeta_m": cfg.params.zeta_detuning,
        "omega": cfg.omega_spec,
        "seed": cfg.seed,
    }
    if cfg.command == "peaks":
        meta["mechanism"] = ",".join(m.value for m in cfg.mechanisms)
        meta["free_atom_reference"] = cfg.free_atom_reference
    else:
        meta["mechanism"] = cfg.mechanism.value
    meta.update(extra)
    digest = hashlib.sha256(
        json.dumps(meta, sort_keys=True, allow_nan=False).encode()
    ).hexdigest()
    meta["build"] = digest[:12]
    return meta


def _diag(cfg: RunConfig, message: str) -> None:
    if cfg.verbosity:
        print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _root_columns(scan: steady_state.HysteresisScan) -> dict:
    """One row per root of an array-backed scan, drive by drive, as Python scalars."""
    arr, branches = scan.points.arrays, scan.points.branches
    found = branches != ""
    w = arr.w[found]
    return {
        "omega": np.repeat(arr.omega, arr.count).tolist(),
        "branch": branches[found].tolist(),
        "w": w.tolist(),
        "rho22": (0.5 * (1.0 - w)).tolist(),
        "stable": arr.stable[found].tolist(),
        # Python's abs, as in the solution records: np.abs rounds some |z| differently
        "omega_eff_abs": [abs(z) for z in arr.omega_eff[found].tolist()],
        "delta_eff": arr.delta_eff[found].tolist(),
    }


def _cmd_hysteresis(cfg: RunConfig) -> int:
    scan = steady_state.scan_hysteresis(cfg.params, cfg.mechanism, cfg.omega_grid)
    _diag(cfg, f"scanned {len(scan.points)} drives, "
               f"thresholds={scan.omega_up}, {scan.omega_down}")
    meta = _base_meta(cfg, omega_up=scan.omega_up, omega_down=scan.omega_down)
    _emit(cfg, meta, _root_columns(scan))
    return EXIT_OK


def _cmd_spectrum(cfg: RunConfig) -> int:
    sol = steady_state.branch_solution(
        cfg.params, cfg.mechanism, cfg.branch, omega=cfg.omega_scalar
    )
    _diag(cfg, f"{cfg.branch.value} branch at omega={cfg.omega_scalar}: "
               f"w={sol.w:.6g}, |omega_eff|={abs(sol.omega_eff):.6g}")
    result = spectrum.spectrum_for_solution(sol, cfg.params.gamma, cfg.nu_grid)
    density = result.incoherent
    reference = None
    if cfg.normalize == "free-atom-max":
        reference = spectrum.free_atom_saturation_max(cfg.params.gamma)
        density = density / reference
    c = result.coefficients
    meta = _base_meta(
        cfg,
        branch=cfg.branch.value,
        w=sol.w,
        rho22=sol.rho22,
        omega_eff_abs=abs(sol.omega_eff),
        delta_eff=sol.delta_eff,
        unstable=not sol.stable,
        elastic_weight=result.elastic_weight,
        peaks=list(result.peaks),
        coefficients={
            "a": c.a, "a0": c.a0, "b4": c.b4, "b2": c.b2, "b0": c.b0,
            # "gamma6" is the denominator floor b0; the key stays for
            # readers of existing files and for unchanged build ids
            "nu_p_sq": c.nu_p_sq, "gamma6": c.b0,
        },
        normalize=cfg.normalize,
        normalize_reference=reference,
    )
    cols = {"nu": result.nu_grid.tolist(), "density": density.tolist()}
    _emit(cfg, meta, cols)
    return EXIT_OK


def _cmd_peaks(cfg: RunConfig) -> int:
    cols = {k: [] for k in ("omega", "mechanism", "branch", "nu_p")}
    thresholds_meta: dict[str, object] = {}

    def add_family(tag: str, params: MediumParams, mech: Mechanism) -> None:
        scan = steady_state.scan_hysteresis(params, mech, cfg.omega_grid)
        thresholds_meta[tag] = (
            None if scan.omega_up is None else [scan.omega_up, scan.omega_down]
        )
        roots = _root_columns(scan)
        # nu_p_sq of spectrum_coefficients for every root, with its |omega_eff| ** 2
        # in Python: numpy's square rounds some values differently
        o2 = np.array([x ** 2 for x in roots["omega_eff_abs"]])
        d = np.array(roots["delta_eff"])
        nu_p_sq = 4.0 * o2 + d * d - 0.75 * (params.gamma * params.gamma)
        cols["omega"] += roots["omega"]
        cols["mechanism"] += [tag] * len(nu_p_sq)
        cols["branch"] += roots["branch"]
        cols["nu_p"] += [math.sqrt(x) if x > 0.0 else None for x in nu_p_sq.tolist()]

    # each mechanism uses its own coupling; the other one is switched off
    for mech in cfg.mechanisms:
        if mech is Mechanism.LORENTZ:
            p = replace(cfg.params, zeta_detuning=0.0)
        elif mech is Mechanism.DETUNING:
            p = replace(cfg.params, zeta_lorentz=0.0)
        else:
            p = cfg.params
        add_family(mech.value, p, mech)
    if cfg.free_atom_reference:
        free = replace(cfg.params, zeta_lorentz=0.0, zeta_detuning=0.0)
        add_family("free", free, Mechanism.LORENTZ)

    meta = _base_meta(cfg, thresholds=thresholds_meta)
    _emit(cfg, meta, cols)
    return EXIT_OK


def _cmd_dynamics(cfg: RunConfig) -> int:
    from . import dynamics

    if cfg.mode in ("sweep-up", "sweep-down"):
        grid = cfg.omega_grid
        start, end = (grid[0], grid[-1]) if cfg.mode == "sweep-up" else (grid[-1], grid[0])
        result = dynamics.sweep_adiabatic(
            cfg.params, cfg.mechanism, float(start), float(end), cfg.ramp_rate,
            samples=len(grid),
        )
        traj, jumps = result.trajectory, result.jumps
        meta = _base_meta(cfg, mode=cfg.mode, ramp_rate=cfg.ramp_rate,
                          jumps=list(jumps))
    else:
        params = replace(cfg.params, omega=cfg.omega_scalar)
        if cfg.relax_start == "ground":
            state0 = dynamics.BlochState(0.0, 0.0, 1.0)
        else:
            sol = steady_state.branch_solution(params, cfg.mechanism, cfg.branch)
            state0 = dynamics.fixed_point_state(params, cfg.mechanism, sol.w)
        if cfg.perturb:
            state0 = dynamics.BlochState(state0.u, state0.v, state0.w + cfg.perturb)
        t_eval = np.linspace(0.0, cfg.t_end, cfg.samples)
        traj = dynamics.integrate(
            state0, params, cfg.mechanism, cfg.omega_scalar, cfg.t_end, t_eval=t_eval
        )
        meta = _base_meta(cfg, mode=cfg.mode, branch=cfg.relax_start,
                          perturb=cfg.perturb, t_end=cfg.t_end, jumps=[])
    u, v, w = traj.uvw.T.tolist()
    cols = {"t": traj.times.tolist(), "omega": traj.omegas.tolist(), "u": u, "v": v, "w": w}
    _emit(cfg, meta, cols)
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    results = run_verification(cfg.seed, cfg.inject_b2_typo)
    stream = sys.stdout
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name}: {status}  max_dev={r.max_dev:.3e}  tol={r.tol:.0e}")
    overall = all(r.passed for r in results)
    lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    stream.write(text)
    if cfg.out is not None:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK if overall else EXIT_VERIFY_FAILED


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

_DISPATCH = {
    "hysteresis": _cmd_hysteresis,
    "spectrum": _cmd_spectrum,
    "peaks": _cmd_peaks,
    "dynamics": _cmd_dynamics,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = _config_from(ns)
    except (ValueError, MechanismError) as exc:
        print(f"iobspectra: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _DISPATCH[cfg.command](cfg)
    except BranchNotPresentError as exc:
        print(f"iobspectra: {exc}", file=sys.stderr)
        return EXIT_BRANCH_ABSENT
    except (NoPhysicalRootError, IntegrationError, np.linalg.LinAlgError) as exc:
        print(f"iobspectra: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # precondition violations surfacing past config parsing (bad start
        # states, tolerance ranges, ...) are configuration problems
        print(f"iobspectra: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"iobspectra: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
