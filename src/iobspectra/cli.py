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

Each subparser carries its handler as ``run`` and the package module that
the handler computes with as ``library``.  A handler checks the parsed
arguments before it computes (a failed check is a configuration error).  A
data command hands its numpy columns and metadata to ``_emit``, which
refuses a float that is not finite, alike in CSV and JSON, as a numerical
failure before anything is written; the writers then convert and write
one block of rows at a time.

``core``, ``dataclasses``, numpy, the library modules, ``json`` and
``hashlib`` are imported in the functions that use them, and a subparser
adds its arguments only when it parses.  So help and usage errors load no
numpy, the top-level help and a missing command no package module beyond
this one, and a command only its own library module and what that imports.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import sys

TYPE_CHECKING = False  # typing's flag, without the import
if TYPE_CHECKING:
    import numpy as np

    from . import steady_state
    from .core import Mechanism, MediumParams

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
    import numpy as np

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


class _Subparser(argparse.ArgumentParser):
    """A subcommand's parser, made with its name and help alone.  It adds
    its arguments with ``add_arguments(self)`` the first time it parses, so
    that a command line builds only the subparser it uses."""

    def __init__(self, *args, add_arguments, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iobspectra",
        description="Steady-state bistability and emission spectra of a dense "
        "two-level medium (all frequencies in units of the decay rate).",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)

    def common(p: argparse.ArgumentParser, run, library, extra_mechanisms=()):
        from .core import Mechanism

        p.set_defaults(run=run, library=library)
        p.add_argument("--gamma", type=float, default=1.0, help="decay rate (unit scale)")
        p.add_argument("--delta", type=float, default=0.0, help="bare detuning")
        p.add_argument("--zeta-l", type=float, default=0.0, help="local-field coupling")
        p.add_argument("--zeta-m", type=float, default=0.0, help="detuning-shift coupling")
        p.add_argument("--mechanism", choices=[*(m.value for m in Mechanism), *extra_mechanisms],
                       default="lorentz", help="feedback mechanism (joint is experimental)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-v", "--verbose", action="count", default=0)

    def hysteresis_arguments(p: argparse.ArgumentParser):
        common(p, _cmd_hysteresis, "steady_state")
        p.add_argument("--omega", required=True, help="drive grid start:end:count")

    def spectrum_arguments(p: argparse.ArgumentParser):
        from .core import Branch

        common(p, _cmd_spectrum, "spectrum")
        p.add_argument("--omega", required=True, type=float, help="drive strength")
        p.add_argument("--branch", choices=[b.value for b in Branch], default="lower")
        p.add_argument("--nu-grid", default=None, help="emission grid start:end:count")
        p.add_argument(
            "--normalize", choices=("free-atom-max",), default=None,
            help="rescale densities by the saturated free-atom peak value",
        )

    def peaks_arguments(p: argparse.ArgumentParser):
        common(p, _cmd_peaks, "spectrum", extra_mechanisms=["both"])
        p.add_argument("--omega", required=True, help="drive grid start:end:count")
        p.add_argument(
            "--free-atom-reference", action="store_true",
            help="append the zeta=0 reference family",
        )

    def dynamics_arguments(p: argparse.ArgumentParser):
        from .core import Branch

        common(p, _cmd_dynamics, "dynamics")
        p.add_argument("--mode", choices=("sweep-up", "sweep-down", "relax"), default="relax")
        p.add_argument(
            "--omega", required=True,
            help="sweep: range start:end:count; relax: scalar drive",
        )
        p.add_argument("--ramp-rate", type=float, default=1e-3, help="sweep ramp rate")
        p.add_argument("--t-end", type=float, default=50.0, help="relax run length")
        p.add_argument("--branch", choices=[*(b.value for b in Branch), "ground"],
                       default="ground", help="relax initial condition")
        p.add_argument("--perturb", type=float, default=0.0,
                       help="inversion offset added to the relax start state")
        p.add_argument("--samples", type=int, default=1001,
                       help="relax output times; checked in every mode, but sweeps "
                       "sample at the --omega grid points")

    def verify_arguments(p: argparse.ArgumentParser):
        common(p, _cmd_verify, "verify")
        p.add_argument(
            "--inject-b2-typo", action="store_true",
            help="self-test: corrupt the quartic b2 term and confirm detection",
        )

    for name, text, add in (
        ("hysteresis", "branch structure over a drive grid", hysteresis_arguments),
        ("spectrum", "emission spectrum on one branch", spectrum_arguments),
        ("peaks", "side-peak positions over a drive grid", peaks_arguments),
        ("dynamics", "time-domain sweeps and relaxation", dynamics_arguments),
        ("verify", "run the oracle cross-check suite", verify_arguments),
    ):
        sub.add_parser(name, help=text, add_arguments=add)
    return parser


def _medium(ns: argparse.Namespace) -> MediumParams:
    """The checked medium of the command line; the drive is set per point."""
    from .core import MediumParams

    return MediumParams(gamma=ns.gamma, delta=ns.delta,
                        zeta_lorentz=ns.zeta_l, zeta_detuning=ns.zeta_m)


def _medium_and_mechanism(ns: argparse.Namespace) -> tuple[MediumParams, Mechanism]:
    """The checked medium and the mechanism tag, checked against its couplings."""
    from .core import Mechanism, validate_mechanism

    params, mech = _medium(ns), Mechanism(ns.mechanism)
    validate_mechanism(params, mech)
    return params, mech


def _drive_grid(spec: str) -> np.ndarray:
    from .core import check_drive

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
    import json

    if isinstance(value, (dict, list, tuple)) or value is None or isinstance(value, bool):
        return json.dumps(value, allow_nan=False)
    return str(value)


# rows that the writers format and write at a time
_BLOCK_ROWS = 4096


def _rows(values, start: int) -> list:
    """The block of rows from ``start`` of a column (a numpy array or a list), as Python scalars."""
    block = values[start:start + _BLOCK_ROWS]
    return block.tolist() if hasattr(block, "tolist") else block


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
    for start in range(0, rows, _BLOCK_ROWS):  # zip ends each block at the shortest column
        cells = [_csv_cells(_rows(c, start)) for c in cols]
        stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(stream, meta: dict, columns: dict) -> None:
    """The bytes of ``json.dump({"meta": meta, "data": columns})`` with
    ``indent=1``, ``separators=(",", ": ")`` and ``allow_nan=False``, plus a
    newline; each block of cells goes through the C encoder as it is written."""
    import json

    head = json.dumps(meta, allow_nan=False, separators=(",", ": "), indent=1)
    stream.write('{\n "meta": ' + head.replace("\n", "\n ") + ',\n "data": {')
    for i, (name, values) in enumerate(columns.items()):
        stream.write((",\n  " if i else "\n  ") + json.dumps(name) + ": [")
        for start in range(0, len(values), _BLOCK_ROWS):
            block = json.dumps(_rows(values, start), allow_nan=False, separators=(",\n   ", ": "))
            stream.write((",\n   " if start else "\n   ") + block[1:-1])
        stream.write("\n  ]" if len(values) else "]")
    stream.write("\n }\n}\n" if columns else "}\n}\n")


def _non_finite_keys(value, key: str = "") -> list[str]:
    """The keys, dotted through dicts and lists, of the floats in ``value`` that are not finite."""
    if isinstance(value, (dict, list, tuple)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [k for sub, v in items for k in _non_finite_keys(v, f"{key}.{sub}".lstrip("."))]
    return [key] if isinstance(value, float) and not math.isfinite(value) else []


def _check_finite(columns: dict, meta: dict) -> None:
    """FloatingPointError, a numerical failure, naming the keys of ``meta``
    whose floats are not finite, or else the first column with such cells,
    how many, and the first of their rows by the first column."""
    import numpy as np

    keys = _non_finite_keys(meta)
    if keys:
        raise FloatingPointError("not finite: " + ", ".join(keys))
    for name, values in columns.items():
        kind = getattr(values, "dtype", np.dtype(object)).kind  # a list: cell by cell
        bad = (np.flatnonzero(~np.isfinite(values)).tolist() if kind == "f" else
               [i for i, v in enumerate(values) if isinstance(v, float) and not math.isfinite(v)]
               if kind == "O" else [])
        if bad:  # the row named by its first column's cell, whose str is a float's repr
            first, at = next(iter(columns.items()))
            raise FloatingPointError(f"{name} is not finite at {len(bad)} of {len(values)} rows, "
                                     f"the first at {first}={_fmt_cell(at[bad[0]])}")


def _emit(ns: argparse.Namespace, columns: dict, **meta) -> int:
    """Write ``columns`` (numpy arrays or lists) under :func:`_base_meta`
    with ``meta`` added; EXIT_OK.  A float that is not finite, in a column or
    in ``meta``, is refused first, alike in either format."""
    _check_finite(columns, meta)
    meta = _base_meta(ns, **meta)
    writer = write_csv if ns.fmt == "csv" else write_json
    if ns.out is None:
        writer(sys.stdout, meta, columns)
    else:
        _write_file(ns.out, lambda fh: writer(fh, meta, columns))
    return EXIT_OK


def _write_file(path: str, write) -> None:
    """``write(fh)`` to a new file beside ``path``, which then replaces
    ``path``: a write that raises leaves neither a partial file nor a changed
    one.  A target that exists but is no regular file (a pipe, a device) is
    written in place."""
    target = os.path.realpath(path)  # a symlink's file, not the link, is replaced
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        return
    head, tail = os.path.split(target)
    temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:  # "x": a new file, with the permissions that the umask gives any new file
        fh = open(temp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            write(fh)
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise


def _base_meta(ns: argparse.Namespace, **extra) -> dict:
    import hashlib
    import json

    # omega is the --omega text (spectrum parses it to a float, whose str is its
    # repr); an extra "mechanism" (peaks' list of families) keeps its place
    meta = {"format_version": FORMAT_VERSION, "command": ns.command, "gamma": ns.gamma,
            "delta": ns.delta, "zeta_l": ns.zeta_l, "zeta_m": ns.zeta_m, "omega": str(ns.omega),
            "seed": ns.seed, "mechanism": ns.mechanism, **extra}
    digest = hashlib.sha256(json.dumps(meta, sort_keys=True, allow_nan=False).encode())
    return {**meta, "build": digest.hexdigest()[:12]}


def _diag(ns: argparse.Namespace, message: str) -> None:
    if ns.verbose:
        print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _root_columns(scan: steady_state.HysteresisScan) -> dict:
    """One row per root of an array-backed scan, drive by drive, as numpy
    columns; NoPhysicalRootError if some drive has no root."""
    import numpy as np

    from .core import NoPhysicalRootError

    arr, branches = scan.points.arrays, scan.points.branches
    rootless = arr.omega[arr.count == 0]
    if rootless.size:
        raise NoPhysicalRootError(f"no inversion root in (0, 1] at {rootless.size} of "
                                  f"{arr.omega.size} drives, the first at omega={rootless[0]}")
    found = branches != ""
    w, z = arr.w[found], arr.omega_eff[found]
    return {
        "omega": np.repeat(arr.omega, arr.count),
        "branch": branches[found],
        "w": w,
        "rho22": 0.5 * (1.0 - w),
        "stable": arr.stable[found],
        # hypot, as Python's abs in the solution records: np.abs rounds some |z| differently
        "omega_eff_abs": np.hypot(z.real, z.imag),
        "delta_eff": arr.delta_eff[found],
    }


def _cmd_hysteresis(ns: argparse.Namespace) -> int:
    from . import steady_state

    params, mech = _medium_and_mechanism(ns)
    grid = _drive_grid(ns.omega)
    scan = steady_state.scan_hysteresis(params, mech, grid)
    _diag(ns, f"scanned {len(scan.points)} drives, "
              f"thresholds={scan.omega_up}, {scan.omega_down}")
    return _emit(ns, _root_columns(scan), omega_up=scan.omega_up, omega_down=scan.omega_down)


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    from dataclasses import asdict, replace

    from . import spectrum, steady_state
    from .core import Branch

    params, mech = _medium_and_mechanism(ns)
    params = replace(params, omega=ns.omega)
    nu_grid = None if ns.nu_grid is None else parse_grid(ns.nu_grid)
    sol = steady_state.branch_solution(params, mech, Branch(ns.branch))
    _diag(ns, f"{ns.branch} branch at omega={ns.omega}: "
              f"w={sol.w:.6g}, |omega_eff|={abs(sol.omega_eff):.6g}")
    result = spectrum.spectrum_for_solution(sol, params.gamma, nu_grid)
    reference = None if ns.normalize is None else spectrum.free_atom_saturation_max(params.gamma)
    density = result.incoherent if reference is None else result.incoherent / reference
    # _emit refuses b2 and b0 where they overflow (|omega_eff| from about 1e77),
    # and a density that is 0/0 where the sextic's terms underflow (the smallest scales)
    return _emit(ns, {"nu": result.nu_grid, "density": density}, branch=ns.branch, w=sol.w,
                 rho22=sol.rho22, omega_eff_abs=abs(sol.omega_eff), delta_eff=sol.delta_eff,
                 unstable=not sol.stable, elastic_weight=result.elastic_weight,
                 peaks=list(result.peaks),
                 # "gamma6" is the denominator floor b0; the key stays for
                 # readers of existing files and for unchanged build ids
                 coefficients={**asdict(result.coefficients), "gamma6": result.coefficients.b0},
                 normalize=ns.normalize, normalize_reference=reference)


def _cmd_peaks(ns: argparse.Namespace) -> int:
    from dataclasses import replace

    import numpy as np

    from . import spectrum, steady_state
    from .core import SWITCHED_OFF, Mechanism

    base = _medium(ns)
    grid = _drive_grid(ns.omega)
    mechs = list(SWITCHED_OFF) if ns.mechanism == "both" else [Mechanism(ns.mechanism)]
    # a single mechanism runs with its SWITCHED_OFF coupling at 0, the free atom with every one
    families = [(m.value, m, replace(base, **{SWITCHED_OFF[m]: 0.0} if m in SWITCHED_OFF else {}))
                for m in mechs]
    if ns.free_atom_reference:
        free = replace(base, **dict.fromkeys(SWITCHED_OFF.values(), 0.0))
        families.append(("free", Mechanism.LORENTZ, free))
    parts, thresholds = [], {}
    for tag, mech, medium in families:
        scan = steady_state.scan_hysteresis(medium, mech, grid)
        thresholds[tag] = None if scan.omega_up is None else [scan.omega_up, scan.omega_down]
        roots = _root_columns(scan)
        with np.errstate(over="ignore"):  # b2 and b0 overflow past |omega_eff| ~ 1e77; unread
            o2 = spectrum._omega_eff_sq(roots["omega_eff_abs"])  # as spectrum_for_solution
            nu_p_sq = spectrum.spectrum_coefficients(o2, roots["delta_eff"], medium.gamma).nu_p_sq
        nu_p, peaked = np.full(nu_p_sq.size, None), nu_p_sq > 0.0  # None: no side peaks
        nu_p[peaked] = np.sqrt(nu_p_sq[peaked])
        parts.append({"omega": roots["omega"], "mechanism": np.full(nu_p.size, tag),
                      "branch": roots["branch"], "nu_p": nu_p})

    cols = {k: np.concatenate([part[k] for part in parts]) for k in parts[0]}
    return _emit(ns, cols, mechanism=",".join(m.value for m in mechs),
                 free_atom_reference=ns.free_atom_reference, thresholds=thresholds)


def _cmd_dynamics(ns: argparse.Namespace) -> int:
    from dataclasses import replace

    import numpy as np

    from . import dynamics, steady_state
    from .core import Branch

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
        result = dynamics.sweep_adiabatic(params, mech, float(start), float(end), ns.ramp_rate,
                                          samples=len(grid))
        traj = result.trajectory
        meta = dict(ramp_rate=ns.ramp_rate, jumps=list(result.jumps))
    u, v, w = traj.uvw.T
    cols = {"t": traj.times, "omega": traj.omegas, "u": u, "v": v, "w": w}
    return _emit(ns, cols, mode=ns.mode, **meta)


def _cmd_verify(ns: argparse.Namespace) -> int:
    from . import verify

    _medium_and_mechanism(ns)  # the suite draws its own media, but the flags must agree
    results = verify.run_verification(ns.seed, ns.inject_b2_typo)
    overall = all(r.passed for r in results)
    lines = [f"{r.name}: {'PASS' if r.passed else 'FAIL'}  max_dev={r.max_dev:.3e}  tol={r.tol:.0e}"
             for r in results]
    text = "\n".join([*lines, f"overall: {'PASS' if overall else 'FAIL'}"]) + "\n"
    sys.stdout.write(text)
    if ns.out is not None:
        _write_file(ns.out, lambda fh: fh.write(text))
    return EXIT_OK if overall else EXIT_VERIFY_FAILED


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _run(ns)


def _run(ns: argparse.Namespace) -> int:
    """Run the parsed command line ``ns``; its exit code."""
    from .core import BranchNotPresentError, IntegrationError, NoPhysicalRootError

    try:
        return ns.run(ns)
    except BranchNotPresentError as exc:
        print(f"iobspectra: {exc}", file=sys.stderr)
        return EXIT_BRANCH_ABSENT
    except (NoPhysicalRootError, IntegrationError, OverflowError, FloatingPointError) as exc:
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
    ns = build_parser().parse_args()
    # the command's imports' objects live until exit: frozen once they are
    # loaded, no collection, the last one at shutdown included, need walk them
    importlib.import_module(f"{__package__}.{ns.library}")
    gc.freeze()
    sys.exit(_run(ns))


def __getattr__(name):
    # callers reach the verification suite as cli.run_verification and the
    # mechanism check as cli.validate_mechanism; each module loads on that
    # first access
    module = {"run_verification": "verify", "validate_mechanism": "core"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)


if __name__ == "__main__":
    entry()
