"""The package namespace: every public name resolves; importing the package
and the CLI's help load no numpy, and each command only its own modules; and
of scipy only the compiled ODEPACK module loads, and only when something is
integrated.  The package's source squares by products alone, but for one
helper, and the steady-state kernel binds no tolerance, calls no
Routh-Hurwitz test and evaluates the fold cubic only where it solves it."""

import ast
import importlib.util
import json
import os
import types
from pathlib import Path

import pytest
from conftest import python, readme_commands

import iobspectra

FRESH_PROCESS = """
import sys
import iobspectra

def no_scipy(after):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{loaded} loaded after {after}"

no_scipy("import iobspectra")
state = iobspectra.BlochState(0.1, 0.2, 0.3)
no_scipy("building a BlochState")
params = iobspectra.MediumParams(delta=3.0, zeta_lorentz=50.0)
iobspectra.bloch_rhs(state, params, iobspectra.Mechanism.LORENTZ, 8.0)
iobspectra.jacobian(state, params, iobspectra.Mechanism.LORENTZ, 8.0)
no_scipy("bloch_rhs and jacobian")
assert set(iobspectra.__all__) | {"dynamics"} <= set(dir(iobspectra))
assert iobspectra.dynamics.integrate is sys.modules["iobspectra.dynamics"].integrate
iobspectra.integrate(state, params, iobspectra.Mechanism.LORENTZ, 8.0, 5.0,
                     t_eval=[0.0, 1.0, 5.0])
iobspectra.sweep_adiabatic(params, iobspectra.Mechanism.LORENTZ, 13.0, 13.5, 1e-3)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == ["scipy.integrate._odepack"], f"{loaded} loaded after a relax and a sweep"
"""


def test_every_public_name_resolves():
    """``__all__``, core's imports in ``__init__`` and its table of lazy names,
    holds 44 distinct names.  Each resolves, and is then bound in the package,
    to an object of an iobspectra module and none to a module, so a later
    import there cannot export a foreign name."""
    names = iobspectra.__all__
    assert len(names) == len(set(names)) == 44
    for name in names:
        getattr(iobspectra, name)
        value = vars(iobspectra)[name]
        assert not isinstance(value, types.ModuleType), name
        assert value.__module__.startswith("iobspectra."), (name, value.__module__)
    namespace = {}
    exec("from iobspectra import *", namespace)
    for name in names:
        assert namespace[name] is getattr(iobspectra, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        iobspectra.no_such_name


def test_cli_run_verification_is_the_suites():
    """``cli.run_verification``, which the benchmark calls, is the verify
    module's function, and ``cli.validate_mechanism``, which its tracer
    wraps, core's, though ``cli`` imports those modules only on use."""
    from iobspectra import cli, core, verify

    assert cli.run_verification is verify.run_verification
    assert cli.validate_mechanism is core.validate_mechanism
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


LOADS = """
import gc, json, sys

def loaded():
    return {"numpy": "numpy" in sys.modules,
            "core's imports": sorted({"ctypes", "dataclasses"} & set(sys.modules)),
            "iobspectra": sorted(m for m in sys.modules if m.split(".")[0] == "iobspectra")}

args = json.loads(sys.argv[1])
report = {}
if args is None:
    import iobspectra
    report["undir"] = sorted({*iobspectra.__all__, *iobspectra._LAZY} - set(dir(iobspectra)))
else:
    from iobspectra import cli
    gc.freeze = lambda: report.setdefault("frozen", loaded())
    sys.argv[1:] = args
    try:
        cli.entry()
    except SystemExit as exc:
        report["code"] = exc.code
report["loaded"] = loaded()
print(json.dumps(report))
"""


def loads(args, cwd):
    """Run ``args`` through ``cli.entry`` in a fresh process in ``cwd``, or
    ``import iobspectra`` alone for None; what it reports."""
    proc = python("-c", LOADS, json.dumps(args), cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


CLI_MODULES = ["iobspectra", "iobspectra.cli", "iobspectra.core"]
CORE_IMPORTS = ["ctypes", "dataclasses"]


@pytest.mark.parametrize("args", [
    ["--help"],
    *([command, "--help"] for command in ("hysteresis", "spectrum", "peaks", "dynamics", "verify")),
    [],
    ["hysteresis", "--omega", "0:1:3", "--mechanism", "no-such-mechanism"],
], ids=" ".join)
def test_help_and_usage_errors_load_no_numpy(tmp_path, args):
    """The help and a usage error exit before any freeze, with no numpy.  The
    top-level help and a missing command load the package and cli alone, not
    core or what core imports; a subcommand's help and its usage errors build
    its arguments, whose choices come from core."""
    report = loads(args, tmp_path)
    top_level = args in (["--help"], [])
    assert report == {"code": 0 if "--help" in args else 2, "loaded": {
        "numpy": False,
        "core's imports": [] if top_level else CORE_IMPORTS,
        "iobspectra": ["iobspectra", "iobspectra.cli"] if top_level else CLI_MODULES}}


def test_import_iobspectra_loads_iobspectra_alone(tmp_path):
    """``import iobspectra`` loads no module of the package but itself, no
    numpy and not what core imports, and ``dir`` lists every public name
    and the lazy submodules before any of them loads."""
    report = loads(None, tmp_path)
    assert report == {"undir": [], "loaded": {"numpy": False, "core's imports": [],
                                              "iobspectra": ["iobspectra"]}}


LIBRARY_MODULES = {
    "hysteresis": ["steady_state"],
    "spectrum": ["spectrum", "steady_state"],
    "peaks": ["spectrum", "steady_state"],
    "dynamics": ["dynamics", "steady_state"],
    "verify": ["dynamics", "spectrum", "steady_state", "verify"],
}
README_LOADS = [cmd for cmd in readme_commands()
                if cmd[0] != "dynamics" or cmd[cmd.index("--mode") + 1] == "relax"]


@pytest.mark.parametrize("args", README_LOADS, ids=lambda args: args[0])
def test_each_command_loads_its_own_modules(tmp_path, args):
    """The README's closed-form commands, its relax and its verify each load
    numpy and the modules their library module imports, no other, and all of
    them before ``entry`` freezes the collector."""
    report = loads(args, tmp_path)
    modules = {"numpy": True, "core's imports": CORE_IMPORTS, "iobspectra": sorted(
        CLI_MODULES + ["iobspectra." + m for m in LIBRARY_MODULES[args[0]]])}
    assert report == {"code": 0, "frozen": modules, "loaded": modules}


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter, which must exit 0."""
    proc = python("-c", code, *args)
    assert proc.returncode == 0, proc.stderr


def test_scipy_loads_on_first_integration():
    """Importing the package, building states and evaluating the flow load no
    scipy module; a relax and a sweep load scipy's compiled ODEPACK module
    alone, not the scipy.integrate package, whose import takes about half a
    second."""
    run_fresh(FRESH_PROCESS)


NO_ODEPACK = """
import importlib.machinery, os
from iobspectra import dynamics
find_spec = importlib.machinery.PathFinder.find_spec
importlib.machinery.PathFinder.find_spec = lambda name, path=None, target=None: (
    None if name == "scipy.integrate._odepack" else find_spec(name, path, target))
try:
    dynamics.odeint
    raise AssertionError("no ImportError")
except ImportError as exc:
    message = str(exc)
assert message.startswith("scipy's ODEPACK extension scipy.integrate._odepack is not in "), message
assert message.endswith(os.path.join("scipy", "integrate")), message
"""


def test_a_missing_odepack_extension_is_an_import_error():
    """Without the compiled extension, the first integration raises an
    ImportError that names where it was looked for; there is no fallback to
    the scipy.integrate package."""
    run_fresh(NO_ODEPACK)


REPEATED_SCANS = """
import resource
import numpy as np
from iobspectra import MediumParams, Mechanism, scan_hysteresis
grid = np.linspace(0.0, 25.0, 2000)
for mech, params in ((Mechanism.LORENTZ, MediumParams(delta=3.0, zeta_lorentz=50.0)),
                     (Mechanism.DETUNING, MediumParams(delta=3.0, zeta_detuning=50.0))):
    scan_hysteresis(params, mech, grid)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        scan_hysteresis(params, mech, grid)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50, f"{mech.value}: {faults} page faults in 5 repeated scans"
"""


@pytest.mark.skipif("CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}),
                    reason="the heap setting is glibc's")
def test_repeated_scans_reuse_their_heap():
    """Importing core, as the scans do, keeps freed heap for the next call:
    with glibc's defaults, five 2000-drive scans in a fresh process faulted
    in about 600 pages again."""
    run_fresh(REPEATED_SCANS)


RESOLVE = """
import importlib, json, sys
missing = [(m, a) for m, a in json.loads(sys.argv[1])
           if not hasattr(importlib.import_module("iobspectra." + m), a)]
assert not missing, missing
"""


def test_tracer_targets_resolve():
    """The benchmark's tracer wraps each (module, attribute) of its TARGETS
    through getattr and setattr, so each must resolve on iobspectra.<module>.
    A fresh process meets the names bound on first access as a tracer does."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = sorted({(module, attr) for module, attr, _, _ in tracer.TARGETS})
    assert ("dynamics", "solve_ivp") in pairs
    run_fresh(RESOLVE, json.dumps(pairs))


def test_dynamics_solve_ivp_is_scipys():
    """Tracers wrap ``dynamics.solve_ivp`` by attribute, so it must be the
    plain scipy function, not a proxy."""
    import scipy.integrate

    assert iobspectra.dynamics.solve_ivp is scipy.integrate.solve_ivp


SCIPY_FIRST = """
import sys
import scipy.integrate
from iobspectra import dynamics
assert dynamics.odeint is sys.modules["scipy.integrate._odepack"].odeint
"""

PACKAGE_FIRST = """
import sys
from iobspectra import dynamics
odeint = dynamics.odeint
import scipy.integrate
assert odeint is sys.modules["scipy.integrate._odepack"].odeint
assert odeint is scipy.integrate._odepack_py._odepack.odeint
"""


def test_dynamics_odeint_is_scipys():
    """LSODA runs through ``dynamics.odeint``, which tracers wrap by attribute
    as they wrap ``solve_ivp``.  It is the function of scipy's one ODEPACK
    module object, whether scipy.integrate loaded that module first or the
    package did and scipy.integrate reuses it."""
    run_fresh(SCIPY_FIRST)
    run_fresh(PACKAGE_FIRST)


# the one function allowed a libm square: (module file, function name)
POW_SQUARE = ("spectrum.py", "_omega_eff_sq")


def pow_squares(source: str, allowed: str | None = None) -> list[int]:
    """Lines of ``source`` with a square by ``** 2`` (or ``**= 2``) or a
    mention of float_power, outside the function named ``allowed``.
    Docstrings are strings, not code, so they never count."""
    tree = ast.parse(source)
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == allowed for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        power = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
        exponent = getattr(node, "right", getattr(node, "value", None))
        square = power and isinstance(exponent, ast.Constant) and exponent.value == 2
        named = "float_power" in (getattr(node, "attr", None), getattr(node, "id", None))
        if square or named:
            lines.append(node.lineno)
    return sorted(lines)


def test_pow_squares_are_found():
    """The guard below finds each way the package once squared by libm pow,
    and passes over docstrings and the allowed helper."""
    source = '''
def f(x, y):
    """x ** 2 in a docstring"""
    a = x ** 2
    b = x**2.0
    y **= 2
    c = np.float_power(x, 2.0)
    power = np.float_power
    return x ** 3, x * x

def _omega_eff_sq(r):
    return np.float_power(r, 2.0)
'''
    assert pow_squares(source, "_omega_eff_sq") == [4, 5, 6, 7, 8]
    assert pow_squares(source) == [4, 5, 6, 7, 8, 12]


def test_every_square_is_a_product_but_one():
    """No module of the package squares by ``** 2`` or names float_power,
    which are libm pow where the operand is a Python float, except the one
    helper that keeps |omega_eff|^2 of the density coefficients on pow; that
    helper calls float_power once."""
    src = Path(iobspectra.__file__).parent
    found = {path.name: pow_squares(path.read_text(), POW_SQUARE[1] if path.name == POW_SQUARE[0]
                                    else None) for path in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert len(pow_squares((src / POW_SQUARE[0]).read_text())) == 1


def calls(tree: ast.AST, names: set) -> list[ast.Call]:
    """The calls under ``tree`` of a function in ``names``, bare or as an attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and names & {getattr(node.func, "id", None), getattr(node.func, "attr", None)}]


# the fold cubic is evaluated only where the kernel solves it
FOLD_CUBIC, FOLD_SOLVERS = {"_fold_cubic", "_cubic_at"}, ("_inversion_roots", "find_thresholds",
                                                          "_one_drive")


def rule_breaches(source: str) -> list[int]:
    """Lines of ``source`` that call _hurwitz, call _fold_cubic or _cubic_at
    outside FOLD_SOLVERS, or bind a module-level tolerance: a name with TOL
    in it, or a float literal (or its negation)."""
    tree = ast.parse(source)
    solving = {id(node) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name in FOLD_SOLVERS
               for node in calls(f, FOLD_CUBIC)}
    lines = [node.lineno for node in calls(tree, {"_hurwitz"})]
    lines += [node.lineno for node in calls(tree, FOLD_CUBIC) if id(node) not in solving]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value.operand if isinstance(node.value, ast.UnaryOp) else node.value
            named = any("TOL" in getattr(t, "id", "") for t in targets)
            if named or isinstance(value, ast.Constant) and isinstance(value.value, float):
                lines.append(node.lineno)
    return sorted(lines)


def test_rule_breaches_are_found():
    """The guard below finds each call of _hurwitz, each evaluation of the
    fold cubic outside the functions that solve it and each module-level
    tolerance, and passes over a function's own constants."""
    source = '''
ROOT_MERGE_TOL = 1e-8
_SPLIT_MAX = -1e-3
MARGINAL_TOL: float = 3
_EPS = float(np.finfo(float).eps)

def f(medium):
    x = 1e-9
    return _hurwitz(medium), steady_state._hurwitz(medium)

def _stability(medium, zeta, w):
    return _cubic_at(_normalized(_fold_cubic(medium, zeta)), w)

def find_thresholds(medium, zeta):
    return _cubic_at(_fold_cubic(medium, zeta), 0.5)
'''
    assert rule_breaches(source) == [2, 3, 4, 9, 9, 12, 12]


def test_solve_is_the_kernels_only_caller():
    """Every solve of the inversion cubic goes through _solve, whose one
    SolutionArrays record carries the roots' names: no other function of
    the package calls _inversion_roots."""
    callers = {f.name for path in sorted(Path(iobspectra.__file__).parent.glob("*.py"))
               for f in ast.walk(ast.parse(path.read_text()))
               if isinstance(f, ast.FunctionDef) and calls(f, {"_inversion_roots"})}
    assert callers == {"_solve"}


def test_the_kernel_has_no_tolerance_and_no_routh_hurwitz_test():
    """steady_state decides root counts and stability by the rounding bound
    of its cubics alone: it binds no module-level tolerance, calls _hurwitz,
    which dynamics keeps for its slow-manifold start, nowhere, and evaluates
    the fold cubic only where it solves it."""
    src = Path(iobspectra.__file__).parent / "steady_state.py"
    assert rule_breaches(src.read_text()) == []
