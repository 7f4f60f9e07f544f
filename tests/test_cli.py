import json
import math
import warnings

import numpy as np
import pytest
from conftest import console_script, python, readme_commands

import iobspectra
from iobspectra.cli import build_parser, main, parse_grid, run_verification


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    meta, names, rows = {}, [], []
    for line in path.read_text().splitlines():
        if line.startswith("# columns:"):
            names = line.split(":", 1)[1].strip().split(",")
        elif line.startswith("# "):
            key, value = line[2:].split(":", 1)
            meta[key.strip()] = value.strip()
        else:
            rows.append(line.split(","))
    columns = {n: [row[i] for row in rows] for i, n in enumerate(names)}
    return meta, columns


# ------------------------------------------------------------------ grid parse

def test_parse_grid():
    grid = parse_grid("0:25:6")
    assert grid == pytest.approx([0.0, 5.0, 10.0, 15.0, 20.0, 25.0])


@pytest.mark.parametrize("bad", ["0:25", "a:b:c", "0:25:1", "5:5:10", "0:25:2000001",
                                 "-1e308:1e308:3"])
def test_parse_grid_rejects(bad):
    with pytest.raises(ValueError):
        parse_grid(bad)


# ------------------------------------------------------------------ hysteresis

def test_hysteresis_csv(tmp_path, capsys):
    out = tmp_path / "hyst.csv"
    code, _, _ = run(
        capsys, "hysteresis", "--delta", "3", "--zeta-l", "50",
        "--mechanism", "lorentz", "--omega", "0:25:201", "--out", str(out),
    )
    assert code == 0
    meta, cols = read_csv(out)
    assert meta["format_version"] == "1"
    assert meta["mechanism"] == "lorentz"
    assert float(meta["omega_up"]) == pytest.approx(15.674131, abs=1e-4)
    assert float(meta["omega_down"]) == pytest.approx(1.393970, abs=1e-4)
    branches = set(cols["branch"])
    assert branches == {"lower", "middle", "upper"}
    stable = {b for b, s in zip(cols["branch"], cols["stable"]) if s == "true"}
    unstable = {b for b, s in zip(cols["branch"], cols["stable"]) if s == "false"}
    assert unstable == {"middle"}
    assert stable == {"lower", "upper"}


def test_hysteresis_free_atom_single_branch(tmp_path, capsys):
    out = tmp_path / "free.csv"
    code, _, _ = run(capsys, "hysteresis", "--omega", "0:10:51", "--out", str(out))
    assert code == 0
    meta, cols = read_csv(out)
    assert meta["omega_up"] == "null"
    assert set(cols["branch"]) == {"lower"}
    rho = [float(x) for x in cols["rho22"]]
    assert all(b >= a - 1e-12 for a, b in zip(rho, rho[1:]))


def test_range_above_window_labels_upper(tmp_path, capsys):
    """hysteresis and peaks over 17:25 (above the window of delta=3,
    zeta=50) report the upper branch on every row."""
    medium = ["--delta", "3", "--zeta-l", "50", "--omega", "17:25:3"]
    out = tmp_path / "hyst.csv"
    assert main(["hysteresis", *medium, "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert cols["branch"] == ["upper"] * 3
    out = tmp_path / "peaks.csv"
    assert main(["peaks", *medium, "--zeta-m", "50", "--mechanism", "both",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    _, cols = read_csv(out)
    assert cols["branch"] == ["upper"] * 6


def test_malformed_grid_exits_2_without_file(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, err = run(capsys, "hysteresis", "--omega", "0::10", "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert "configuration error" in err


def test_inconsistent_mechanism_exits_2(capsys):
    code, _, err = run(
        capsys, "hysteresis", "--omega", "0:10:11", "--mechanism", "lorentz", "--zeta-m", "5"
    )
    assert code == 2
    assert "lorentz" in err


@pytest.mark.parametrize("args, line", [
    (["hysteresis", "--omega=-1:5:3"], "configuration error: omega grid must be nonnegative"),
    (["spectrum", "--omega=-1"], "configuration error: omega must be nonnegative"),
    (["dynamics", "--mode", "relax", "--omega=-1"],
     "configuration error: omega must be nonnegative"),
    (["dynamics", "--mode", "relax", "--omega", "0:5:3"],
     "configuration error: relax mode needs a scalar --omega"),
    (["dynamics", "--omega", "8", "--samples", "1"],
     "configuration error: samples must lie in [2, 1e6]"),
    (["verify", "--mechanism", "detuning", "--zeta-l", "3"],
     "configuration error: mechanism 'detuning' requires zeta_lorentz == 0, got 3.0"),
    (["hysteresis", "--omega", "0:5:3", "--gamma", "0"],
     "configuration error: gamma must be positive, got 0.0"),
    (["peaks", "--omega", "0:5:1000001"],
     "configuration error: grid count 1000001 exceeds cap 1000000"),
    (["spectrum", "--omega", "8", "--nu-grid", "1:0:3"],
     "configuration error: grid spec '1:0:3' must have finite end > start"),
    (["hysteresis", "--omega", "0:5:3", "--out", "{missing}"],
     "cannot write output: [Errno 2] No such file or directory: '{missing}'"),
    (["spectrum", "--omega", "1e200"],
     "configuration error: omega must be at most 3.352e+153, got 1e+200"),
    (["hysteresis", "--omega", "0:1e200:3"],
     "configuration error: omega must be at most 3.352e+153, got 1e+200"),
    (["peaks", "--omega", "0:1e160:3"],
     "configuration error: omega must be at most 3.352e+153, got 1e+160"),
    (["dynamics", "--mode", "relax", "--omega", "1e200"],
     "configuration error: omega must be at most 3.352e+153, got 1e+200"),
    (["dynamics", "--mode", "sweep-up", "--omega", "1:1e200:3"],
     "configuration error: omega_end must be at most 3.352e+153, got 1e+200"),
    (["dynamics", "--mode", "relax", "--omega", "1", "--perturb", "1e200"],
     "configuration error: state (0.0, 0.0, 1e+200) lies outside the Bloch ball"),
    (["hysteresis", "--gamma", "1e200", "--omega", "0:1:3"],
     "configuration error: gamma must be at most 3.352e+153 in magnitude, got 1e+200"),
    (["hysteresis", "--delta", "1e200", "--omega", "0:1:3"],
     "configuration error: delta must be at most 3.352e+153 in magnitude, got 1e+200"),
    (["spectrum", "--gamma", "1e155", "--omega", "1"],
     "configuration error: gamma must be at most 3.352e+153 in magnitude, got 1e+155"),
    (["spectrum", "--omega", "8", "--nu-grid=-1e308:1e308:3", "--format", "json",
      "--out", "{out}"],
     "configuration error: grid spec '-1e308:1e308:3' spans beyond the largest float"),
])
def test_configuration_errors_exit_2_with_one_line(tmp_path, capsys, args, line):
    """Each bad configuration exits 2 with exactly one stderr line, no stdout
    and no output file."""
    missing = str(tmp_path / "no-such-dir" / "out.csv")
    never = tmp_path / "never.out"
    code, out, err = run(capsys, *(a.format(missing=missing, out=never) for a in args))
    assert (code, out) == (2, "")
    assert err == "iobspectra: " + line.format(missing=missing) + "\n"
    assert not never.exists()


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "hysteresis", "--omega", "0:10:11", "--frobnicate")
    assert code == 2


# ---------------------------------------------------------------- determinism

def test_byte_identical_reruns(tmp_path, capsys):
    args = ["spectrum", "--delta", "3", "--zeta-l", "50", "--omega", "8",
            "--branch", "upper", "--nu-grid=-40:40:101"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_output_independent_of_blas_threads():
    """A sweep prints the same bytes whatever the BLAS thread count; the
    LAPACK path behind a stiff integrator's LU steps must not leak into it."""
    args = ["-m", "iobspectra", "dynamics", "--mode", "sweep-up", "--delta", "3",
            "--zeta-l", "50", "--omega", "15.2:16.2:201", "--ramp-rate", "1e-3",
            "--format", "json"]
    outputs = []
    for threads in ("1", "2"):
        proc = python(*args, env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# the README's commands, in the order of its CLI block
README = readme_commands()
README_CLOSED_FORM = [cmd for cmd in README if cmd[0] in ("hysteresis", "spectrum", "peaks")]
README_DYNAMICS = [cmd for cmd in README if cmd[0] == "dynamics"]
README_VERIFY = [cmd for cmd in README if cmd[0] == "verify"]


def test_readme_lists_every_subcommand():
    """The README's CLI block runs each of the five subcommands, so the three
    lists above, which tier-1 runs, hold every command of the README."""
    assert {cmd[0] for cmd in README} == {"hysteresis", "spectrum", "peaks", "dynamics", "verify"}


PROBE = """
import json, sys
from iobspectra.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def probe(runs, cwd):
    """Run each command line of ``runs`` through ``main`` in one child process
    in ``cwd``, with RuntimeWarnings as errors.  It must exit 0 with an empty
    stderr; returns its exit codes and the scipy modules it loaded, and the
    lines it printed before that report."""
    proc = python("-W", "error::RuntimeWarning", "-c", PROBE, json.dumps(runs), cwd=cwd)
    assert (proc.returncode, proc.stderr) == (0, "")
    *printed, report = proc.stdout.splitlines()
    return json.loads(report), printed


def test_closed_form_commands_leave_scipy_unloaded(tmp_path):
    """--help, hysteresis, spectrum and peaks compute in closed form, and
    verify checks them with numpy alone, so a process running them never
    imports scipy, whose import is most of such a process's wall time.  Nor
    does any of them raise a RuntimeWarning (overflow, invalid value): not at
    the README's commands, the density's far tail, where its denominator
    overflows, the saturated upper branch, whose rho22 rounds to 1/2, three
    verify seeds or the b2 typo."""
    medium = ["--delta", "3", "--zeta-l", "50"]
    runs = [
        ["--help"],
        ["dynamics", "--help"],
        *README_CLOSED_FORM,
        ["spectrum", *medium, "--omega", "15.6", "--nu-grid=-1e200:1e200:5",
         "--out", "far-tail.csv"],
        ["spectrum", *medium, "--omega", "3e8", "--branch", "upper", "--out", "saturated.csv"],
        *README_VERIFY,
        ["verify", "--seed", "7"],
        ["verify", "--seed", "292"],
        ["verify", "--inject-b2-typo"],
    ]
    report, _ = probe(runs, tmp_path)
    assert report == {"codes": [0] * (len(runs) - 1) + [1], "scipy": []}
    files = [args[args.index("--out") + 1] for args in runs if "--out" in args]
    assert all((tmp_path / f).stat().st_size > 0 for f in files)


CONSOLE_SCRIPT = """
import sys
from importlib import import_module
module, function = sys.argv.pop(1).split(":")
sys.exit(getattr(import_module(module), function)())
"""


def test_console_script_runs_the_readme_verify():
    """The ``[project.scripts]`` target, called as the installed wrapper calls
    it, runs the README's verify with RuntimeWarnings as errors: exit 0, an
    empty stderr and a passing report."""
    (verify,) = README_VERIFY
    proc = python("-W", "error::RuntimeWarning", "-c", CONSOLE_SCRIPT,
                  console_script("iobspectra"), *verify)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("overall: PASS\n")


def test_csv_json_numeric_equivalence(tmp_path, capsys):
    base = ["spectrum", "--delta", "3", "--zeta-l", "50", "--omega", "8",
            "--branch", "lower", "--nu-grid=-30:30:61"]
    csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
    assert main(base + ["--out", str(csv_path)]) == 0
    assert main(base + ["--format", "json", "--out", str(json_path)]) == 0
    capsys.readouterr()
    _, cols = read_csv(csv_path)
    payload = json.loads(json_path.read_text())
    for name in ("nu", "density"):
        csv_vals = [float(x) for x in cols[name]]
        assert csv_vals == payload["data"][name]  # exact decimal round trip
    assert payload["meta"]["command"] == "spectrum"


# -------------------------------------------------------------------- spectrum

def test_spectrum_branch_absent_exit4(tmp_path, capsys):
    out = tmp_path / "no.csv"
    code, _, err = run(
        capsys, "spectrum", "--delta", "3", "--zeta-l", "50",
        "--omega", "0.5", "--branch", "upper", "--out", str(out),
    )
    assert code == 4
    assert not out.exists()
    assert "upper" in err


def test_spectrum_of_the_saturated_upper_branch(capsys):
    """At omega = 3e8 the upper branch's w = W is below 1.1e-16, so its
    rho22 = (1 - W)/2 rounds to exactly 1/2, the saturation limit.  The
    spectrum is still written, with side peaks at +-2 omega."""
    omega = 3e8
    code, out, err = run(capsys, "spectrum", "--delta", "3", "--zeta-l", "50",
                         "--omega", str(omega), "--branch", "upper", "--format", "json")
    assert (code, err) == (0, "")
    meta = json.loads(out)["meta"]
    assert meta["rho22"] == 0.5
    assert meta["peaks"][2] == pytest.approx(2.0 * omega, rel=1e-12)


def test_weak_coupling_has_no_upper_branch(tmp_path, capsys):
    """delta = 10, zeta_l = 1e-6 is monostable: one hysteresis row per
    drive, and the spectrum of an upper branch is absent (exit 4)."""
    medium = ("--delta", "10", "--zeta-l", "1e-6")
    out = tmp_path / "h.csv"
    code, _, _ = run(capsys, "hysteresis", *medium, "--omega", "7:7.1:3", "--out", str(out))
    assert code == 0
    _, cols = read_csv(out)
    assert cols["branch"] == ["lower"] * 3
    out = tmp_path / "no.csv"
    code, _, err = run(capsys, "spectrum", *medium, "--omega", "7.05", "--branch", "upper",
                       "--out", str(out))
    assert code == 4
    assert not out.exists()
    assert "upper" in err


def test_spectrum_json_on_an_overflowing_grid(capsys):
    """A grid whose nu^2 overflows gives zero density at its ends and a
    complete JSON document, not NaN."""
    code, out, err = run(capsys, "spectrum", "--omega", "8", "--nu-grid=-1e200:1e200:3",
                         "--format", "json")
    assert (code, err) == (0, "")
    density = json.loads(out)["data"]["density"]
    assert density[0] == density[2] == 0.0 < density[1]


SPECTRUM_AT_1E76 = """\
# format_version: 1
# command: spectrum
# gamma: 1.0
# delta: 3.0
# zeta_l: 50.0
# zeta_m: 0.0
# omega: 1e+76
# seed: 0
# mechanism: lorentz
# branch: upper
# w: 4.625e-152
# rho22: 0.5
# omega_eff_abs: 1e+76
# delta_eff: 3.0
# unstable: false
# elastic_weight: 2.312500000000001e-152
# peaks: [-2e+76, 0.0, 2e+76]
# coefficients: {"a": 2e+152, "a0": 2e+152, "b4": -8e+152, "b2": 1.6000000000000001e+305, \
"b0": 4.0000000000000002e+304, "nu_p_sq": 4e+152, "gamma6": 4.0000000000000002e+304}
# normalize: null
# normalize_reference: null
# build: 0811623aba28
# columns: nu,density
-1.0,0.09999999999999999
0.0,0.5
1.0,0.09999999999999999
"""


@pytest.mark.parametrize("omega", ["1e77", "1e100"])
def test_spectrum_with_overflowed_density_coefficients_exits_3(tmp_path, capsys, omega):
    """Past |omega_eff| of about 1e77 the density coefficients b2 and b0
    overflow, and the density would be 0 at every offset.  That is a
    numerical failure, exit 3 with one line naming the coefficients, and
    no file is written; at 1e76 the spectrum is written as before."""
    medium = ("--delta", "3", "--zeta-l", "50", "--branch", "upper", "--nu-grid=-1:1:3")
    out = tmp_path / "never.csv"
    code, stdout, err = run(capsys, "spectrum", *medium, "--omega", omega, "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err.startswith("iobspectra: numerical failure: ") and err.count("\n") == 1
    assert "b2" in err and "b0" in err
    assert not out.exists()
    code, stdout, err = run(capsys, "spectrum", *medium, "--omega", "1e76")
    assert (code, stdout, err) == (0, SPECTRUM_AT_1E76, "")


@pytest.mark.filterwarnings("ignore:solver failed:UserWarning")
@pytest.mark.parametrize("command", ["hysteresis", "peaks"])
def test_scan_with_a_rootless_drive_exits_3(tmp_path, capsys, command):
    """At gamma = 1e-300 the cubic's coefficients underflow and no drive has a
    root.  A scan with missing rows is a numerical failure, exit 3 with the
    count and the first such drive on the last stderr line, and no file is
    written."""
    out = tmp_path / "never.csv"
    code, stdout, err = run(capsys, command, "--gamma", "1e-300", "--omega", "0:1:3",
                            "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err.splitlines()[-1] == ("iobspectra: numerical failure: no inversion root in "
                                    "(0, 1] at 3 of 3 drives, the first at omega=0.0")
    assert not out.exists()


def test_spectrum_metadata_and_normalization(tmp_path, capsys):
    out = tmp_path / "mollow.json"
    code, _, _ = run(
        capsys, "spectrum", "--omega", "20", "--format", "json",
        "--normalize", "free-atom-max", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    meta = payload["meta"]
    assert meta["normalize"] == "free-atom-max"
    assert meta["normalize_reference"] == 0.5
    assert meta["unstable"] is False
    assert len(meta["peaks"]) == 3
    assert meta["peaks"][2] == pytest.approx(math.sqrt(4 * 400 - 0.75))
    density = payload["data"]["density"]
    nu = payload["data"]["nu"]
    center = density[min(range(len(nu)), key=lambda i: abs(nu[i]))]
    assert center == pytest.approx(1.0, rel=2e-3)  # saturated center in A0 units
    assert meta["elastic_weight"] == pytest.approx(
        0.5 * (1 - 0.00031246) * 0.00031246, rel=1e-3
    )


def test_spectrum_unstable_branch_flagged(tmp_path, capsys):
    out = tmp_path / "mid.json"
    code, _, _ = run(
        capsys, "spectrum", "--delta", "3", "--zeta-l", "50", "--omega", "8",
        "--branch", "middle", "--format", "json", "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["meta"]["unstable"] is True


def _cells(values):
    """CSV cells back as the Python values they were written from."""
    words = {"true": True, "false": False, "none": None}
    out = []
    for v in values:
        try:
            out.append(words[v] if v in words else float(v))
        except ValueError:
            out.append(v)
    return out


def test_hysteresis_and_peaks_columns_equal_the_object_walk(tmp_path, monkeypatch, capsys):
    """The README hysteresis and peaks files, cell for cell, against the
    per-point walk over ``scan.points`` with one spectrum_coefficients call
    per root."""
    from iobspectra import MediumParams, Mechanism, scan_hysteresis, spectrum_coefficients

    monkeypatch.chdir(tmp_path)
    (hyst,) = [cmd for cmd in README if cmd[0] == "hysteresis"]
    (peaks,) = [cmd for cmd in README if cmd[0] == "peaks"]
    assert main(hyst) == main(peaks) == 0
    capsys.readouterr()
    hyst, peaks = (build_parser().parse_args(cmd) for cmd in (hyst, peaks))  # by name

    medium = MediumParams(delta=hyst.delta, zeta_lorentz=hyst.zeta_l)
    expected = {k: [] for k in ("omega", "branch", "w", "rho22", "stable",
                                "omega_eff_abs", "delta_eff")}
    grid = parse_grid(hyst.omega)
    for point in scan_hysteresis(medium, Mechanism.LORENTZ, grid).points:
        for sol in point.solutions:
            for key, value in (("omega", point.omega), ("branch", sol.branch.value),
                               ("w", sol.w), ("rho22", sol.rho22), ("stable", sol.stable),
                               ("omega_eff_abs", abs(sol.omega_eff)),
                               ("delta_eff", sol.delta_eff)):
                expected[key].append(value)
    _, cols = read_csv(tmp_path / hyst.out)
    assert list(cols) == list(expected)
    for key, values in expected.items():
        assert _cells(cols[key]) == values, key

    expected = {k: [] for k in ("omega", "mechanism", "branch", "nu_p")}
    d, zl, zm = peaks.delta, peaks.zeta_l, peaks.zeta_m
    families = [("lorentz", MediumParams(delta=d, zeta_lorentz=zl), Mechanism.LORENTZ),
                ("detuning", MediumParams(delta=d, zeta_detuning=zm), Mechanism.DETUNING),
                ("free", MediumParams(delta=d), Mechanism.LORENTZ)]
    grid = parse_grid(peaks.omega)
    for tag, params, mech in families:
        for point in scan_hysteresis(params, mech, grid).points:
            for sol in point.solutions:
                c = spectrum_coefficients(abs(sol.omega_eff) ** 2, sol.delta_eff, params.gamma)
                expected["omega"].append(point.omega)
                expected["mechanism"].append(tag)
                expected["branch"].append(sol.branch.value)
                expected["nu_p"].append(math.sqrt(c.nu_p_sq) if c.nu_p_sq > 0.0 else None)
    _, cols = read_csv(tmp_path / peaks.out)
    assert list(cols) == list(expected)
    for key, values in expected.items():
        assert _cells(cols[key]) == values, key


# ----------------------------------------------------------------------- peaks

def test_peaks_families_and_none_entries(tmp_path, capsys):
    out = tmp_path / "peaks.csv"
    code, _, _ = run(
        capsys, "peaks", "--delta", "3", "--zeta-l", "50", "--zeta-m", "50",
        "--mechanism", "both", "--free-atom-reference",
        "--omega", "0.05:25:120", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert "nan" not in text.lower()
    meta, cols = read_csv(out)
    assert set(cols["mechanism"]) == {"lorentz", "detuning", "free"}
    assert json.loads(meta["thresholds"])["free"] is None
    # the free family loses its satellites below 4 omega^2 + delta^2 = 3/4
    free_rows = [
        (float(om), nu_p)
        for om, mech_tag, nu_p in zip(cols["omega"], cols["mechanism"], cols["nu_p"])
        if mech_tag == "free"
    ]
    assert all(nu_p != "none" for om, nu_p in free_rows)  # delta=3 keeps them real

    # a true radicand-negative case: resonant weak drive
    out2 = tmp_path / "peaks2.csv"
    assert main(["peaks", "--omega", "0.05:0.4:10", "--out", str(out2)]) == 0
    capsys.readouterr()
    _, cols2 = read_csv(out2)
    assert "none" in cols2["nu_p"]


def test_peaks_up_to_omega_max_raise_no_runtime_warning(capsys):
    """Past |omega_eff| of about 1e77 the density coefficients b2 and b0
    overflow, but peaks reads only nu_p_sq: the saturated upper branch gives
    nu_p = 2 omega, with no RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "peaks", "--delta", "3", "--zeta-l", "50",
                             "--omega", "0:1e100:3", "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)["data"]
    assert data["branch"] == ["lower", "upper", "upper"]
    assert data["nu_p"][1:] == [2.0 * om for om in data["omega"][1:]]


def test_peaks_json_null_for_missing(tmp_path, capsys):
    out = tmp_path / "peaks.json"
    code, _, _ = run(
        capsys, "peaks", "--omega", "0.05:0.4:10", "--format", "json", "--out", str(out)
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert None in payload["data"]["nu_p"]


# -------------------------------------------------------------------- dynamics

def test_dynamics_zero_drive_flat(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code, _, _ = run(
        capsys, "dynamics", "--mode", "relax", "--omega", "0",
        "--t-end", "20", "--samples", "41", "--out", str(out),
    )
    assert code == 0
    _, cols = read_csv(out)
    assert all(float(w) == pytest.approx(1.0, abs=1e-12) for w in cols["w"])


def test_dynamics_relax_monotone_return(tmp_path, capsys):
    out = tmp_path / "relax.json"
    code, _, _ = run(
        capsys, "dynamics", "--mode", "relax", "--delta", "3", "--zeta-l", "50",
        "--omega", "8", "--branch", "upper", "--perturb", "1e-3",
        "--t-end", "50", "--samples", "101", "--format", "json", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    w = payload["data"]["w"]
    assert abs(w[-1] - w[0]) <= 2e-3
    final_drift = max(abs(a - w[-1]) for a in w[-10:])
    assert final_drift <= 1e-6  # settled back onto the branch


def test_dynamics_sweep_cli(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code, _, _ = run(
        capsys, "dynamics", "--mode", "sweep-up", "--delta", "3", "--zeta-l", "50",
        "--omega", "15.2:16.2:201", "--ramp-rate", "1e-3",
        "--format", "json", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    jumps = payload["meta"]["jumps"]
    assert len(jumps) == 1
    assert jumps[0] == pytest.approx(15.674131, rel=0.02)


def test_dynamics_bad_ramp_rate(capsys):
    code, _, err = run(
        capsys, "dynamics", "--mode", "sweep-up", "--omega", "1:2:11",
        "--ramp-rate", "0.5",
    )
    assert code == 2
    assert "configuration error" in err


def test_dynamics_unphysical_perturbation_exits_2(capsys):
    code, _, err = run(
        capsys, "dynamics", "--mode", "relax", "--omega", "1",
        "--perturb", "5", "--t-end", "10",
    )
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("t_end", ["inf", "nan"])
def test_dynamics_nonfinite_t_end_exits_2(t_end):
    """A relaxation to an infinite time would never finish, so it runs in a
    child process under a timeout."""
    proc = python("-m", "iobspectra", "dynamics", "--mode", "relax", "--omega", "8",
                  "--delta", "3", "--zeta-l", "50", "--t-end", t_end, timeout=60)
    assert proc.returncode == 2
    assert "configuration error: t-end must be positive and finite" in proc.stderr


def test_dynamics_at_a_drive_that_stalls_lsoda_exits_3():
    """At omega = 3e153 LSODA's first step comes out 0 and it "succeeds" with
    the state unmoved; that is a numerical failure, exit 3, not a flat
    trajectory.  A stalled integration could also hang, so it runs in a child
    process under a timeout."""
    proc = python("-m", "iobspectra", "dynamics", "--mode", "relax", "--delta", "3",
                  "--zeta-l", "50", "--omega", "3e153", "--t-end", "1", "--samples", "2",
                  timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("iobspectra: numerical failure: integration failed at t=0.0: "
                           "LSODA took no step\n")


def test_readme_dynamics_commands(tmp_path, monkeypatch, capfd):
    """The README sweeps and relax write their data to --out and nothing to
    fd 1 or 2 (no ODEPACK message, no warning).  Each sweep jumps once, at
    15.7075 up and 1.385 down; the perturbed upper branch relaxes back; each
    JSON file re-encodes to its own bytes; and a process running them loads
    of scipy the compiled ODEPACK module alone."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [main(args) for args in README_DYNAMICS] == [0, 0, 0]
    assert capfd.readouterr() == ("", "")
    for name, jump in (("sweep.json", 15.7075), ("sweep-down.json", 1.385)):
        text = (tmp_path / name).read_text()
        payload = json.loads(text)
        again = json.dumps(payload, indent=1, separators=(",", ": "), allow_nan=False) + "\n"
        assert again == text, name
        jumps = payload["meta"]["jumps"]
        assert len(jumps) == 1 and abs(jumps[0] - jump) <= 1e-9, (name, jumps)
    # w ends within 2e-3 of its start, and moves at most 1e-6 over the last 10 samples
    w = [float(x) for x in read_csv(tmp_path / "relax.csv")[1]["w"]]
    assert abs(w[-1] - w[0]) <= 2e-3 and max(w[-10:]) - min(w[-10:]) <= 1e-6
    assert probe(README_DYNAMICS, tmp_path) == (
        {"codes": [0, 0, 0], "scipy": ["scipy.integrate._odepack"]}, [])


@pytest.mark.parametrize("t_end", ["1e-160", "1e-300"])
def test_dynamics_t_end_that_underflows_lsodas_first_step_exits_2(capsys, t_end):
    """Below about 2.4e-149, the first sample time of a relax with two samples
    makes LSODA's initial step 0 or NaN; that is a configuration error, not a
    numerical failure."""
    code, _, err = run(capsys, "dynamics", "--mode", "relax", "--omega", "8",
                       "--t-end", t_end, "--samples", "2")
    assert code == 2
    assert "configuration error: the first output time after 0 must exceed" in err


def test_dynamics_short_t_end_still_integrates(tmp_path, capsys):
    out = tmp_path / "short.csv"
    code, _, _ = run(capsys, "dynamics", "--mode", "relax", "--omega", "8",
                     "--t-end", "1e-100", "--samples", "2", "--out", str(out))
    assert code == 0
    _, cols = read_csv(out)
    assert float(cols["v"][1]) == pytest.approx(-1.6e-99, rel=1e-9)


def test_numerical_failure_maps_to_exit_3(capsys, monkeypatch):
    from iobspectra import IntegrationError

    def boom(*args, **kwargs):
        raise IntegrationError("step size underflow at t=1.5", time=1.5)

    monkeypatch.setattr(iobspectra.dynamics, "integrate", boom)
    code, _, err = run(
        capsys, "dynamics", "--mode", "relax", "--omega", "1", "--t-end", "10"
    )
    assert code == 3
    assert "numerical failure" in err


# ---------------------------------------------------------------------- verify

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.count("PASS") == 6  # five checks plus overall
    assert "FAIL" not in out


def test_verify_detects_injected_b2_typo(capsys):
    code, out, _ = run(capsys, "verify", "--inject-b2-typo")
    assert code == 1
    assert "factorization_identity: FAIL" in out
    assert "spectrum_oracle_equivalence: FAIL" in out


def test_verify_seed_changes_draws_reproducibly(capsys):
    code_a, out_a, _ = run(capsys, "verify", "--seed", "7")
    code_b, out_b, _ = run(capsys, "verify", "--seed", "7")
    code_c, out_c, _ = run(capsys, "verify", "--seed", "8")
    assert code_a == code_b == code_c == 0
    assert out_a == out_b
    assert out_a != out_c  # different draws, different max deviations


def test_verify_out_writes_the_printed_text(tmp_path, capsys):
    for args in (["--seed", "3"], ["--inject-b2-typo"]):
        path = tmp_path / "report.txt"
        code, out, err = run(capsys, "verify", *args, "--out", str(path))
        assert code == (1 if args == ["--inject-b2-typo"] else 0)
        assert err == ""
        assert path.read_bytes() == out.encode("utf-8")
        assert out.endswith("\n") and out.splitlines()[-1].startswith("overall: ")


def test_run_verification_api():
    results = run_verification(seed=0)
    assert all(r.passed for r in results)
    # plain Python scalars, not numpy ones leaking out of the checks
    assert all(type(r.passed) is bool and type(r.max_dev) is float for r in results)
    names = [r.name for r in results]
    assert "spectrum_oracle_equivalence" in names
    assert "sum_rule_constancy" in names


def _factorization_max_dev_per_set(seed, inject):
    """The factorization check as one scalar pass per set: the oracle of the
    array check's exact max_dev."""
    from dataclasses import replace

    from iobspectra import spectrum_coefficients

    rng = np.random.default_rng(seed + 1)
    max_dev = 0.0
    for k in range(1000):
        if k % 5 == 0:
            o2, d, g = rng.uniform(0.0, 0.05), rng.uniform(-0.2, 0.2), rng.uniform(1.0, 3.0)
        else:
            o2, d, g = rng.uniform(0.0, 50.0), rng.uniform(-10.0, 10.0), rng.uniform(0.3, 3.0)
        c = spectrum_coefficients(o2, d, g)
        if inject:
            d2, g2 = d**2, g**2
            c = replace(c, b2=16.0 * o2 + 2.0 * o2 * (4.0 * d2 + g2) + d2 * d2
                        - 1.5 * g2 * d2 + 0.5625 * g2 * g2)
        scale = g * g + d * d + 2.0 * o2
        dev = max(
            abs(c.b4 + 2.0 * c.nu_p_sq) / scale,
            abs(c.b2 - (c.nu_p_sq**2 + 8.0 * g * g * o2)) / scale**2,
            abs(c.b0 - g * g * (2.0 * o2 + d * d + 0.25 * g * g) ** 2) / scale**3,
        )
        max_dev = max(max_dev, dev)
    return max_dev


@pytest.mark.parametrize("inject", [False, True])
def test_factorization_check_equals_the_per_set_loop(inject):
    from iobspectra.verify import check_factorization

    for seed in range(50):
        result = check_factorization(seed, inject)
        assert type(result.max_dev) is float
        assert result.max_dev == _factorization_max_dev_per_set(seed, inject), seed
        assert result.passed is (not inject)


def _found_roots(params, mech, omegas):
    """Per drive: (omega, roots w, coherences rho12, effective drives), a
    walk over one solution_arrays call, one drive at a time."""
    from iobspectra import solution_arrays

    arr = solution_arrays(params, mech, omegas)
    for om, n, w, rho12, omega_eff in zip(arr.omega.tolist(), arr.count.tolist(),
                                          arr.w.tolist(), arr.rho12.tolist(),
                                          arr.omega_eff.tolist()):
        yield om, w[:n], rho12[:n], omega_eff[:n]


def _damped_flow_zero(params, mech, omega, guess):
    """A zero of the Bloch flow by damped Newton from ``guess``, or None:
    each step J s = -F is halved (up to 30 times) until |F| falls, and the
    search converges once a full step is at most 1e-12 of |y|."""
    from iobspectra.dynamics import bloch_rhs, jacobian

    y = guess
    f = bloch_rhs(y, params, mech, omega)
    norm = np.linalg.norm(f)
    for _ in range(50):
        try:
            step = np.linalg.solve(jacobian(y, params, mech, omega), -f)
        except np.linalg.LinAlgError:
            return None
        if np.linalg.norm(step) <= 1e-12 * np.linalg.norm(y):
            return y + step
        for _ in range(30):
            trial = y + step
            f_trial = bloch_rhs(trial, params, mech, omega)
            norm_trial = np.linalg.norm(f_trial)
            if norm_trial < norm:
                break
            step = 0.5 * step
        else:
            return None
        y, f, norm = trial, f_trial, norm_trial
    return None


def _fixed_point_per_root(seed, search=True):
    """The fixed-point check one root at a time, with a damped search per
    root: the oracle of the stacked check.  Returns its max_dev and, per
    case, (params, mech, drives, guesses, zeros) with a (3, K) column per
    root and NaN for a failed search.  Without ``search``, the max_dev of
    the flow residuals at the roots alone."""
    from iobspectra import MediumParams, Mechanism
    from iobspectra.dynamics import bloch_rhs

    rng = np.random.default_rng(seed + 2)
    cases = [
        (MediumParams(delta=3.0, zeta_lorentz=50.0), Mechanism.LORENTZ),
        (MediumParams(delta=3.0, zeta_detuning=50.0), Mechanism.DETUNING),
        (MediumParams(delta=rng.uniform(-4.0, 4.0), zeta_lorentz=rng.uniform(0.0, 40.0)),
         Mechanism.LORENTZ),
    ]
    max_dev, searches = 0.0, []
    for params, mech in cases:
        drives, guesses, zeros = [], [], []
        for om, roots, rho12, _ in _found_roots(params, mech, np.linspace(0.2, 20.0, 17)):
            for w, r12 in zip(roots, rho12):
                fp = (2.0 * r12.real, 2.0 * r12.imag, w)
                rhs = bloch_rhs(fp, params, mech, om)
                max_dev = max(max_dev, float(np.abs(rhs).max()) / params.gamma)
                if not search:
                    continue
                guess = np.array([fp[0] + 1e-4, fp[1] - 1e-4, fp[2] - 1e-4])
                zero = _damped_flow_zero(params, mech, om, guess)
                if zero is not None:
                    max_dev = max(max_dev, min(abs(float(zero[2]) - r) for r in roots))
                drives.append(om)
                guesses.append(guess)
                zeros.append(np.full(3, np.nan) if zero is None else zero)
        searches.append((params, mech, np.array(drives), np.array(guesses).T,
                         np.array(zeros).T))
    return max_dev, searches


def _rabi_max_dev_per_root(seed):
    """The Rabi-relation check one drive at a time, as the oracle of its
    exact max_dev."""
    from dataclasses import replace

    from iobspectra import MediumParams, Mechanism, rabi_relation_sq

    rng = np.random.default_rng(seed + 3)
    cases = [
        MediumParams(delta=3.0, zeta_lorentz=50.0),
        MediumParams(gamma=rng.uniform(0.5, 2.0), delta=rng.uniform(-5.0, 5.0),
                     zeta_lorentz=rng.uniform(1.0, 80.0)),
    ]
    max_dev = 0.0
    for params in cases:
        found = _found_roots(params, Mechanism.LORENTZ, np.linspace(0.05, 25.0, 60))
        for om, roots, _, omega_effs in found:
            p = replace(params, omega=om)
            for w, omega_eff in zip(roots, omega_effs):
                expected = rabi_relation_sq(w, p, Mechanism.LORENTZ)
                rel = abs(abs(omega_eff) ** 2 - expected) / max(expected, 1e-300)
                max_dev = max(max_dev, rel)
    return max_dev


def test_root_checks_equal_the_per_root_searches():
    from iobspectra.verify import _flow_zeros, check_fixed_points, check_rabi_relation

    for seed in range(50):
        fixed, rabi = check_fixed_points(seed), check_rabi_relation(seed)
        assert type(fixed.max_dev) is float and type(rabi.max_dev) is float
        max_dev, searches = _fixed_point_per_root(seed)
        assert fixed.max_dev == max_dev, seed
        assert rabi.max_dev == _rabi_max_dev_per_root(seed), seed
        assert fixed.passed and rabi.passed
        # the residuals set max_dev, so the zeros are compared themselves
        for params, mech, drives, guesses, zeros in searches:
            stacked = _flow_zeros(params, mech, drives, guesses)
            assert np.array_equal(stacked, zeros, equal_nan=True), seed


@pytest.mark.parametrize("exit_", ["step_limit", "singular_jacobian"])
def test_failed_flow_searches_leave_the_residuals(monkeypatch, exit_):
    """When no Newton search converges, after its last step or on a singular
    Jacobian, the fixed-point check still passes without an exception and
    reports the flow residuals at the roots alone."""
    from iobspectra import MediumParams, Mechanism, dynamics, solution_arrays, verify

    params, mech = MediumParams(delta=3.0, zeta_lorentz=50.0), Mechanism.LORENTZ
    arr = solution_arrays(params, mech, np.array([1.0, 8.0, 15.0]))
    at = np.nonzero(arr.w == arr.w)
    guess = np.array([2.0 * arr.rho12[at].real, 2.0 * arr.rho12[at].imag, arr.w[at]]) + 1e-4
    assert np.isfinite(verify._flow_zeros(params, mech, arr.omega[at[0]], guess)).all()
    if exit_ == "step_limit":
        monkeypatch.setattr(verify, "_NEWTON_STEPS", 1)
    else:
        monkeypatch.setattr(dynamics, "_jac", lambda *args: np.zeros((3, 3)))
    assert np.isnan(verify._flow_zeros(params, mech, arr.omega[at[0]], guess)).all()
    for seed in range(10):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = verify.check_fixed_points(seed)
        assert result.passed is True
        assert result.max_dev == _fixed_point_per_root(seed, search=False)[0], seed


# --------------------------------------------------------------------- writers

def _csv_per_cell(stream, meta, columns):
    """The CSV writer as one cell at a time: the oracle of the block writer."""
    from iobspectra.cli import _fmt_cell, _meta_value

    for key, value in meta.items():
        stream.write(f"# {key}: {_meta_value(value)}\n")
    names = list(columns)
    stream.write("# columns: " + ",".join(names) + "\n")
    for row in zip(*(columns[n] for n in names)):
        stream.write(",".join(_fmt_cell(v) for v in row) + "\n")


_WRITER_META = {"format_version": "1", "omega_up": None, "unstable": True, "seed": 3,
                "peaks": [-1.5, 1.5], "thresholds": {"lorentz": [15.6, 1.4], "free": None},
                "nested": {"a": {"b": [], "c": {}}, "d": [[], {}]}, "text": "a\"b\nc"}


def _writer_columns(rows):
    rng = np.random.default_rng(rows)
    cells = [None, True, False, "lower", 7, -0.0, 5e-324, 1.7e308, 0.1]
    return {
        "omega": rng.uniform(-1.0, 1.0, rows).tolist(),
        "mixed": [cells[i] for i in rng.integers(0, len(cells), rows)],
        "branch": ["upper"] * rows,
        "edges": [(-0.0, 5e-324, 1.7e308, -2.5e-300)[i % 4] for i in range(rows)],
        "late_none": [1.0] * (rows - 1) + [None] * min(rows, 1),
    }


def _assert_same_text(got, want):
    """Equal texts; else the first line that differs, not a diff of the whole."""
    if got != want:
        a, b = got.split("\n"), want.split("\n")
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i}: wrote {a[i:i + 1]}, expected {b[i:i + 1]}")


@pytest.mark.parametrize("rows", ["zero", "one", "block", "block_plus_one"])
def test_writers_equal_the_one_pass_writers(rows):
    import io

    from iobspectra.cli import _BLOCK_ROWS, write_csv, write_json

    n = {"zero": 0, "one": 1, "block": _BLOCK_ROWS, "block_plus_one": _BLOCK_ROWS + 1}[rows]
    cases = [(_WRITER_META, _writer_columns(n)), ({}, _writer_columns(n)),
             (_WRITER_META, {}), (_WRITER_META, {"empty": [], "also": []})]
    for meta, columns in cases:
        got, want = io.StringIO(), io.StringIO()
        write_csv(got, meta, columns)
        _csv_per_cell(want, meta, columns)
        _assert_same_text(got.getvalue(), want.getvalue())
        got = io.StringIO()
        write_json(got, meta, columns)
        payload = {"meta": meta, "data": columns}
        _assert_same_text(got.getvalue(), json.dumps(payload, allow_nan=False,
                                                     separators=(",", ": "), indent=1) + "\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_nonfinite_cells(bad):
    import io

    from iobspectra.cli import _BLOCK_ROWS, write_json

    for values in ([bad], [1.0] * _BLOCK_ROWS + [bad]):
        with pytest.raises(ValueError):
            write_json(io.StringIO(), {}, {"x": values})
    with pytest.raises(ValueError):
        write_json(io.StringIO(), {"x": bad}, {})


# ------------------------------------------------------------------------ misc

def test_help_exits_zero(capsys):
    """The help of the command line and of each subcommand prints and exits 0."""
    for command in ([], ["hysteresis"], ["spectrum"], ["peaks"], ["dynamics"], ["verify"]):
        assert main([*command, "--help"]) == 0, command
        assert capsys.readouterr().out.startswith("usage: iobspectra"), command


@pytest.mark.parametrize("args, diagnostic", [
    (["hysteresis", "--delta", "3", "--zeta-l", "50", "--omega", "0:20:5"],
     "scanned 5 drives, thresholds=15.67"),
    (["spectrum", "--delta", "3", "--zeta-l", "50", "--omega", "8", "--nu-grid=-5:5:3"],
     "lower branch at omega=8.0: w="),
    (["peaks", "--omega", "0:1:3"], None),
    (["dynamics", "--omega", "8", "--t-end", "1", "--samples", "3"], None),
    (["verify"], None),
])
def test_verbose_adds_one_diagnostic_line_at_most(capsys, args, diagnostic):
    """``-v`` prints the ``diagnostic`` line, if any, to stderr and leaves the
    data bytes as they are."""
    quiet = run(capsys, *args)
    code, out, err = run(capsys, args[0], "-v", *args[1:])
    assert quiet == (code, out, "") and code == 0
    assert len(err.splitlines()) == (diagnostic is not None)
    assert err.startswith(diagnostic or "")


@pytest.mark.parametrize("args", [
    ["hysteresis", "--omega", "0:1:3"],
    ["spectrum", "--omega", "1"],
    ["peaks", "--omega", "0:1:3"],
    ["dynamics", "--omega", "1"],
    ["verify"],
])
def test_each_subcommand_carries_its_handler(args):
    """``main`` runs ``ns.run``, which each subparser sets to its own handler."""
    from iobspectra import cli

    assert cli.build_parser().parse_args(args).run is getattr(cli, f"_cmd_{args[0]}")


def test_bare_command_line_exits_2(capsys):
    assert main([]) == 2
    assert "required: command" in capsys.readouterr().err


def test_stdout_emission(capsys):
    code, out, err = run(capsys, "hysteresis", "--omega", "0:5:6")
    assert code == 0
    assert "# columns: omega,branch" in out
    assert err == ""
