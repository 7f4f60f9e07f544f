import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import iobspectra
from iobspectra.cli import main, parse_grid, run_verification


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


@pytest.mark.parametrize("bad", ["0:25", "a:b:c", "0:25:1", "5:5:10", "0:25:2000001"])
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
])
def test_configuration_errors_exit_2_with_one_line(tmp_path, capsys, args, line):
    """Each bad configuration exits 2 with exactly one stderr line and no stdout."""
    missing = str(tmp_path / "no-such-dir" / "out.csv")
    code, out, err = run(capsys, *(a.format(missing=missing) for a in args))
    assert (code, out) == (2, "")
    assert err == "iobspectra: " + line.format(missing=missing) + "\n"


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
    args = [sys.executable, "-m", "iobspectra", "dynamics", "--mode", "sweep-up",
            "--delta", "3", "--zeta-l", "50", "--omega", "15.2:16.2:201",
            "--ramp-rate", "1e-3", "--format", "json"]
    src = str(Path(iobspectra.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(args, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


SCIPY_PROBE = """
import json, sys
from iobspectra.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_closed_form_commands_leave_scipy_unloaded(tmp_path):
    """--help, hysteresis, spectrum and peaks compute in closed form, and
    verify checks them with numpy alone, so a process running them never
    imports scipy, whose import is most of such a process's wall time."""
    medium = ["--delta", "3", "--zeta-l", "50"]
    runs = [
        ["--help"],
        ["hysteresis", *medium, "--omega", "0:25:101", "--out", str(tmp_path / "h.csv")],
        ["spectrum", *medium, "--omega", "15.6", "--normalize", "free-atom-max",
         "--out", str(tmp_path / "s.csv")],
        ["peaks", *medium, "--zeta-m", "50", "--mechanism", "both",
         "--free-atom-reference", "--omega", "0.05:25:101", "--out", str(tmp_path / "p.csv")],
        ["verify", "--seed", "0"],
        ["verify", "--inject-b2-typo"],
    ]
    src = str(Path(iobspectra.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0, 1]
    assert report["scipy"] == []
    assert all((tmp_path / f).stat().st_size > 0 for f in ("h.csv", "s.csv", "p.csv"))


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


def test_hysteresis_and_peaks_columns_equal_the_object_walk(tmp_path, capsys):
    """The README hysteresis and peaks files, cell for cell, against the
    per-point walk over ``scan.points`` with one spectrum_coefficients call
    per root."""
    from dataclasses import replace

    from iobspectra import MediumParams, Mechanism, scan_hysteresis, spectrum_coefficients

    hyst, peaks = tmp_path / "hysteresis.csv", tmp_path / "peaks.csv"
    assert main(["hysteresis", "--delta", "3", "--zeta-l", "50", "--mechanism", "lorentz",
                 "--omega", "0:25:500", "--out", str(hyst)]) == 0
    assert main(["peaks", "--delta", "3", "--zeta-l", "50", "--zeta-m", "50",
                 "--mechanism", "both", "--free-atom-reference",
                 "--omega", "0.05:25:500", "--out", str(peaks)]) == 0
    capsys.readouterr()

    medium = MediumParams(delta=3.0, zeta_lorentz=50.0)
    expected = {k: [] for k in ("omega", "branch", "w", "rho22", "stable",
                                "omega_eff_abs", "delta_eff")}
    for point in scan_hysteresis(medium, Mechanism.LORENTZ, np.linspace(0.0, 25.0, 500)).points:
        for sol in point.solutions:
            for key, value in (("omega", point.omega), ("branch", sol.branch.value),
                               ("w", sol.w), ("rho22", sol.rho22), ("stable", sol.stable),
                               ("omega_eff_abs", abs(sol.omega_eff)),
                               ("delta_eff", sol.delta_eff)):
                expected[key].append(value)
    _, cols = read_csv(hyst)
    assert list(cols) == list(expected)
    for key, values in expected.items():
        assert _cells(cols[key]) == values, key

    expected = {k: [] for k in ("omega", "mechanism", "branch", "nu_p")}
    families = [("lorentz", replace(medium, zeta_lorentz=50.0), Mechanism.LORENTZ),
                ("detuning", replace(medium, zeta_lorentz=0.0, zeta_detuning=50.0),
                 Mechanism.DETUNING),
                ("free", replace(medium, zeta_lorentz=0.0), Mechanism.LORENTZ)]
    for tag, params, mech in families:
        for point in scan_hysteresis(params, mech, np.linspace(0.05, 25.0, 500)).points:
            for sol in point.solutions:
                c = spectrum_coefficients(abs(sol.omega_eff) ** 2, sol.delta_eff, params.gamma)
                expected["omega"].append(point.omega)
                expected["mechanism"].append(tag)
                expected["branch"].append(sol.branch.value)
                expected["nu_p"].append(math.sqrt(c.nu_p_sq) if c.nu_p_sq > 0.0 else None)
    _, cols = read_csv(peaks)
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
    src = str(Path(iobspectra.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    args = [sys.executable, "-m", "iobspectra", "dynamics", "--mode", "relax", "--omega", "8",
            "--delta", "3", "--zeta-l", "50", "--t-end", t_end]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "configuration error: t-end must be positive and finite" in proc.stderr


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


def test_run_verification_api():
    results = run_verification(seed=0)
    assert all(r.passed for r in results)
    # plain Python scalars, not numpy ones leaking out of the checks
    assert all(type(r.passed) is bool and type(r.max_dev) is float for r in results)
    names = [r.name for r in results]
    assert "spectrum_oracle_equivalence" in names
    assert "sum_rule_constancy" in names


# ------------------------------------------------------------------------ misc

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_stdout_emission(capsys):
    code, out, err = run(capsys, "hysteresis", "--omega", "0:5:6")
    assert code == 0
    assert "# columns: omega,branch" in out
    assert err == ""
