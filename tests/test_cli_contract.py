"""The command line's contract, as a property over drawn command lines.

Exit 0 means a complete file whose every float, cell or metadata value, is
finite; 2 is a configuration error, 3 a numerical failure and 4 an absent
branch, each with an empty stdout, no file and a last stderr line that
starts ``iobspectra: ``; no exception escapes; and a command line exits
alike, with the same last stderr line, in CSV and in JSON.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from media import extreme_media

from iobspectra.cli import main
from iobspectra.core import OMEGA_MAX

# subnormals, the smallest normal, scales where the cubics and the
# density's sextic underflow or overflow, and OMEGA_MAX, the largest value
# a drive, gamma, |delta| or a coupling may take
SPECIAL = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-170, 1e-150, 1e-100, 1e-20,
           0.5, 1.0, 3.0, 50.0, 1e20, 1e76, 1e77, 1e100, 1e150,
           math.nextafter(OMEGA_MAX, 0.0), OMEGA_MAX]
# values past the limits: each must be refused as a configuration error
INVALID = [math.nan, math.inf, -math.inf, -1.0, -5e-324, math.nextafter(OMEGA_MAX, math.inf),
           1e300, sys.float_info.max]


def magnitudes():
    """A positive value: special, or log-uniform between 5e-324 and OMEGA_MAX."""
    log_uniform = st.builds(lambda m, e: min(math.ldexp(m, e), OMEGA_MAX),
                            st.floats(1.0, 2.0), st.integers(-1074, 510))
    return st.one_of(st.sampled_from(SPECIAL), log_uniform)


def signed():
    """A magnitude of either sign, or a zero of either sign."""
    return st.one_of(st.sampled_from([0.0, -0.0]),
                     st.tuples(magnitudes(), st.booleans()).map(lambda v: -v[0] if v[1] else v[0]))


def nonnegative():
    return st.one_of(st.just(0.0), magnitudes())


@st.composite
def media(draw):
    """The medium flags, the mechanism, a drive scale and the medium's
    largest rate: a medium of the extreme-media tests, the same scaled by a
    magnitude, or each value drawn on its own."""
    kind = draw(st.sampled_from(["extreme", "scaled", "wild"]))
    if kind == "wild":
        scale = draw(magnitudes())
        medium = [draw(magnitudes()), draw(signed()), draw(nonnegative()), draw(nonnegative())]
        mechanism = ("joint" if medium[2] and medium[3] else "detuning" if medium[3]
                     else draw(st.sampled_from(["lorentz", "joint"])))
    else:
        params, mech, *_ = draw(extreme_media())
        scale = 1.0 if kind == "extreme" else draw(magnitudes())
        medium = [scale * v for v in (params.gamma, params.delta, params.zeta_lorentz,
                                      params.zeta_detuning)]
        mechanism = mech.value
    flags = ("--gamma", "--delta", "--zeta-l", "--zeta-m")
    flags = [f"{flag}={value!r}" for flag, value in zip(flags, medium)]
    return flags, mechanism, scale, max(scale, *map(abs, medium))


def drives(scale):
    """A drive: a moderate one in units of the medium's scale, or any magnitude."""
    return st.one_of(st.floats(0.0, 30.0).map(lambda w: w * scale), nonnegative())


@st.composite
def grids(draw, start, span):
    """A start:end:count grid of at most 5 distinct points from ``start``
    over ``span``, or a thousandth of the start where the span is smaller,
    ending at most at OMEGA_MAX."""
    first = draw(start)
    last = min(first + max(draw(span), abs(first) * 1e-3), OMEGA_MAX)
    return f"{min(first, 0.999 * last)!r}:{last!r}:{draw(st.integers(2, 5))}"


@st.composite
def spoiled(draw, args):
    """``args``, in about one example of eight with one value past its limits."""
    if draw(st.integers(0, 15)) not in (3, 11):
        return args
    at = draw(st.sampled_from([i for i, a in enumerate(args) if a.startswith("--") and "=" in a]))
    flag = args[at].split("=", 1)[0]
    return [*args[:at], f"{flag}={draw(st.sampled_from(INVALID))!r}", *args[at + 1:]]


@st.composite
def command_lines(draw, command):
    medium, mechanism, scale, _ = draw(media())
    if command == "peaks" and draw(st.booleans()):
        mechanism = "both"
    args = [command, *medium, "--mechanism", mechanism]
    if command == "spectrum":
        args += [f"--omega={draw(drives(scale))!r}",
                 "--branch", draw(st.sampled_from(["lower", "middle", "upper"]))]
        if draw(st.booleans()):
            args.append(f"--nu-grid={draw(grids(signed(), magnitudes()))}")
        if draw(st.booleans()):
            args += ["--normalize", "free-atom-max"]
    else:
        args.append(f"--omega={draw(grids(drives(scale), magnitudes()))}")
        if command == "peaks" and draw(st.booleans()):
            args.append("--free-atom-reference")
    return draw(spoiled(args))


@st.composite
def relax_lines(draw):
    """A relaxation that ends by 1 and by 10 over the largest rate of the
    medium and the drive: LSODA's work grows with that product, and a run
    of many periods fails only after seconds (exit 3, "Excess work")."""
    medium, mechanism, scale, rate = draw(media())
    omega = draw(drives(scale))
    t_end = min(1.0, draw(st.floats(1e-3, 10.0)) / max(rate, omega))
    args = ["dynamics", "--mode", "relax", *medium, "--mechanism", mechanism,
            f"--omega={omega!r}", f"--t-end={t_end!r}",
            "--samples", str(draw(st.integers(2, 4))),
            "--branch", draw(st.sampled_from(["ground", "lower", "upper"])),
            f"--perturb={draw(st.sampled_from([0.0, 1e-3, -0.5, 5e-324]))!r}"]
    return draw(spoiled(args))


def _no_constant(name):
    raise ValueError(f"{name} in the JSON output")


def _floats(value):
    """Every float in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _floats(v)
    elif isinstance(value, float):
        yield value


def _csv_floats(text):
    """Every cell and metadata value of a CSV file that parses as a float,
    and every float in the metadata values written as JSON; not the build
    id, a hex digest that may read as a float ("187e16654632")."""
    for line in text.splitlines():
        if line.startswith("# build: "):
            continue
        if line.startswith("# "):
            value = line.split(": ", 1)[1]
            try:
                yield from _floats(json.loads(value, parse_constant=_no_constant))
            except ValueError:
                with contextlib.suppress(ValueError):
                    yield float(value)
        else:
            for cell in line.split(","):
                with contextlib.suppress(ValueError):
                    yield float(cell)


def run(args, fmt, to_stdout):
    """Exit code and last stderr line of ``args`` in format ``fmt``, with
    the contract checked on the way."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out"
        argv = [*args, "--format", fmt, *(() if to_stdout else ("--out", str(target)))]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        written = sorted(p.name for p in Path(tmp).iterdir())
        text = out.getvalue() if to_stdout else (target.read_text() if written else "")
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    last = (err.getvalue().splitlines() or [""])[-1]
    if code == 0:
        assert written == ([] if to_stdout else ["out"]), (argv, written)
        if fmt == "json":
            document = json.loads(text, parse_constant=_no_constant)
            cells = [*_floats(document["meta"]), *_floats(document["data"])]
        else:
            cells = list(_csv_floats(text))
        assert all(map(math.isfinite, cells)), (argv, text[:2000])
    else:
        assert (out.getvalue(), written) == ("", []), argv
        assert last.startswith("iobspectra: "), (argv, last)
    return code, last


def check_both_formats(args, to_stdout):
    assert run(args, "csv", to_stdout) == run(args, "json", to_stdout), args


@pytest.mark.parametrize("command", ["hysteresis", "spectrum", "peaks"])
@settings(max_examples=70, deadline=None, derandomize=True)
@given(data=st.data(), to_stdout=st.booleans())
def test_closed_form_commands_keep_the_contract(command, data, to_stdout):
    check_both_formats(data.draw(command_lines(command)), to_stdout)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(args=relax_lines(), to_stdout=st.booleans())
def test_relaxations_keep_the_contract(args, to_stdout):
    check_both_formats(args, to_stdout)
