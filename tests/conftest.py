"""The one way the tests start a child Python process, and the README's commands."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import iobspectra

ROOT = Path(__file__).resolve().parents[1]


def python(*args, env=(), **kwargs):
    """``python *args`` in a child process that imports this checkout's
    package, with ``env`` added to the environment; text output captured."""
    src = str(Path(iobspectra.__file__).resolve().parents[1])
    env = dict(os.environ, **dict(env))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    kwargs.setdefault("timeout", 120)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


def readme_commands():
    """The arguments of each ``iobspectra`` command in the ``sh`` block of
    README.md's "## CLI" section, in order; a line ending in ``\\`` goes on."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("\n```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("iobspectra ")]


def console_script(name):
    """The ``module:function`` of ``name`` in pyproject.toml's ``[project.scripts]``,
    read as text: Python 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    targets = (line.split("=", 1) for line in section.splitlines() if "=" in line)
    return {k.strip(): v.strip().strip('"') for k, v in targets}[name]
