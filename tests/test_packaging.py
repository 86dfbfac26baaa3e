"""The package builds from pyproject.toml alone: setuptools' build_py ships
every module and the bundled data, and nothing compiled."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import psombor
from psombor.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_build_py_ships_every_module_and_the_data(tmp_path):
    # build_py writes an egg-info next to the sources, so build a copy.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    out = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "-q", "build_py", "--build-lib", "out"],
        cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr

    source = ROOT / "src" / "psombor"
    built = tmp_path / "out" / "psombor"
    expected = {p.name for p in source.glob("*.py")}
    expected |= {f"data/{p.name}" for p in (source / "data").glob("*.csv")}
    assert len([name for name in expected if name.startswith("data/")]) == 2
    shipped = {p.relative_to(built).as_posix() for p in built.rglob("*") if p.is_file()}
    assert shipped == expected  # so no .pyx, .c or compiled extension either


def test_one_version_string(capsys):
    # Read by regex: Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
    assert psombor.__version__ == version
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == f"psombor {version}\n"
