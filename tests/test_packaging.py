"""The package metadata ships what the installed package needs.

Tests import from ``src/``, so a data file that no package-data glob
matches, or a console script naming a missing function, would pass here
and break only an installed copy.  These checks read ``pyproject.toml``
itself."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gstdesign"


def pyproject() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    return tomllib.loads((ROOT / "pyproject.toml").read_text())


def test_every_data_file_matches_a_package_data_glob():
    globs = pyproject()["tool"]["setuptools"]["package-data"]["gstdesign"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    data = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    assert data and data <= shipped, sorted(str(p.relative_to(PACKAGE)) for p in data - shipped)


def test_console_script_resolves_to_a_callable():
    scripts = pyproject()["project"]["scripts"]
    assert list(scripts) == ["gstdesign"]
    module, _, name = scripts["gstdesign"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))
