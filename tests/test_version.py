"""The package version has one source: ``repro.__version__``.

``pyproject.toml`` declares the version dynamic and points setuptools at
that attribute, so built metadata can never drift from the code.  The
file is read with regexes because Python 3.10 has no ``tomllib``.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _table(text: str, name: str) -> str:
    """Body of the ``[name]`` table (up to the next table header)."""
    match = re.search(rf"^\[{re.escape(name)}\]\s*$(.*?)(?=^\[|\Z)", text,
                      re.MULTILINE | re.DOTALL)
    assert match, f"pyproject.toml has no [{name}] table"
    return match.group(1)


def test_project_version_is_dynamic():
    project = _table(PYPROJECT.read_text(encoding="utf-8"), "project")
    assert not re.search(r"^version\s*=", project, re.MULTILINE), (
        "static [project] version would shadow repro.__version__")
    dynamic = re.search(r"^dynamic\s*=\s*\[([^\]]*)\]", project, re.MULTILINE)
    assert dynamic and '"version"' in dynamic.group(1)


def test_metadata_version_resolves_to_package_version():
    dynamic = _table(PYPROJECT.read_text(encoding="utf-8"),
                     "tool.setuptools.dynamic")
    match = re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"([\w.]+)"\s*\}',
                      dynamic, re.MULTILINE)
    assert match, "version must come from an attr in [tool.setuptools.dynamic]"
    module, _, attr = match.group(1).rpartition(".")
    assert getattr(importlib.import_module(module), attr) == repro.__version__
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
