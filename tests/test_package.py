"""The package namespace: every export resolves lazily to its defining module's object."""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import hausnum


def test_table_lists_each_export_once():
    names = [name for names in hausnum._EXPORTS.values() for name in names]
    assert len(names) == len(set(names))
    assert set(names) == set(hausnum.__all__) - {"BACKEND_NAME"}


def test_exports_are_the_defining_modules_objects():
    for module, names in hausnum._EXPORTS.items():
        defining = importlib.import_module(f"hausnum.{module}")
        for name in names:
            value = getattr(hausnum, name)
            assert value is getattr(defining, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == defining.__name__, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from hausnum import *", namespace)
    for name in hausnum.__all__:
        assert namespace[name] is getattr(hausnum, name), name


def test_dir_lists_every_export():
    assert set(hausnum.__all__) <= set(dir(hausnum))


def test_submodules_resolve_after_plain_import():
    # A fresh interpreter, so no test has imported the submodules already.
    names = sorted(hausnum._SUBMODULES)
    proc = subprocess.run(
        [sys.executable, "-c", "import hausnum\n"
         f"print(*(getattr(hausnum, name).__name__ for name in {names!r}))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"hausnum.{name}" for name in names]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hausnum.no_such_name


def test_readme_states_the_caps_of_limits():
    """The size caps the README gives in prose are those of ``limits.py``."""
    from hausnum.limits import ENUM_MAX_POINTS, MAX_OPENS, ORACLE_MAX_POINTS, TABLE_MAX_POINTS

    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    for phrase in (f"all topologies on up to {ENUM_MAX_POINTS} labeled points",
                   f"count tables by Hausdorff number up to {TABLE_MAX_POINTS} points",
                   f"against the exhaustive definition (n <= {ORACLE_MAX_POINTS})",
                   f"up to {ORACLE_MAX_POINTS} points, the oracle's cross-check",
                   f"independent ground truth (n <= {ORACLE_MAX_POINTS})",
                   f"`MAX_OPENS` = {MAX_OPENS:,} sets"):
        assert phrase in text
