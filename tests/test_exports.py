"""Export lists: every listed name resolves, and no list repeats one."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import openloop

MODULES = ["openloop"] + [f"openloop.{m.name}" for m in pkgutil.iter_modules(openloop.__path__)]


def test_the_scan_sees_the_modules():
    assert {"openloop.errors", "openloop.linkpat", "openloop.transfer"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
