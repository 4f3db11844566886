"""The package's public names, loaded on first use."""

from __future__ import annotations

import importlib
import sys

import pytest

import oasiskg


def test_every_export_is_its_home_modules_object():
    for name in oasiskg.__all__:
        obj = getattr(oasiskg, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("oasiskg."), name
        assert getattr(home, name) is obj, name


def test_dir_lists_every_export():
    assert set(oasiskg.__all__) <= set(dir(oasiskg))


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from oasiskg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(oasiskg.__all__)
    assert all(namespace[name] is getattr(oasiskg, name) for name in namespace)


def test_modules_import_as_before():
    from oasiskg import builder

    rdfio = importlib.import_module("oasiskg.rdfio")
    assert builder.check_capability is oasiskg.check_capability
    assert builder.CapabilityKind is oasiskg.CapabilityKind
    assert oasiskg.rdfio is rdfio


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        oasiskg.no_such_name  # noqa: B018
