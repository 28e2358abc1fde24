"""The package namespace: each public name and submodule is imported on first use."""

import importlib
import sys

import pytest

import kneescout

SUBMODULES = ("baconwatts", "earlypredict", "errors", "ingest", "matrixprofile", "preprocess",
              "report", "rules", "segmentation", "synthgen")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from kneescout import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == kneescout.__all__
    assert len(kneescout.__all__) == 47


def test_each_name_is_its_owners_object():
    for module, names in kneescout._EXPORTS.items():
        owner = importlib.import_module(f"kneescout.{module}")
        for name in names:
            assert getattr(kneescout, name) is getattr(owner, name), name


def test_submodules_resolve():
    for module in SUBMODULES:
        assert getattr(kneescout, module) is sys.modules[f"kneescout.{module}"]
    assert set(kneescout._EXPORTS) == set(SUBMODULES)
    assert set(dir(kneescout)) >= {*SUBMODULES, *kneescout.__all__, "__version__"}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'kneescout' has no attribute 'nope'$"):
        kneescout.nope


def test_a_name_can_be_replaced_and_restored():
    # perfbench's tracer wraps package names this way
    original = kneescout.identify_knees
    try:
        kneescout.identify_knees = len
        assert kneescout.identify_knees is len
    finally:
        kneescout.identify_knees = original
    assert kneescout.identify_knees is original
    assert original is kneescout.segmentation.identify_knees
