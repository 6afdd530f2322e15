"""The package's public names: every one listed resolves, and once."""

import importlib

import pytest

MODULES = ["mobilabel", "mobilabel.maskcore", "mobilabel.initlabel", "mobilabel.io",
           "mobilabel.rescale", "mobilabel.aggregate", "mobilabel.metrics"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(module, n)] == []
