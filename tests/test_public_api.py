"""The package's public names: every one listed resolves, and once; and
no module reaches into a sibling's private names."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ["mobilabel", "mobilabel.maskcore", "mobilabel.initlabel", "mobilabel.io",
           "mobilabel.rescale", "mobilabel.aggregate", "mobilabel.metrics"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(module, n)] == []


# the JSON helpers that sibling modules still share: (importer, module, name)
SHARED_PRIVATE = {("cli", "io", "_dump_json"), ("rounds", "io", "_dump_json"),
                  ("rounds", "io", "_load_json"), ("rounds", "io", "_want")}


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(importlib.import_module("mobilabel").__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or not node.module:
                continue
            if node.level == 1:
                module = node.module
            elif node.level == 0 and node.module.startswith("mobilabel."):
                module = node.module.removeprefix("mobilabel.")
            else:
                continue
            found |= {(path.stem, module, a.name) for a in node.names if a.name.startswith("_")}
    assert found - SHARED_PRIVATE == set(), "private names imported across modules"
    assert SHARED_PRIVATE - found == set(), "allowed imports that no module makes any more"
