"""The package's public surface."""

import ast
from pathlib import Path

import sl2spectra


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(sl2spectra.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(imported) == sorted(sl2spectra.__all__)
