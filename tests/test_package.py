"""The package's public surface."""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

import sl2spectra
from sl2spectra import cli

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(sl2spectra.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(imported) == sorted(sl2spectra.__all__)


def test_benchmark_traced_names_exist():
    # `perfbench/run.py --trace 1` wraps each `tracer.wrap(<module or class>,
    # "<attr>", ...)` target of the worker and dies on a name the package lost
    targets = [
        (ast.unparse(node.args[0]), node.args[1].value)
        for node in ast.walk(ast.parse(WORKER.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "tracer.wrap"
        and ast.unparse(node.args[0]) != "traced_json"  # the worker's own copy of json
    ]
    assert ("oracle", "eigvals_complex") in targets
    for owner, attr in targets:
        module, *path = owner.split(".")
        obj = importlib.import_module(f"sl2spectra.{module}")
        for name in path:
            obj = getattr(obj, name)
        assert hasattr(obj, attr), f"{owner}.{attr}"


def test_benchmark_run_configs_use_existing_fields():
    # the closed-form-sweep workload builds `cli.RunConfig(...)` by keyword and
    # dies on a field the class lost
    keywords = [
        kw.arg
        for node in ast.walk(ast.parse(WORKER.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "cli.RunConfig"
        for kw in node.keywords
    ]
    assert "sweep" in keywords
    assert set(keywords) <= {f.name for f in fields(cli.RunConfig)}
