"""The package's public surface."""

import ast
import importlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import sl2spectra
from sl2spectra import cli

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


def test_all_lists_exactly_the_imported_names():
    # __all__ is the table's 36 names, each read on first use from the module
    # the table names, which defines it
    assert sl2spectra.__all__ == sorted(sl2spectra._MODULE_OF)
    assert len(sl2spectra.__all__) == 36
    for name in sl2spectra.__all__:
        module = importlib.import_module(f"sl2spectra.{sl2spectra._MODULE_OF[name]}")
        assert getattr(sl2spectra, name) is getattr(module, name)
        assert getattr(module, name).__module__ == module.__name__, name
    assert set(sl2spectra.__all__) <= set(dir(sl2spectra))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sl2spectra.no_such_name


IMPORT_PROBE = """
import contextlib, io, json, sys
import sl2spectra
from sl2spectra import cli

scarf = ["--family", "scarf2", "--v1", "9.75", "--v2", "6"]
loaded = lambda: [name for name in ("numpy", "sl2spectra.oracle") if name in sys.modules]
out = {"loaded_after_import": loaded()}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    out["closed_form_exits"] = [cli.main(argv) for argv in (
        ["analyze", *scarf],
        ["scan", "--family", "scarf2", "--v1", "1", "--start", "0.1", "--stop", "2.5",
         "--step", "0.05"],
        ["analyze", "--family", "scarf2", "--v1", "9.75", "--v2", "nan"],
        ["verify", *scarf, "--from-file", "missing.csv"],
        ["analyze", *scarf, "--A", "5"],
    )]
    out["loaded_after_closed_form"] = loaded()
    out["wavefunction_exit"] = cli.main(["wavefunction", *scarf, "--n-points", "401"])
    out["loaded_after_wavefunction"] = loaded()
print(json.dumps(out))
"""


def _probe(code: str, cwd: Path):
    """The JSON that code prints, run in a fresh interpreter in cwd."""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_commands_load_neither_numpy_nor_the_oracle(tmp_path):
    out = _probe(IMPORT_PROBE, tmp_path)
    assert out["loaded_after_import"] == []
    # analyze, scan, a NaN coupling, a missing profile, an unread flag
    assert out["closed_form_exits"] == [0, 0, 2, 2, 2]
    assert out["loaded_after_closed_form"] == []
    assert out["wavefunction_exit"] == 0
    assert out["loaded_after_wavefunction"] == ["numpy", "sl2spectra.oracle"]
    alone = "import json, sys, sl2spectra.oracle; print(json.dumps('numpy' in sys.modules))"
    assert _probe(alone, tmp_path) is True


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


def _raises_by_function(path: Path) -> dict[str, list[ast.Raise]]:
    """The raise statements of a module, keyed by the dotted name of their enclosing def."""
    found: dict[str, list[ast.Raise]] = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                if isinstance(child, ast.Raise):
                    found.setdefault(owner, []).append(child)
                visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_every_raise_is_the_error_of_an_exit_code():
    # each failure raises the SpectraError subclass of its exit code where it
    # arises, or re-raises; AlgebraicSolution's invariants, which branch_rows
    # already ensures and no input reaches, stay ValueErrors that would show
    # as a traceback
    errors = {"InvalidSpec", "NoRegularBranch", "NoConvergence"}
    invariants, stray = [], []
    for path in sorted(Path(sl2spectra.__file__).parent.glob("*.py")):
        for owner, raises in _raises_by_function(path).items():
            for node in raises:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = None if exc is None else ast.unparse(exc)
                if name is None or name in errors:
                    continue
                where = f"{path.stem}.{owner}"
                if where == "families.AlgebraicSolution.__post_init__" and name == "ValueError":
                    invariants.append(node)
                elif where == "__init__.__getattr__" and name == "AttributeError":
                    continue  # PEP 562: the package has no such attribute
                else:
                    stray.append(f"{where}:{node.lineno} raises {name}")
    assert stray == []
    assert len(invariants) == 3


def test_cli_main_catches_spectra_error_alone():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [ast.unparse(handler.type)
                for node in ast.walk(main) if isinstance(node, ast.Try)
                for handler in node.handlers]
    assert handlers == ["SpectraError"]
    # one exit code per subclass, and no other subclass
    assert set(cli.EXIT_CODES) == set(sl2spectra.SpectraError.__subclasses__())
    assert len(set(cli.EXIT_CODES.values())) == len(cli.EXIT_CODES)
