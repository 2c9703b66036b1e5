"""Checks on the package source as a whole."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gf3sets

SOURCES = sorted(Path(gf3sets.__file__).parent.glob("*.py"))


def _private_defs_and_names():
    defs, names = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defs.add(name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return defs, names


def test_every_private_function_has_a_caller():
    defs, names = _private_defs_and_names()
    assert len(defs) > 50
    assert sorted(defs - names) == []


def test_every_module_level_function_has_a_caller_or_is_exported():
    # a reference counts from anywhere in the package but the function's
    # own body; core.blocked_cover_bits is kept for the benchmark's tracer,
    # which wraps it by name
    exempt = {("core", "blocked_cover_bits")}
    defs, refs = [], {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            owner = (path.stem, getattr(node, "name", None))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.setdefault(sub.id, set()).add(owner)
                elif isinstance(sub, ast.Attribute):
                    refs.setdefault(sub.attr, set()).add(owner)
    assert len(defs) > 100
    uncalled = [(mod, name) for mod, name in defs
                if not refs.get(name, set()) - {(mod, name)}
                and name not in gf3sets.__all__]
    assert sorted(uncalled) == sorted(exempt)


def test_import_loads_no_process_pool():
    # the pool's modules are imported only by a run that forks
    code = (
        "import sys\n"
        "import gf3sets\n"
        "pool = {'concurrent.futures', 'concurrent.futures.process', 'multiprocessing'}\n"
        "loaded = sorted(pool & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(gf3sets.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", code],
        check=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
