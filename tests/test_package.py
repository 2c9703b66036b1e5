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
