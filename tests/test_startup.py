"""The package and its CLI load on numpy alone; scipy is imported for tables only.

Checked in a fresh interpreter, by the modules it has loaded, not by wall time.
Every module also reads every name it imports, and some module reads every
private module-level name.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import vacmirror

_PROBE = """
import json, sys
import numpy as np
import vacmirror, vacmirror.cli

after_import = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
w = np.linspace(0.0, 4.0, 81)
model = vacmirror.SinglePoleMirror(1.0)
table = vacmirror.TabulatedMirror(w, model.s(w), model.r(w))
query = np.array([0.33, 1.71, 3.97])  # between the samples
s_pos, r_pos = table.s(query), table.r(query)
s_neg, r_neg = table.s(-query), table.r(-query)
print(json.dumps({
    "after_import": after_import,
    "interpolate_after_table": "scipy.interpolate" in sys.modules,
    "finite": bool(np.isfinite([s_pos, r_pos]).all()),
    "reality": bool(np.array_equal(s_neg, np.conj(s_pos)) and np.array_equal(r_neg, np.conj(r_pos))),
    "near_model": float(np.max(np.abs(np.array([s_pos, r_pos]) - [model.s(query), model.r(query)]))),
}))
"""


def test_import_loads_no_scipy_until_a_table_is_built():
    src = str(Path(vacmirror.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["after_import"] == []
    assert probe["interpolate_after_table"]
    assert probe["finite"] and probe["reality"]
    assert probe["near_model"] < 1e-4


def test_modules_read_every_name_they_import():
    # no linter runs on the package, so this guards against imports that a
    # deletion leaves behind; an import marked "# noqa: F401" is kept on purpose
    stale = []
    for path in sorted(Path(vacmirror.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    stale.append(f"{path.name}:{alias.lineno} {name}")
    assert stale == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_module_name_is_read():
    # a private function, class or constant that no module of the package
    # reads is dead code that a deletion left behind
    defined, read = [], set()
    for path in sorted(Path(vacmirror.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, node.lineno, name) for name in targets if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{file}:{line} {name}" for file, line, name in defined if name not in read]
    assert defined and unread == []
