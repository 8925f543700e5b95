"""Every module in src/rtorch uses each name it imports (no dead imports), and
the CLI loads no heavy module that no command needs."""
import ast
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "rtorch").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_unused_and_accepts_used():
    source = "import math\nfrom typing import Mapping, Sequence\nx: Mapping = math.pi\n"
    assert unused_imports(source) == ["line 2: Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_leaves_out_scipy_signal():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, rtorch.cli; print('scipy.signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                            timeout=60, check=True)
    assert result.stdout.strip() == "False"
