"""Every module in src/rtorch uses each name it imports (no dead imports), the
third-party packages it imports are exactly the declared dependencies, and the
CLI loads no heavy module that no command needs: no command loads SciPy."""
import ast
import json
import os
import re
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


def test_no_module_imports_scipy_at_module_level():
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name


def test_no_command_loads_scipy(tmp_path):
    """simulate under the Monte Carlo orchestrator, then analyze and a Monte Carlo plan, in one process."""
    scenario = json.loads((REPO_ROOT / "scenarios" / "conveyor.json").read_text())
    scenario["orchestrator"]["strategy"] = "monte_carlo"
    scenario["orchestrator"]["mc_samples"] = 300
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "run"
    probe = f"""
import contextlib, io, json, sys
from rtorch import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["simulate", "--scenario", {str(path)!r}, "--duration-us", "6000000",
                       "--out", {str(out)!r}]),
             cli.main(["analyze", {str(out / "runtimes.csv")!r}, "--period-us", "100000"]),
             cli.main(["plan", "--scenario", {str(path)!r}, "--strategy", "monte_carlo"])]
print(json.dumps({{"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                            timeout=120, check=True)
    report = json.loads(result.stdout)
    assert report["codes"][1:] == [0, 0] and report["codes"][0] in (0, 2)
    # the runtime search ran: some epoch breached and took a Monte Carlo decision
    decisions = [json.loads(line) for line in (out / "decisions.jsonl").read_text().splitlines()]
    assert any(d["decision"] is not None for d in decisions)
    assert report["scipy"] == []


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"rtorch"}
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"]}
    assert third_party == declared
