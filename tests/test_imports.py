"""Every module in src/rtorch uses each name it imports (no dead imports) and
each public name it defines (no dead surface), the third-party packages it
imports are exactly the declared dependencies, and the CLI loads no heavy module
that no command needs: no command loads SciPy."""
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


# Code that may use a public rtorch name besides MODULES; tests do not count, so a name
# that only a test calls is dead.
OTHER_CODE = sorted({p for d in ("src", "scripts", "perfbench") for p in (REPO_ROOT / d).rglob("*.py")}
                    - set(MODULES))
# Public names kept for an acceptance criterion alone, each with the criterion that pins it.
DEAD_BY_DESIGN = {
    "admission.edf_bound": "criterion 03: the EDF bound the utilization test states",
    "reporting.histogram_modes": "criterion 06: runtime histogram shapes",
    "probability.buffer": "criterion 01: exact buffer arithmetic",
}
# The file that names rtorch functions as strings, in (module, name, ...) tables and getattr calls.
TRACING = "perfbench/tracing.py"


def public_definitions(source: str) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each public top-level def, class and assignment."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(name, node.lineno, node.end_lineno) for name in names if not name.startswith("_")]
    return found


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def mentions(where: str, source: str) -> list[tuple[str, str, int]]:
    """(module, name, line) of each use of an rtorch name in the file ``where``.

    A use is a name load in the module itself, ``from rtorch.module import name``
    (relative inside the package), ``alias.name`` where the alias is an imported
    rtorch module, or a string name in the tracing file's tables and getattr calls.
    A local variable, keyword argument or field that shares a name is no use.
    """
    tree = ast.parse(source)
    found = []
    aliases = {}  # dotted local name -> the rtorch module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rtorch."):
                    aliases[alias.asname or alias.name] = alias.name.removeprefix("rtorch.")
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module + ".").startswith("rtorch.")):
            module = node.module if node.level else node.module.removeprefix("rtorch").lstrip(".") or None
            for alias in node.names:
                if module is None:  # from rtorch import module
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    found.append((module, alias.name, node.lineno))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):  # counts for module ``where`` only
            found.append((where, node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and dotted(node.value) in aliases:
            found.append((aliases[dotted(node.value)], node.attr, node.lineno))
        elif where == TRACING and isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            module, name = (getattr(elt, "value", None) for elt in node.elts[:2])
            if isinstance(module, str) and isinstance(name, str):
                found.append((module, name, node.lineno))
        elif where == TRACING and isinstance(node, ast.Call) and dotted(node.func) == "getattr":
            target, name = node.args[:2]
            if isinstance(target, ast.Subscript) and isinstance(name, ast.Constant):
                found.append((getattr(target.slice, "value", None), name.value, node.lineno))
    return found


def dead_names(modules: dict[str, str], searched: dict[str, str]) -> list[str]:
    """``module.name`` for each public name of ``modules`` (module name -> source) that no
    file in ``searched`` (module name or path -> source) uses, by ``mentions``, outside
    the name's own definition."""
    lines: dict[tuple[str, str], list[int | None]] = {}  # (module, name) -> line in the module, or None
    for where, text in searched.items():
        for module, name, line in mentions(where, text):
            lines.setdefault((module, name), []).append(line if where == module else None)
    dead = []
    for module, source in modules.items():
        for name, first, last in public_definitions(source):
            if not any(line is None or not first <= line <= last for line in lines.get((module, name), [])):
                dead.append(f"{module}.{name}")
    return dead


def test_dead_name_checker_skips_a_name_own_definition():
    module = "def used():\n    return 1\n\n\ndef unused():\n    return unused\n\n\nX = used()\n_private = 0\n"
    searched = {"m": module, "other": "import rtorch.m as m\nprint(m.X, unused_too)\n"}
    assert dead_names({"m": module}, searched) == ["m.unused"]


def test_dead_name_checker_counts_imports_and_module_attributes_not_same_named_locals():
    module = "def buffer():\n    return 1\n\n\ndef imported():\n    return 2\n\n\ndef attribute():\n    return 3\n"
    other = (
        "from dataclasses import dataclass\n"
        "from rtorch.m import imported\n"
        "from rtorch import m\n"
        "@dataclass\nclass Verdict:\n    buffer: float\n"
        "buffer = 1.0\n"
        "print(buffer, Verdict(buffer=buffer).buffer, imported, m.attribute)\n"
    )
    assert dead_names({"m": module}, {"m": module, "other": other}) == ["m.buffer"]
    for user in ("from .m import buffer\n", "import rtorch.m\nrtorch.m.buffer()\n",
                 "import rtorch.m as mm\nmm.buffer()\n"):
        assert dead_names({"m": module}, {"m": module, "other": other + user}) == [], user
    traced = {TRACING: 'SPANS = (("m", "buffer", "m.buffer", None),)\n'}
    assert dead_names({"m": module}, {"m": module, "other": other, **traced}) == []
    traced = {TRACING: 'fn = getattr(modules["m"], "buffer", None)\n'}
    assert dead_names({"m": module}, {"m": module, "other": other, **traced}) == []


def test_every_public_name_is_used_outside_its_definition():
    modules = {path.stem: path.read_text() for path in MODULES}
    others = {str(path.relative_to(REPO_ROOT)): path.read_text() for path in OTHER_CODE}
    dead = dead_names(modules, {**modules, **others})
    assert sorted(set(dead) - set(DEAD_BY_DESIGN)) == []
    assert set(DEAD_BY_DESIGN) <= set(dead), "an exempt name is used now, or gone: drop its exemption"


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
