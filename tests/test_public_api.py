"""The public surface: every exported name resolves, the modules keep their
layers, and every demo runs."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["cryptodep", *(
    f"cryptodep.{name}" for name in ("analysis", "ingest", "model", "registry", "report", "rules")
)])
def test_every_exported_name_resolves(module):
    """A name left in ``__all__`` after its definition goes breaks the star
    import; the import raises here rather than in a user's code."""
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    del namespace["__builtins__"]
    exported = importlib.import_module(module).__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == namespace.keys()


def test_every_name_the_readme_imports_resolves():
    """A removed export must not leave the README importing it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    imports = re.findall(r"^from (cryptodep[\w.]*) import (\([^)]*\)|.+)$", readme, re.MULTILINE)
    assert imports
    for module, names in imports:
        for name in re.findall(r"\w+", names):
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_rules_owns_its_builder_and_reads_nothing_of_ingest():
    """The rule pass alone makes edges and the diagnostics of what it cannot
    place: no other module reaches for a private name of ``rules``, and
    ``rules`` builds on ``model`` alone, so ingest cannot grow a second copy
    of the rules on top of it."""
    for path in sorted((ROOT / "src" / "cryptodep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module, names = (node.module or "").removeprefix("cryptodep."), [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                module, names = "", [a.name.removeprefix("cryptodep.") for a in node.names]
            else:
                continue
            if path.stem == "rules":
                assert "ingest" not in (module, *names), path.name
            elif module == "rules":
                assert not [name for name in names if name.startswith("_")], path.name


def test_the_readers_build_on_model_alone():
    """Reading inventories and registries comes before the rules: ``ingest``
    and ``registry`` import nothing of ``rules``, ``analysis``, ``report``
    or ``cli``, so no reader decides again what the rule pass decides."""
    above = {"rules", "analysis", "report", "cli"}
    for stem in ("ingest", "registry"):
        tree = ast.parse((ROOT / "src" / "cryptodep" / f"{stem}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                named = {(node.module or "").removeprefix("cryptodep."), *(a.name for a in node.names)}
            elif isinstance(node, ast.Import):
                named = {a.name.removeprefix("cryptodep.") for a in node.names}
            else:
                continue
            assert not named & above, (stem, sorted(named & above))


def test_json_inputs_are_decoded_in_one_place():
    """A profile, an overlay, a policy and a horizon are decoded by
    ``ingest._json_document`` alone, so a malformed one reads the same
    whichever it is; ``registry``, whose documented reading also takes a
    Python literal, decodes its own.  Each ``loads`` is named by its module
    and the function around it."""
    readers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "loads" or (
                isinstance(child, ast.ImportFrom) and child.module == "json"
            ):
                readers.add(owner)
            visit(child, (owner[0], child.name) if isinstance(child, ast.FunctionDef) else owner)

    for path in sorted((ROOT / "src" / "cryptodep").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem, None))
    assert {owner for owner in readers if owner[0] != "registry"} == {("ingest", "_json_document")}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    run = subprocess.run(
        [sys.executable, f"demos/{demo}"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
    assert "Traceback" not in run.stdout + run.stderr
