"""The installed package needs nothing beyond its declared dependencies.

CI installs the built wheel on a clean runner and imports the RB engine;
an undeclared third-party import anywhere in ``src`` fails that step.  This
module checks the same property statically, in tier-1.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _declared_dependencies() -> set[str]:
    """Top-level names of ``[project] dependencies`` in ``pyproject.toml``."""
    text = (REPO_ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block, "pyproject.toml declares no [project] dependencies"
    requirements = re.findall(r"\"([^\"]+)\"", block.group(1))
    return {re.split(r"[\s<>=!~\[;]", req, maxsplit=1)[0].lower().replace("-", "_") for req in requirements}


def _third_party_imports(path: Path) -> dict[str, int]:
    """Absolute, non-stdlib, non-``repro`` top-level modules a file imports → first line."""
    found: dict[str, int] = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names and top != "__future__":
                found.setdefault(top, node.lineno)
    return found


def test_declared_dependencies_parse():
    assert {"numpy", "scipy"} <= _declared_dependencies()


def test_src_imports_only_declared_dependencies():
    declared = _declared_dependencies()
    undeclared = [
        f"{path.relative_to(REPO_ROOT)}:{line} {name}"
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        for name, line in sorted(_third_party_imports(path).items())
        if name.lower() not in declared
    ]
    assert not undeclared, "imports of undeclared dependencies:\n" + "\n".join(undeclared)
