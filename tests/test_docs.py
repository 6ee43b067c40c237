"""Documentation-site integrity (the stdlib half of the docs CI job).

``mkdocs build --strict`` runs in CI where mkdocs can be installed; this
module keeps the dependency-free invariants — nav completeness, link/anchor
integrity, docstring coverage of the public API surface — inside the tier-1
suite so documentation rot fails fast, locally.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "docs" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


def test_docs_site_integrity():
    """Every nav page exists, no orphans, all relative links/anchors resolve."""
    checker = _load_checker()
    failures = checker.check_docs()
    assert not failures, "\n".join(failures)


def test_docs_nav_covers_required_pages():
    """The pages the satellite tasks promise are present in the nav."""
    checker = _load_checker()
    pages = set(checker.nav_pages())
    for required in ("index.md", "quickstart.md", "architecture.md",
                     "howto-rb-irb.md", "caching.md", "api.md"):
        assert required in pages, f"{required} missing from mkdocs nav"


def test_public_api_docstring_coverage():
    """Mirror of the blocking ruff D1 check (which CI runs with real ruff).

    Every public module/class/function/method in ``benchmarking/``,
    ``backend/``, ``qobj/`` and ``solvers/`` must carry a docstring.
    """
    targets = [
        path
        for package in ("benchmarking", "backend", "qobj", "solvers")
        for path in sorted((REPO_ROOT / "src/repro" / package).glob("*.py"))
    ]
    assert targets, "target modules not found"
    missing: list[str] = []

    def walk(path: Path, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not child.name.startswith("_") and not ast.get_docstring(child):
                    missing.append(f"{path.name}:{child.lineno} {child.name}")
                walk(path, child)

    for path in targets:
        tree = ast.parse(path.read_text())
        if not ast.get_docstring(tree):
            missing.append(f"{path.name}: module docstring")
        walk(path, tree)
    assert not missing, "missing public docstrings:\n" + "\n".join(missing)


def _unused_imports(path: Path) -> list[str]:
    """Imports of one module that no name, string annotation or ``__all__`` uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    quoted: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa" in lines[alias.lineno - 1] or "# noqa" in lines[node.lineno - 1]:
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            quoted += [
                c.value for c in ast.walk(annotation)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ]
    for text in quoted:
        used.update(n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name))
    return [
        f"{path.relative_to(REPO_ROOT)}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_unused_imports_in_src():
    """Mirror of the blocking ``ruff check --select F401 src`` step.

    Package ``__init__.py`` files are skipped: their imports are the
    re-exports that make up each package's public surface.
    """
    unused = [
        entry
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)
