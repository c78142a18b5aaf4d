"""Every module uses each name it imports: a static check over the package
and the tests, since no linter runs over them."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds and the module never
    reads. Names listed in ``__all__`` count as read: they are re-exports."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    sources = sorted((ROOT / "src" / "agentchain").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    offenders = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sources
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []
    # the detector itself sees each way of binding a name, and each way of using one
    probe = ast.parse(
        "from __future__ import annotations\nimport os\nimport a.b\nfrom x import y as z\n"
        "from p import q, r\nimport s\n__all__ = ['q']\na.b.c()\ndef f(v: s.T) -> None: ...\n"
    )
    assert unused_imports(probe) == [(2, "os"), (4, "z"), (5, "r")]
