"""Every module uses each name it imports, program code reads every
function and class the package defines, and no package module calls
``sample``: static checks over the package, the tools and the tests, since
no linter runs over them."""

import ast
from collections import Counter
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


def program_sources() -> list[Path]:
    """Program code: the package, the tools and the benchmark harness,
    without their tests."""
    paths = [ROOT / "src" / "agentchain", ROOT / "tools", ROOT / "perfbench"]
    return sorted(p for d in paths for p in d.glob("*.py") if not p.name.startswith("test_"))


def unread_definitions(modules: dict[str, ast.Module], program: list[ast.Module],
                       exported: set[str]) -> list[str]:
    """module.name for each top-level function or class of modules that no
    Name, Attribute or import in program reads, outside its own definition.
    Names in exported count as read: they are the package's public API."""
    reads = Counter(name for tree in program for name in _read_names(tree))
    outcome = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = sum(1 for name in _read_names(node) if name == node.name)
            if node.name not in exported and reads[node.name] == own:
                outcome.append(f"{module}.{node.name}")
    return sorted(outcome)


def _read_names(tree: ast.AST):
    """Each name that a Name, an Attribute or an import in tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)


def test_program_code_reads_every_function_and_class_the_package_defines():
    import agentchain

    trees = {path: ast.parse(path.read_text(), str(path)) for path in program_sources()}
    package = {p.stem: t for p, t in trees.items() if p.parent.name == "agentchain"}
    assert unread_definitions(package, list(trees.values()), set(agentchain.__all__)) == []
    # the detector sees each way of reading a name, and not a definition's own
    probe = ast.parse(
        "from m import imported\nimport pkg.dotted\ndef imported(): ...\ndef dotted(): ...\n"
        "def named(): ...\ndef attr(): ...\nclass Exported: ...\n"
        "def recursive(): recursive()\nclass Unread:\n    def named(self): ...\n"
        "named()\nx.attr\n"
    )
    assert unread_definitions({"p": probe}, [probe], {"Exported"}) == ["p.Unread", "p.recursive"]


def sample_calls(tree: ast.Module) -> list[int]:
    """The line of each call of a name or attribute ``sample``, such as
    ``rng.sample(pool, k)``."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "sample" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    )


def test_no_package_module_calls_sample():
    # every peer choice goes through dht._draw: Random.sample's draws,
    # without its per-call overhead or a copy of the pool
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src" / "agentchain").glob("*.py"))
        for line in sample_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []
    probe = ast.parse("rng.sample(pool, 2)\nrandom.sample(x, k=1)\nsample(x, 1)\nx.sample\nsampled(x)\n")
    assert sample_calls(probe) == [1, 2, 3]
