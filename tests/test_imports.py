"""Every name a module of the package imports is used in that module. This
stands in for the CI pyflakes step where pyflakes is not installed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "islt"


def unused_imports(source: str) -> list[str]:
    """Each imported name that the module never reads, as 'line: name'. A
    name read only inside a string, such as a quoted annotation or an
    __all__ entry, counts as unread."""
    tree = ast.parse(source)
    imported = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "__future__":
            continue
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            for alias in n.names:
                imported[alias.asname or alias.name.split(".")[0]] = n.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_a_planted_unused_import():
    source = (PACKAGE / "cut.py").read_text(encoding="utf-8")
    planted = source.replace("from functools import partial\n", "from functools import partial, reduce\n", 1)
    assert planted != source
    assert [u.split(": ")[1] for u in unused_imports(planted)] == ["reduce"]


def test_no_module_imports_a_name_it_does_not_use():
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: u for name, u in found.items() if u} == {}
