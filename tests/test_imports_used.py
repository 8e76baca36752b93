"""Import scans. Every imported name is used, so a deletion leaves no stale
import behind; and no test or script imports scipy, so mpmath stays the one
exact reference the tests compare against.

No linter runs on this tree, so these scans stand in for its import checks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src/countfix", "tests", "scripts") for path in (ROOT / top).rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module neither reads nor exports."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    assert SOURCES, "no source files found"
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert unused == []


def _imported_modules(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level package) of each module an import statement loads."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [(node.lineno, a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append((node.lineno, node.module.partition(".")[0]))
    return modules


def test_no_test_or_script_imports_scipy():
    checked = [path for path in SOURCES if path.parts[len(ROOT.parts)] in ("tests", "scripts")]
    assert checked, "no test or script files found"
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in checked
        for line, module in _imported_modules(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if module == "scipy"
    ]
    assert found == []
