"""No module of ``beamdiv`` imports a name it never uses; the linter's F401, as an AST scan."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "beamdiv"
# Imported only so that perfbench's tracer can wrap them in these modules' namespaces.
TRACED_IMPORTS = {
    ("cli.py", "optimal_divergence"), ("cli.py", "rule_of_thumb_divergence"),
    ("sim.py", "max_rate"), ("sim.py", "received_power_dbm"),
}


def _imports(path):
    """``{(module file, bound name): exempt}`` for every import in the module, at any depth."""
    text = path.read_text()
    lines = text.splitlines()
    found = {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            exempt = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                found[path.name, (alias.asname or alias.name).split(".")[0]] = exempt
    return found


def _used(path):
    """Every name the module's code mentions, plus the strings of its ``__all__``."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_every_import_is_used():
    unused, exempt = set(), set()
    for path in sorted(SRC.glob("*.py")):
        used = _used(path)
        for site, noqa in _imports(path).items():
            if noqa:
                exempt.add(site)
            if site[1] not in used:
                unused.add(site)
    assert sorted(unused - exempt) == []
    # The only exemptions are the traced imports, and each is still unused.
    assert exempt == TRACED_IMPORTS
    assert exempt <= unused
