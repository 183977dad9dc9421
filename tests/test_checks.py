"""Whether an input number is finite is decided in one module, ``beamdiv._checks``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "beamdiv"


def _isfinite_calls(path):
    """(module file, enclosing function) of every ``isfinite`` call, ``math.`` or ``np.``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            callee = getattr(child, "func", None)
            if getattr(callee, "attr", getattr(callee, "id", None)) == "isfinite":
                found.append((path.name, where))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_isfinite_only_in_the_helper_module():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "_checks.py"]
    calls = [call for path in modules for call in _isfinite_calls(path)]
    # max_rate tests the rate it computed, not an input.
    assert calls == [("link_budget.py", "max_rate")]
