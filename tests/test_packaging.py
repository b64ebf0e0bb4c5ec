"""Promises about the package as shipped: runtime imports stay in the
standard library, and the README's library tour runs and prints what it
says it prints."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ghwkit"


def test_runtime_imports_are_stdlib_or_relative():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name}:{node.lineno} imports {name}"


def test_readme_library_tour():
    """Runs the tour line by line; a line whose comment is a Python literal
    must evaluate to that literal."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        try:
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            expected = None
        statement = ast.parse(code.strip()).body[0]
        if isinstance(statement, ast.Expr) and expected is not None:
            assert eval(code.strip(), namespace) == expected, line
            checked += 1
        else:
            exec(code.strip(), namespace)
    assert checked >= 5
