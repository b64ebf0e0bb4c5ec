"""Promises about the package as shipped: runtime imports stay in the
standard library, the README's library tour runs and prints what it says
it prints, and every name the benchmark looks up exists."""

import ast
import importlib
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


# Names `perfbench/run.py` and `perfbench/spans.py` look up on the package.
# The benchmark tolerates a missing one (the oracle check switches off, a
# span reads 0 or a per-layer ratio divides by zero), so it is pinned here.
BENCHMARK_NAMES = {
    "ghwkit.cli": ("parse_code_file", "analysis_report"),
    "ghwkit.bounds": ("certify_optimal",),
    "ghwkit.locality": ("locality", "covering_rows", "UncoverableCoordinateError"),
    "ghwkit.ghw": ("weight_hierarchy", "dual_hierarchy_values", "ghw_oracle"),
    "ghwkit.algebra": ("Field", "Matrix.rref", "Matrix.nullspace"),
    "ghwkit.code": ("LinearCode", "LinearCode.dual"),
}


def test_names_the_benchmark_looks_up_exist():
    bench = "".join((ROOT / "perfbench" / f).read_text(encoding="utf-8")
                    for f in ("run.py", "spans.py"))
    for module, names in BENCHMARK_NAMES.items():
        for name in names:
            obj = importlib.import_module(module)
            for part in name.split("."):
                assert hasattr(obj, part), f"{module}.{name} is gone"
                obj = getattr(obj, part)
            assert callable(obj), f"{module}.{name}"
            assert name.split(".")[-1] in bench, f"the benchmark no longer uses {name}"
