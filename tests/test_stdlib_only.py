import ast
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_package_needs_only_the_standard_library():
    """Every absolute import in src/nakayama is the standard library or the
    package itself, and pyproject.toml declares no runtime dependency."""
    for path in sorted((ROOT / "src" / "nakayama").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "nakayama", (path.name, name)
    assert "dependencies = []" in (ROOT / "pyproject.toml").read_text().splitlines()
