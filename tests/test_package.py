import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cassirecon"


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("cassirecon"):
                continue
            found += [
                f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []
