"""Import hygiene: the package imports without numpy, importing the
package alone loads none of its modules, and no module imports a name it
never uses."""

import ast
import subprocess
import sys
from pathlib import Path

import blindbargain


def test_import_loads_no_numpy():
    # a fresh interpreter, so modules the test run already loaded do not count;
    # the cli imports every other module of the package, and builds its
    # argument parser on first use, not at import
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, blindbargain\n"
            "assert [m for m in sys.modules if m.startswith('blindbargain.')] == []\n"
            "import blindbargain.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "assert blindbargain.cli.build_parser.cache_info().currsize == 0",
        ],
        check=True,
        timeout=60,
    )


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"
                ):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        node.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(blindbargain.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_unused_import_check_flags_an_unused_name():
    assert _unused_imports("import secrets\nimport os\nos.getcwd()\n") == ["secrets (line 1)"]
