"""The package stays stdlib-only: every absolute import in
``src/streammatch`` names a module of the standard library.  Importing
one pipeline loads none of the other's modules."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "streammatch"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, f"no modules under {PACKAGE}"
    for path in files:
        for name in _absolute_imports(path):
            assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_the_insert_only_pipeline_loads_no_dynamic_module():
    # The package init re-exports nothing, so importing one pipeline does
    # not load the other.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "import streammatch.streams, streammatch.insertonly\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    loaded = set(out.stdout.split())
    assert "streammatch.insertonly" in loaded
    for name in ("streammatch.dynamic", "streammatch.partition", "streammatch.trials"):
        assert name not in loaded
