"""The shipped package never reaches the autograd tape.

The tape lives in ``tests/oracle`` as the reference the closed-form
passes are checked against.  These tests fail if a module under
``src/repro`` imports it (or the removed ``repro.nn`` tape modules), or
if importing the package's entry points loads any of them.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
TAPE_MODULES = ("tests", "repro.nn.tensor", "repro.nn.ops",
                "repro.nn.losses")


def _is_tape(module: str) -> bool:
    return any(module == name or module.startswith(name + ".")
               for name in TAPE_MODULES)


def _imports(tree: ast.AST, package: str):
    """Every absolute module name a module's import statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_no_src_module_imports_the_tape():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = []
    for path in modules:
        rel = path.relative_to(SRC.parent).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        package = ".".join(rel.parts[:-1])
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [f"{'.'.join(parts)} imports {name}"
                      for name in _imports(tree, package) if _is_tape(name)]
    assert not offenders, offenders


def test_importing_the_package_loads_no_tape_module():
    code = (
        "import json, sys\n"
        "import repro, repro.cli, repro.baselines, repro.transfer\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=SRC.parent).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert "repro.baselines" in loaded
    assert [name for name in loaded if _is_tape(name)] == []
