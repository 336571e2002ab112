"""Import weight of the package's modules, references to them, and the
dependencies they import."""

import ast
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import capfirm

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(capfirm.__path__))


def test_modules_do_not_import_scipy_stats():
    # importing scipy.stats costs ~0.4 s of every fresh process, and no
    # module needs it; a fresh interpreter shows what the modules pull in
    src = str(Path(capfirm.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            f"import {', '.join(f'capfirm.{name}' for name in MODULES)}\n"
            "print('scipy.stats' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_every_package_reference_names_a_module():
    # a capfirm.<name> in the package or its tests, in code or in a :mod:
    # reference of a docstring, names a module of the package; dunders such
    # as capfirm.__file__ are attributes
    stale = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            stale += [f"{path.relative_to(ROOT)}:{lineno}: capfirm.{name}"
                      for name in re.findall(r"\bcapfirm\.(\w+)", line)
                      if name not in MODULES and not name.startswith("__")]
    assert {"domain", "optim"} <= set(MODULES)
    assert stale == []


def test_declared_dependencies_are_the_imported_ones():
    # the top-level modules the package imports, less the standard library
    # and itself, are exactly the distributions pyproject.toml declares
    imported = set()
    for path in (ROOT / "src" / "capfirm").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= {*sys.stdlib_module_names, "capfirm"}
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group()
                    for spec in tomllib.load(f)["project"]["dependencies"]}
    assert imported == declared == {"numpy", "scipy"}
