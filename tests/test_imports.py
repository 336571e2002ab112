"""Import weight of the package's modules, and references to them."""

import pkgutil
import re
import subprocess
import sys
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
