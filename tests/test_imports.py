"""Import weight of the package's modules."""

import subprocess
import sys
from pathlib import Path

import capfirm


def test_modules_do_not_import_scipy_stats():
    # importing scipy.stats costs ~0.4 s of every fresh process, and no
    # module needs it; a fresh interpreter shows what the modules pull in
    src = str(Path(capfirm.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import capfirm.config, capfirm.controller, capfirm.planner, "
            "capfirm.pvusa, capfirm.scenarios\n"
            "print('scipy.stats' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
