"""The benchmark's modules import against this checkout's library.

``bench/`` lies outside pytest's testpaths, so a public name deleted
from ``egadm`` that ``bench/`` still imports would pass every other
test.  ``run.py`` is left out: it sets BLAS thread variables at import.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_modules_import():
    code = (
        "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import tracing, workloads"
    ).format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
