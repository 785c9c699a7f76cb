"""The names ``perfbench/run.py`` reads from the library.

The benchmark wraps functions of the library by name and reads
``_kernels.NUMBA_ENABLED`` to name the backend. A name it cannot wrap drops
its per-layer metrics, and a missing attribute it reads ends the run without
a result line, so removing one must fail here rather than in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
sys.path.insert(0, "perfbench")
import run
lib = run.import_library()
tracer = run.Tracer()
run.install_tracer(tracer, lib)
print(json.dumps({"absent": tracer.absent,
                  "NUMBA_ENABLED": repr(lib["_kernels"].NUMBA_ENABLED)}))
"""


def test_benchmark_finds_every_name_it_uses():
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["absent"] == []
    assert probe["NUMBA_ENABLED"] == "False"
