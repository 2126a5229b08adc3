"""The benchmark's tracer patches biasaudit attributes by name; a rename must fail here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_this_source_tree():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder('t'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
