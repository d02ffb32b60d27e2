"""The measurement harness under perfbench/ still fits the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_spans_find_every_wrapped_name():
    # spans.py wraps names in the modules that call them, so a name a
    # refactor drops from one of those modules fails here, not first in
    # a traced benchmark run.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c", "from spans import Recorder; "
         "Recorder().install()"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
