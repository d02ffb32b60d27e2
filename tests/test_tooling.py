"""The measurement harness under perfbench/ still fits the package."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from semiglue import toric

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


def test_workload_answers_match_the_recording(monkeypatch):
    # A change that alters one recorded answer of any workload fails
    # here, not first in a benchmark run.
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for name in ("chain_sweep", "toric_ideals", "oracle_check",
                 "corpus_cli"):
        record = expected["workloads"][name]
        pool = workloads.build_pool(name, expected)
        assert workloads.pool_fingerprint(name, pool) == \
            record["fingerprint"], name
        op, answer = workloads.WORKLOADS[name]
        for i, item in enumerate(pool):
            if name in workloads.CLEAR_CACHE_PER_OP:
                toric.toric_ideal_of_matrix.cache_clear()
            problem, _decided, got = answer(item, op(item))
            assert problem is None, (name, i, problem)
            assert got == record["answers"][i], (name, i)
