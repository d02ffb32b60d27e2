"""The measurement harness under perfbench/ still fits the package."""

import ast
import importlib.util
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

from semiglue import toric
from support import random_gens

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


def test_a_traced_toric_ideal_keeps_its_spans_and_counters():
    # perfbench counts a saturation sweep as a binomial.buchberger span
    # directly under binomial.saturation, and reads the minimal
    # generators off the toric.minimal_generators span.  A refactor that
    # routes a sweep or the scan around a wrapped name fails here, not
    # later as a counter that silently reads zero.
    cols = [(3, 0, 1), (0, 2, 1), (1, 1, 0), (2, 0, 2), (0, 1, 3),
            (1, 3, 1), (2, 2, 0)]
    gens = toric.SemigroupGens.from_columns(cols)
    sweeps = len(toric._sweep_variables(
        toric.kernel_lattice_basis(gens.matrix), gens.count))
    script = (
        "import json\n"
        "from spans import NAME, PARENT, Recorder, summarize\n"
        "from semiglue import toric\n"
        "recorder = Recorder()\n"
        "recorder.install()\n"
        f"gens = toric.SemigroupGens.from_columns({cols!r})\n"
        "recorder.run_op(0, toric.toric_ideal, gens)\n"
        "spans = recorder.spans\n"
        "print(json.dumps([[s[NAME], None if s[PARENT] is None\n"
        "                   else spans[s[PARENT]][NAME]] for s in spans]))\n"
        "print(json.dumps({k: v for k, (v, unit) in\n"
        "                  summarize(recorder, 0, 1).items()\n"
        "                  if unit != 's'}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    spans, metrics = map(json.loads, done.stdout.splitlines())
    assert sweeps == 5
    assert spans.count(["binomial.buchberger", "binomial.saturation"]) == \
        sweeps
    assert spans.count(["toric.minimal_generators", "toric.toric_ideal"]) \
        == 1
    assert metrics["binomial.buchberger.calls"] == sweeps
    assert metrics["binomial.saturation.sweeps"] == sweeps
    assert metrics["toric.toric_ideal.calls"] == 1
    # the scan keeps mu of the reduced basis it is given, which the
    # minimal generators' ideal still holds
    t = toric.toric_ideal(gens)
    (held,) = t.ideal._bases.values()
    assert metrics["toric.minimal_generators.kept_ratio"] == \
        t.mu / len(held.raw) < 1


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


def test_box_walk_returns_one_pair_per_box_monomial():
    # spans.py counts toric.enumeration.monomials as the length of what
    # _monomials_in_box returns: one run (base, top, m) per node that has
    # taken every column but the last.  Expanded, the runs give one pair
    # (bound - A m, m) per m >= 0 with A m <= bound, and sum(top + 1)
    # of them.
    rng = random.Random(20261021)
    for _ in range(30):
        ambient = rng.randint(1, 3)
        gens = random_gens(rng, ambient, rng.randint(1, 4), 4)
        m = gens.matrix
        bound = tuple(rng.randint(0, 9) for _ in range(ambient))
        ranges = [range(min(b // x for b, x in zip(bound, col) if x) + 1)
                  for col in m.columns()]
        box = [e for e in product(*ranges)
               if all(d <= b for d, b in zip(m.matvec(e), bound))]
        runs = toric._monomials_in_box(m, bound, 10 ** 6)
        width = toric._width(bound)
        unit = 1 << (m.cols - 1) * width
        last = m.columns()[-1]
        rems, ms = [], []
        for base, top, x in runs:
            (lowest,) = toric._unpack([base], width, m.rows)
            for c in range(top + 1):
                rems.append(tuple(b + (top - c) * a
                                  for b, a in zip(lowest, last)))
                ms.append(x + c * unit)
        expanded = list(toric._unpack(ms, width, m.cols))
        assert sorted(expanded) == sorted(box)
        assert len(set(expanded)) == len(box)
        assert sum(top + 1 for _, top, _ in runs) == len(box)
        assert rems == [tuple(b - d for b, d in zip(bound, m.matvec(e)))
                        for e in expanded]


def test_the_packed_engine_stays_inside_binomial():
    # binomial owns the packed Groebner engine and its one driver: toric
    # reaches it only through raw-level functions, and the engine takes
    # a MonomialOrder, never a key function.
    engine = {"_Packing", "_widening", "_complete", "_gm_update",
              "_reduce_pair", "_packed"}
    trees = {path.stem: ast.parse(path.read_text())
             for path in (ROOT / "src" / "semiglue").glob("*.py")}
    imported = {alias.name for node in ast.walk(trees["toric"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & engine, imported & engine
    callers = [f"{name}:{node.lineno}" for name, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.Call)
               and "key_function" in (getattr(node.func, "attr", None),
                                      getattr(node.func, "id", None))]
    assert callers == []


def test_importing_the_cli_generates_no_value_class_code():
    # Frozen dataclasses compile their methods with exec when the class
    # is made, fractions pulls in decimal, and hashlib loads OpenSSL:
    # each CLI call paid for all three before any algebra ran, although
    # only the --json digest hashes.  Only the records that
    # dataclasses.replace copies stay dataclasses.
    script = (
        "import dataclasses, sys\n"
        "import semiglue.cli\n"
        "from semiglue.value import Value\n"
        "print(sorted({'fractions', 'decimal', 'hashlib', '_hashlib'}\n"
        "             & set(sys.modules)))\n"
        "classes = [c for name, m in list(sys.modules.items())\n"
        "           if name.startswith('semiglue') for c in vars(m).values()\n"
        "           if isinstance(c, type) and c.__module__ == name]\n"
        "print(sum(issubclass(c, Value) for c in classes if c is not Value))\n"
        "print(*sorted(f'{c.__module__}.{c.__name__}' for c in classes\n"
        "              if dataclasses.is_dataclass(c)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]", "13",
        "semiglue.gluing.ChainAudit semiglue.gluing.GluingReport "
        "semiglue.gluing.PairDecision semiglue.toric.GradedBinomialSet"]


def test_readme_library_example_runs():
    # The README's library example runs as written and prints the rho
    # and level its comments give; its last line prints the report's
    # homology, which is computed when read.
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines()
              if line.startswith("print(")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", block], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    assert len(printed) == len(prints), done.stdout
    for line, out in zip(prints, printed):
        if line.startswith(("print(report.rho)", "print(report.rho_level)")):
            assert out == line.split("#", 1)[1].strip(), (line, out)
        elif line.startswith("print(report.homology)"):
            assert out.startswith("HomologySummary(dim=3, "), out


def _changed_by_optimization(node: ast.AST) -> bool:
    """Return whether python -O drops or changes what the node does."""
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.Name):
        return node.id == "__debug__"
    if isinstance(node, ast.Attribute):
        return (node.attr == "flags" and isinstance(node.value, ast.Name)
                and node.value.id == "sys")
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(
            alias.name == "flags" for alias in node.names)
    return False


def test_the_package_has_no_assert_statement():
    # python -O drops assert statements and ``if __debug__:`` blocks, and
    # sys.flags.optimize tells the two modes apart, so every check in
    # src/ is an explicit raise and no answer reads the mode.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "semiglue").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _changed_by_optimization(node)]
    assert found == []


def test_the_package_reads_no_environment():
    # An answer comes from argv and the input file alone, so no module
    # imports os or names environ, getenv or putenv.
    banned = {"os", "environ", "getenv", "putenv"}
    found = []
    for path in sorted((ROOT / "src" / "semiglue").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0],
                         *(alias.name for alias in node.names)]
            elif isinstance(node, (ast.Attribute, ast.Name)):
                names = [node.attr if isinstance(node, ast.Attribute)
                         else node.id]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names if name in banned]
    assert found == []


def test_marked_tests_pass_under_optimization():
    # One python -O run of every test marked optimized; under -O this
    # test has nothing to add, so it cannot start itself again.
    if sys.flags.optimize:
        return
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-m", "optimized",
         "-p", "no:cacheprovider", "tests/"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert " passed" in done.stdout.splitlines()[-1], done.stdout[-400:]
