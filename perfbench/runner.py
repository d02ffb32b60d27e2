"""Run one pass of a workload in this process and print its raw figures.

Started by run.py as a fresh child process for every pass:

    python3 perfbench/runner.py WORKLOAD SEED PASS TRACE

A pass runs every op of the workload's pool once.  Pass 1 visits the
pool in its recorded order, so peak RSS, read when the pass ends, does
not depend on the seed: the cache fills as a pass goes, and the peak
depends on where the largest ops fall.  Later passes follow an order
drawn from the seed and the pass number.  Because every pass is a fresh
process, nothing a pass leaves in the library's caches can be timed by
the next one, as every CLI call starts a fresh process too.  Each op is
timed alone; its answer is checked after the clock stops, and its time
is scaled to the host's reference speed (speed.HostSpeed).  With TRACE
1 the layer boundaries are wrapped, and the spans are written to
.perfbench-out/ when the pass ends.
"""

import gzip
import json
import os
import pathlib
import random
import resource
import sys
import traceback
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import semiglue  # noqa: E402
from semiglue import toric  # noqa: E402

import workloads  # noqa: E402
from speed import HostSpeed  # noqa: E402

EXPECTED = pathlib.Path(__file__).resolve().parent / "expected.json"
OUT_DIR = ROOT / ".perfbench-out"
# The cached function itself; a traced run replaces the module attribute.
TORIC_CACHE = toric.toric_ideal_of_matrix


class Cache:
    """Clears the toric cache and keeps its hit counts across clears."""

    def __init__(self):
        self.hits = self.misses = 0

    def clear(self):
        info = TORIC_CACHE.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        TORIC_CACHE.cache_clear()


def load_pool(workload):
    """Return the pool and its recorded answers; exit if the inputs drifted."""
    expected = json.loads(EXPECTED.read_text())
    pool = workloads.build_pool(workload, expected)
    record = expected["workloads"][workload]
    if workloads.pool_fingerprint(workload, pool) != record["fingerprint"]:
        sys.exit(f"{workload}: the pool differs from the one recorded in "
                 f"{EXPECTED.name}; its answers cannot be checked")
    return pool, record["answers"]


def pass_order(size, seed, pass_no):
    """Return the order of pass pass_no: recorded first, then seeded."""
    order = list(range(size))
    if pass_no == 1:
        return order
    return random.Random(f"{seed}:{pass_no}").sample(order, size)


def one_pass(workload, pool, order, cache, call, speed):
    """Run the given ops of the pool; yield (index, start, seconds, answer).

    For corpus_cli the toric cache is cleared before every file, since
    each CLI call is a fresh process.
    """
    op, answer = workloads.WORKLOADS[workload]
    per_op = workload in workloads.CLEAR_CACHE_PER_OP
    for i in order:
        if per_op:
            cache.clear()
        speed.tick()
        start = perf_counter()
        try:
            out = call(i, op, pool[i])
        except Exception:
            seconds = perf_counter() - start
            yield i, start, seconds, (
                "raised:\n" + traceback.format_exc(), False, None)
            continue
        seconds = perf_counter() - start
        yield i, start, seconds, answer(pool[i], out)


def failure(problem, got, recorded):
    """Return why an op failed, or None when its answer is the recorded one."""
    if problem is None and got != recorded:
        problem = f"answer {got} differs from recorded {recorded}"
    return problem


def run(workload, seed, pass_no, trace):
    pool, recorded = load_pool(workload)
    cache = Cache()
    recorder = None
    if trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()

        def call(i, op, item):
            return recorder.run_op(i, op, item)
    else:
        def call(_i, op, item):
            return op(item)

    timed = []
    speed = HostSpeed()
    decided = 0
    problems = []
    for i, start, spent, (problem, ok, got) in one_pass(
            workload, pool, pass_order(len(pool), seed, pass_no), cache,
            call, speed):
        timed.append((i, start, spent))
        problem = failure(problem, got, recorded[i])
        if problem is not None:
            problems.append(f"{workload} op {i}: {problem}")
        decided += ok
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed.tick(force=True)
    cache.clear()
    for line in problems[:5]:
        print(line, file=sys.stderr)

    result = {
        "pool": len(pool),
        "failed": len(problems),
        "decided": decided,
        "peak_rss_mb": peak_kb / 1024,
        # (input index, scaled seconds, unscaled seconds) per op
        "ops": [(i, spent * speed.scale(start, start + spent), spent)
                for i, start, spent in timed],
    }
    if recorder is not None:
        result["layers"] = spans.summarize(recorder, cache.hits,
                                           cache.misses)
        write_spans(workload, seed, pass_no, recorder)
    return result


def write_spans(workload, seed, pass_no, recorder):
    """Write the recorded spans, one JSON list per line."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}-pass{pass_no}.jsonl.gz"
    with gzip.open(path, "wt") as handle:
        handle.write(json.dumps(["name", "start", "end", "parent", "op",
                                 "raised"]) + "\n")
        for rec in recorder.spans:
            handle.write(json.dumps(rec) + "\n")


def main(argv):
    workload, seed, pass_no, trace = argv
    os.chdir(ROOT)
    if not pathlib.Path(semiglue.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"semiglue was imported from {semiglue.__file__}, "
                 f"not from {SRC}")
    result = run(workload, int(seed), int(pass_no), trace == "1")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
