"""Record the answers the current code gives on every workload's pool.

    python3 perfbench/record.py

Writes expected.json: for each workload, a fingerprint of its inputs
and one answer digest per pool entry, which later runs must reproduce.
It refuses to record when any op raises or fails its own check.  Run it
only on code whose answers are trusted; the committed file was recorded
on the seed code.
"""

import json
import os
import sys

import runner
import workloads


def main() -> int:
    os.chdir(runner.ROOT)
    names = sorted(p.name for p in (runner.ROOT / "corpus").glob("*.txt"))
    expected = {"pool_seed": workloads.POOL_SEED, "corpus_files": names,
                "workloads": {}}
    failures = 0
    for workload in workloads.WORKLOADS:
        pool = workloads.build_pool(workload, expected)
        answers = [None] * len(pool)
        for i, _start, _spent, (problem, _ok, got) in runner.one_pass(
                workload, pool, range(len(pool)), runner.Cache(),
                lambda _i, op, item: op(item), runner.HostSpeed()):
            if problem is not None:
                print(f"{workload} op {i}: {problem}", file=sys.stderr)
                failures += 1
            answers[i] = got
        expected["workloads"][workload] = {
            "fingerprint": workloads.pool_fingerprint(workload, pool),
            "answers": answers}
        print(f"{workload}: {len(pool)} answers recorded")
    if failures:
        print(f"{failures} op(s) failed; nothing written", file=sys.stderr)
        return 1
    runner.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
