"""Show that the benchmark catches wrong answers and follows real cost.

    python3 perfbench/selftest.py

For each workload one library entry point is replaced by a version that
gets one pool entry wrong, the way a broken change could; the entry must
then fail its check while an untouched entry beside it passes.  A traced
pass then checks that the layers' self times plus the unattributed
remainder add up to the ops' wall time.  Last, toric_ideals ops are
timed beside copies with a planted doubling of their cost, which must
double their scaled time, and beside copies that leave many small
objects alive after the op, which must leave the host-speed probe and
so the scaled time alone.  Exits 1 on any miss.
"""

import dataclasses
import os
import statistics
import sys
from time import perf_counter

import runner
import spans
import workloads
from semiglue import binomial, cli, gluing, toric
from speed import HostSpeed

# toric_ideals entries timed by the scaling check; the toric cache is
# cleared before each op, so every op does its whole work.
SCALE_ENTRIES = range(40)
SCALE_ROUNDS = 2
# Small objects kept alive after each planted op, as a growing cache
# would: about 1.5 MB per op.
KEPT_PER_OP = 20_000


def planted(module, attr, wrong):
    """Return a replacement for module.attr that applies wrong(args, out)."""
    real = getattr(module, attr)

    def fake(*args, **kwargs):
        return wrong(args, real(*args, **kwargs))

    return real, fake


def failures(workload, indices, module, attr, wrong):
    """Run the given pool entries with a planted fault; return who failed."""
    pool, recorded = runner.load_pool(workload)
    real, fake = planted(module, attr, wrong)
    setattr(module, attr, fake)
    try:
        found = []
        for i, _start, _spent, (problem, _ok, got) in runner.one_pass(
                workload, pool, indices, runner.Cache(),
                lambda _i, op, item: op(item), runner.HostSpeed()):
            if runner.failure(problem, got, recorded[i]) is not None:
                found.append(i)
        return found
    finally:
        setattr(module, attr, real)


def doubled(real):
    """Return toric_ideal computing every ideal twice, the cache cleared."""
    def op(gens):
        real(gens)
        runner.TORIC_CACHE.cache_clear()
        return real(gens)
    return op


def interleaved(pool, variants):
    """Time every entry under each variant in turn, a probe after each op.

    A variant is an op and a function run after its clock stops.
    Returns, per variant, each entry's scaled seconds and the length of
    the probe that ran right after it.  Running the variants side by
    side, entry by entry, lets them share the host's speed.
    """
    speed = HostSpeed()
    timed = [[] for _ in variants]
    after = [[] for _ in variants]
    for i in SCALE_ENTRIES:
        for v, (op, leave) in enumerate(variants):
            runner.TORIC_CACHE.cache_clear()
            start = perf_counter()
            op(pool[i])
            timed[v].append((start, perf_counter() - start))
            leave()
            speed.tick(force=True)
            after[v].append(speed.lengths[-1])
    speed.tick(force=True)
    scaled = [[spent * speed.scale(start, start + spent)
               for start, spent in runs] for runs in timed]
    return scaled, after


def scale_checks():
    """Return (label, ratio, low, high) for the host-speed scale.

    Each ratio is the median, over entries, of a planted variant's
    figure over the plain op's.
    """
    pool, _ = runner.load_pool("toric_ideals")
    real = toric.toric_ideal
    twice, kept_scaled, kept_probe = [], [], []
    for round_no in range(SCALE_ROUNDS + 1):
        kept = []

        def keep():
            kept.append([(n, n + 1) for n in range(KEPT_PER_OP)])

        scaled, after = interleaved(pool, [
            (real, lambda: None), (doubled(real), lambda: None),
            (real, keep)])
        del kept
        if round_no == 0:
            continue  # warms the process up
        twice += [b / a for a, b in zip(scaled[0], scaled[1])]
        kept_scaled += [b / a for a, b in zip(scaled[0], scaled[2])]
        kept_probe += [b / a for a, b in zip(after[0], after[2])]
    return (
        ("doubled op cost: scaled time", statistics.median(twice), 1.8, 2.2),
        ("live memory: probe time after the op",
         statistics.median(kept_probe), 0.93, 1.07),
        ("live memory: scaled time", statistics.median(kept_scaled),
         0.93, 1.07),
    )


def main() -> int:
    os.chdir(runner.ROOT)
    misses = 0

    def expect(workload, found, target):
        nonlocal misses
        ok = found == [target]
        misses += not ok
        print(f"{'ok' if ok else 'MISSED'}: {workload} flagged {found}, "
              f"planted at {target}")

    # A chain audit that loses its gluing verdict on the first pair.
    pool = workloads.chain_pool()
    first = pool[0]
    found = failures(
        "chain_sweep", [0, 1], gluing, "implication_chain_audit",
        lambda args, out: (dataclasses.replace(out, gluing=None)
                           if args == first else out))
    expect("chain_sweep", found, 0)

    # A toric ideal missing one generator.
    target = workloads.toric_pool()[0]
    found = failures(
        "toric_ideals", [0, 1], toric, "toric_ideal",
        lambda args, out: (dataclasses.replace(
            out, ideal=binomial.BinomialIdeal(out.ideal.block,
                                              out.ideal.generators[1:]),
            adegrees={g: out.adegrees[g] for g in out.ideal.generators[1:]})
            if args[0] == target else out))
    expect("toric_ideals", found, 0)

    # A membership test that rejects everything on one semigroup.
    graded = toric.toric_ideal(workloads.oracle_pool()[0])
    found = failures(
        "oracle_check", [0, 1], binomial.BinomialIdeal, "contains",
        lambda args, out: out and args[0] != graded.ideal)
    expect("oracle_check", found, 0)

    # A CLI that answers "yes" for a pair that does not glue.
    names = runner.json.loads(runner.EXPECTED.read_text())["corpus_files"]
    no = names.index("twisted_noglue.txt")
    yes = names.index("twisted_glue.txt")
    found = failures(
        "corpus_cli", [no, yes], cli, "main",
        lambda args, code: 0 if "twisted_noglue" in args[0][1] else code)
    expect("corpus_cli", found, no)

    # Self times and the remainder account for the whole op time.
    recorder = spans.Recorder()
    recorder.install()
    pool, _ = runner.load_pool("corpus_cli")
    for _ in runner.one_pass("corpus_cli", pool, range(len(pool)),
                             runner.Cache(), recorder.run_op,
                             runner.HostSpeed()):
        pass
    layers = spans.summarize(recorder, 0, 0)
    parts = sum(value for name, (value, _unit) in layers.items()
                if name.endswith(".s") and name != "trace.ops.s")
    whole = layers["trace.ops.s"][0]
    ok = abs(parts - whole) <= 1e-9 * len(recorder.spans) + 1e-9
    misses += not ok
    print(f"{'ok' if ok else 'MISSED'}: self times {parts:.6f} s vs op wall "
          f"{whole:.6f} s on one corpus pass")

    # The scale follows the op's cost, not the heap the library leaves.
    for label, ratio, low, high in scale_checks():
        ok = low <= ratio <= high
        misses += not ok
        print(f"{'ok' if ok else 'MISSED'}: {label} x{ratio:.3f} against "
              f"the plain op (expected {low}-{high})")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
