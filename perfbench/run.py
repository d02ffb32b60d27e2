#!/usr/bin/env python3
"""The semiglue benchmark: one workload, measured from outside the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/.
Set-up time is the median, over fresh interpreters, of importing
semiglue.cli, scaled to the reference host speed.  The workload then
runs in passes over its fixed pool, each pass in its own fresh child
process (runner.py), one after another; every answer is checked against
the recorded one.  With --trace 1 every untraced pass is followed by a
traced one; the per-layer figures are the traced passes' mean, and the
ratio of the two kinds' throughputs is the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("chain_sweep", "toric_ideals", "oracle_check", "corpus_cli")
SETUP_RUNS = 31
# A run times at least MIN_OPS ops in at least MIN_PASSES passes, so
# the p90 has ten samples beyond it and the seed orders one pass or more.
MIN_OPS = 100
MIN_PASSES = 2
# A whole run, set-up included, must end within 180 s.
RUN_TIMEOUT = 170.0


class BenchmarkError(RuntimeError):
    """A child failed or ran out of time; the run has no result."""


def child(argv, env, deadline):
    """Run a fresh Python child to completion; return its last line, if any."""
    timeout = deadline - time.monotonic()
    try:
        done = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{argv[0]} ran past {timeout:.0f} s") from exc
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchmarkError(f"{argv[0]} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def child_env():
    """Return the children's environment.

    The hash seed is fixed, and bytecode may be written whatever the
    caller's environment says, so the children read it as an installed
    package's users would.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_bytecode(env, deadline):
    """Write the bytecode of the package and the benchmark, if stale.

    Otherwise the first child to import a module would compile it, and
    pay for that in its time and its peak RSS.
    """
    child(["-m", "compileall", "-q", str(SRC / "semiglue"), str(HERE)],
          env, deadline)


def setup_seconds(env, deadline):
    """Return the median scaled import time of semiglue.cli.

    Each sample is a fresh interpreter running importtime.py.
    """
    argv = [str(HERE / "importtime.py")]
    times = [float(child(argv, env, deadline).split()[1])
             for _ in range(SETUP_RUNS)]
    return statistics.median(times)


def one_pass(args, pass_no, trace, env, deadline):
    argv = [str(HERE / "runner.py"), args.workload, str(args.seed),
            str(pass_no), str(trace)]
    return json.loads(child(argv, env, deadline))


def scaled_seconds(passes):
    return sum(scaled for run in passes for _i, scaled, _raw in run["ops"])


def measure(args, env, deadline):
    """Run passes until the stop rule holds; return the plain and traced ones.

    The run stops only between passes, so every pass does the same
    work.  Once the minimum of passes and ops is done, it stops at the
    pass boundary nearest to --seconds of scaled op time, so a slow spell
    of the host does not change the number of passes.
    """
    plain, traced = [], []
    while True:
        pass_no = len(plain) + 1
        plain.append(one_pass(args, pass_no, 0, env, deadline))
        if args.trace:
            traced.append(one_pass(args, pass_no, 1, env, deadline))
        last = scaled_seconds(plain[-1:])
        ops = sum(len(run["ops"]) for run in plain)
        if (pass_no >= MIN_PASSES and ops >= MIN_OPS
                and scaled_seconds(plain) + last / 2 >= args.seconds):
            return plain, traced


def harrell_davis(sorted_values, q, cells=64):
    """Return the Harrell-Davis estimate of the q-quantile of sorted values.

    A weighted mean of all order statistics, the i-th weighted by the
    Beta(q(n+1), (1-q)(n+1)) mass on ((i-1)/n, i/n) (Harrell and Davis,
    Biometrika 69, 1982).  Unlike the nearest-rank quantile it does not
    jump with the noise of the one input that sits at the rank.  The
    mass is integrated by the midpoint rule on `cells` cells per rank.
    """
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = cells * n
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((k + 0.5) / steps for k in range(steps))]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * cells:(i + 1) * cells]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def end_to_end(plain):
    """Return the end-to-end figures of the untraced passes.

    Latency percentiles are taken over each input's median time across
    passes, so repetitions of one input count once.  Peak RSS and the
    verdicts come from pass 1, whose order is fixed.
    """
    first = plain[0]
    per_input = [[] for _ in range(first["pool"])]
    for run in plain:
        for i, scaled, _raw in run["ops"]:
            per_input[i].append(scaled)
    ordered = sorted(statistics.median(times) for times in per_input)
    ops = sum(len(run["ops"]) for run in plain)
    return {
        "ops_per_s": (ops / scaled_seconds(plain), "1/s"),
        "latency_p50_ms": (1000 * harrell_davis(ordered, 0.5), "ms"),
        "latency_p90_ms": (1000 * harrell_davis(ordered, 0.9), "ms"),
        "peak_rss_mb": (first["peak_rss_mb"], "MB"),
        "decided_ratio": (first["decided"] / first["pool"], "ratio"),
    }


def per_layer(plain, traced):
    """Return the traced passes' mean per-layer figures and the overhead."""
    layers = {}
    for name, (_value, unit) in traced[0]["layers"].items():
        values = [run["layers"][name][0] for run in traced]
        layers[name] = (statistics.fmean(values), unit)
    ops = sum(len(run["ops"]) for run in plain)
    traced_ops = sum(len(run["ops"]) for run in traced)
    layers["trace.overhead_ratio"] = (
        ops / scaled_seconds(plain) * scaled_seconds(traced) / traced_ops,
        "ratio")
    layers["unscaled.ops_per_s"] = (
        ops / sum(raw for run in plain for _i, _s, raw in run["ops"]), "1/s")
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "semiglue" / "__init__.py").is_file():
        print(f"no semiglue package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    deadline = time.monotonic() + RUN_TIMEOUT
    try:
        compile_bytecode(env, deadline)
        setup = None if args.trace else setup_seconds(env, deadline)
        plain, traced = measure(args, env, deadline)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        figures = per_layer(plain, traced)
    else:
        figures = {"setup_s": (setup, "s"), **end_to_end(plain)}
    runs = plain + traced
    attempted = sum(len(run["ops"]) for run in runs)
    failed = sum(run["failed"] for run in runs)
    raw = sum(raw for run in plain for _i, _s, raw in run["ops"])
    print(f"{args.workload}: {attempted} samples in {len(plain)} untraced "
          f"and {len(traced)} traced pass(es) over a pool of "
          f"{plain[0]['pool']}, {failed} failed; "
          f"{sum(len(run['ops']) for run in plain) / raw:.4g} untraced "
          f"ops/s before scaling to the reference speed")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in figures.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
