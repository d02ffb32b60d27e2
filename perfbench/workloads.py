"""The four benchmark workloads: fixed input pools, the op, and its check.

Each random workload draws its inputs once, from a recorded pool seed,
with copies of the generators the acceptance sweeps use.  The pools are
fixed because the per-op cost is heavy-tailed: over fresh seeds, 800
chain pairs still gave an inter-quartile spread of 29% in total time,
since one or two pairs can take more than half of a sweep.  The run
seed only orders the passes after the first.  A fixed pool also lets
every op be compared with the answer recorded in expected.json.

The library receives only the generated inputs.  Entry points are looked
up on their modules at call time, so the boundary wrappers of a traced
run see every call.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random

from semiglue import cli, gluing, toric
from semiglue.gluing import GluingCandidate
from semiglue.toric import BoundTooLarge, SemigroupGens

ROOT = pathlib.Path(__file__).resolve().parent.parent
POOL_SEED = 20260823

CHAIN_PAIRS = 200
CHAIN_KMAX = 12
TORIC_MATRICES = 100
TORIC_ENTRY_BOUND = 3
ORACLE_SEMIGROUPS = 400
# At the acceptance test's limit of 300k one matrix alone takes ~13 s,
# longer than a whole pass, so it would decide the throughput by itself.
# At 50k the slowest op takes about 1 s and 24 of the 400 hit the limit.
ORACLE_WORK_LIMIT = 50_000


def digest(value) -> str:
    """Return a short digest of the repr of a plain Python value."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# -- generators, copied from scripts/random_audit.py and tests/support.py ---

def random_rank2_gens(rng, prefix):
    """Return 2 to 4 distinct points spanning at most a plane, or None."""
    for _ in range(40):
        base = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(2)]
        cols = set()
        for s, t in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (1, 3)):
            col = tuple(s * x + t * y for x, y in zip(*base))
            if any(col):
                cols.add(col)
        if len(cols) >= 2:
            chosen = sorted(cols)[:rng.randrange(2, min(4, len(cols)) + 1)]
            return SemigroupGens.from_columns(chosen, prefix)
    return None


def random_ray_gens(rng, prefix):
    """Return one or two distinct multiples of a plane direction."""
    direction = tuple(rng.randrange(4) for _ in range(2))
    if not any(direction):
        direction = (1, 2)
    scales = sorted({rng.randrange(1, 5) for _ in range(2)})
    cols = [tuple(s * x for x in direction) for s in scales]
    return SemigroupGens.from_columns(cols, prefix)


def random_plane_gens(rng, prefix):
    """Return 2 or 3 distinct nonzero plane points, or None."""
    cols = set()
    for _ in range(rng.randrange(2, 4)):
        col = (rng.randrange(5), rng.randrange(5))
        if any(col):
            cols.add(col)
    if len(cols) < 2:
        return None
    return SemigroupGens.from_columns(sorted(cols), prefix)


def random_gens(rng, ambient, count, entry_bound, prefix="x"):
    """Return distinct nonzero random columns with entries <= entry_bound."""
    cols = set()
    while len(cols) < count:
        c = tuple(rng.randrange(entry_bound + 1) for _ in range(ambient))
        if any(c):
            cols.add(c)
    return SemigroupGens.from_columns(sorted(cols), prefix)


def _cols(gens):
    return gens.matrix.columns()


def _adegree(cols, exponents):
    return tuple(sum(e * c[r] for e, c in zip(exponents, cols))
                 for r in range(len(cols[0])))


def _canonical(generators):
    return tuple(sorted(tuple(sorted((g.plus.exponents, g.minus.exponents)))
                        for g in generators))


# -- chain_sweep --------------------------------------------------------------

def chain_pool():
    """Return the audit sweep's first rank-compatible pairs, as it draws them."""
    rng = random.Random(POOL_SEED)
    pool = []
    attempts = 0
    while len(pool) < CHAIN_PAIRS:
        attempts += 1
        if attempts % 2:
            a = random_rank2_gens(rng, "x")
            b = random_rank2_gens(rng, "y")
        else:
            a = random_plane_gens(rng, "x")
            b = random_ray_gens(rng, "y")
        if a is not None and b is not None and (
                gluing.check_rank_conditions(a, b).ok):
            pool.append((a, b))
    return pool


def chain_op(item):
    a, b = item
    audit = gluing.implication_chain_audit(a, b, kmax=CHAIN_KMAX)
    report = None
    if audit.gluing:
        report = gluing.verify_gluing(GluingCandidate(a, b, *audit.pair))
    return audit, report


def chain_answer(item, out):
    """Return (problem or None, decided, digest) for one audited pair."""
    audit, report = out
    problem = None
    if audit.violations:
        problem = f"chain violations {audit.violations}"
    elif audit.gluing and not report.is_gluing:
        problem = f"scalings {audit.pair} found but not verified"
    verified = None if report is None else (
        report.is_gluing, str(report.rho), report.rho_level, report.detail)
    value = (audit.gluing, audit.multiples, audit.cone_meet,
             audit.semigroup_meet, audit.pair, audit.u,
             audit.common_element, audit.violations, verified)
    return problem, audit.gluing is not None, digest(value)


# -- toric_ideals -------------------------------------------------------------

def toric_pool():
    """Return random 3x5, 3x6 and 3x7 matrices, in turn, entries <= 3."""
    rng = random.Random(POOL_SEED)
    return [random_gens(rng, 3, 5 + i % 3, TORIC_ENTRY_BOUND)
            for i in range(TORIC_MATRICES)]


def toric_op(gens):
    return toric.toric_ideal(gens)


def toric_answer(gens, out):
    cols = _cols(gens)
    problem = None
    for g in out.ideal.generators:
        u, v = g.plus.exponents, g.minus.exponents
        if _adegree(cols, u) != _adegree(cols, v):
            problem = f"{g} is not homogeneous"
        elif any(x and y for x, y in zip(u, v)):
            problem = f"{g} has overlapping support"
    return problem, True, digest(_canonical(out.ideal.generators))


# -- oracle_check -------------------------------------------------------------

def oracle_pool():
    """Return small random semigroups, drawn as the oracle test draws them."""
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < ORACLE_SEMIGROUPS:
        ambient = rng.randrange(1, 4)
        pool.append(random_gens(rng, ambient, rng.randrange(1, 6), 6))
    return pool


def oracle_op(gens):
    """Check a toric ideal against the brute-force oracle in a degree box.

    Returns the ideal, the oracle size (None when the enumeration hit
    its work limit), and the two containment verdicts.
    """
    graded = toric.toric_ideal(gens)
    degrees = [gens.adegree(g.plus.exponents)
               for g in graded.ideal.generators]
    degrees.extend(gens.matrix.columns())
    bound = tuple(max(d[i] for d in degrees) for i in range(gens.ambient))
    try:
        oracle = toric.enumerate_oracle(gens, bound,
                                        work_limit=ORACLE_WORK_LIMIT)
    except BoundTooLarge:
        return graded, None, True, True
    in_ideal = all(graded.ideal.contains(g) for g in oracle)
    pairs = {tuple(sorted(g.as_pair())) for g in oracle}
    covered = True
    for g in graded.ideal.generators:
        deg = gens.adegree(g.plus.exponents)
        if all(deg[i] <= bound[i] for i in range(gens.ambient)):
            covered = covered and tuple(sorted(g.as_pair())) in pairs
    return graded, len(oracle), in_ideal, covered


def oracle_answer(gens, out):
    graded, size, in_ideal, covered = out
    problem = None
    if not in_ideal:
        problem = "an oracle binomial is not in the toric ideal"
    elif not covered:
        problem = "an in-bound minimal generator is missing from the oracle"
    value = (size, _canonical(graded.ideal.generators))
    return problem, size is not None, digest(value)


# -- corpus_cli ---------------------------------------------------------------

AFFIRMATIVE = {0}
NEGATIVE = {1, 3}


def command_for(text: str) -> str:
    """Return the CLI command for a corpus file, by run_corpus.py's rule."""
    keys = {line.split(":")[0].strip()
            for line in text.splitlines() if ":" in line}
    if "i" in keys:
        return "embed-glue"
    if "k1" in keys or "k2" in keys:
        return "check-gluing"
    return "find-gluing"


def corpus_pool(names):
    """Return (name, text) for the recorded corpus files."""
    return [(name, (ROOT / "corpus" / name).read_text()) for name in names]


def corpus_op(item):
    """Run one file through the CLI in process, with its output captured."""
    name, text = item
    out, err = io.StringIO(), io.StringIO()
    argv = [command_for(text), f"corpus/{name}", "--json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def corpus_answer(item, out):
    """Check the exit code by the file name and digest the JSON payload.

    The version field is dropped, so a version bump is no new answer.
    """
    name, text = item
    code, stdout = out
    expected = NEGATIVE if name.endswith("noglue.txt") else AFFIRMATIVE
    problem = None
    if code not in expected:
        problem = f"exit {code}, expected one of {sorted(expected)}"
    try:
        payload = json.loads(stdout)
        payload.pop("version", None)
    except ValueError:
        problem = problem or "stdout is not one JSON payload"
        payload = stdout
    value = (code, hashlib.sha256(text.encode()).hexdigest(),
             json.dumps(payload, sort_keys=True))
    return problem, code in (0, 1), digest(value)


# Each CLI call is a fresh process, so the toric cache starts empty for
# every corpus file; the other workloads keep their hits within a pass.
CLEAR_CACHE_PER_OP = {"corpus_cli"}

WORKLOADS = {
    "chain_sweep": (chain_op, chain_answer),
    "toric_ideals": (toric_op, toric_answer),
    "oracle_check": (oracle_op, oracle_answer),
    "corpus_cli": (corpus_op, corpus_answer),
}


def build_pool(workload, expected):
    """Return the input pool; corpus files are those the record names."""
    if workload == "chain_sweep":
        return chain_pool()
    if workload == "toric_ideals":
        return toric_pool()
    if workload == "oracle_check":
        return oracle_pool()
    return corpus_pool(expected["corpus_files"])


def pool_fingerprint(workload, pool):
    """Return a digest of the pool's inputs, to detect a drifted generator."""
    if workload == "corpus_cli":
        return digest(pool)
    if workload == "chain_sweep":
        return digest([(_cols(a), _cols(b)) for a, b in pool])
    return digest([_cols(g) for g in pool])
