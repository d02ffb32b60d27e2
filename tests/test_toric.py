"""Toric ideals of semigroup generators, with a brute-force oracle."""

import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import product
from operator import sub
from pathlib import Path

import pytest

from semiglue import (
    Binomial,
    BinomialIdeal,
    BoundTooLarge,
    GluingCandidate,
    IntegerMatrix,
    Monomial,
    MonomialOrder,
    SemigroupGens,
    VariableBlock,
    buchberger,
    enumerate_oracle,
    ideal_equal,
    normal_form,
    toric_ideal,
)
from semiglue import binomial, toric
from semiglue.binomial import _interreduce, _saturate_raw
from semiglue.exactlin import kernel_lattice_basis
from semiglue.toric import (
    GradedBinomialSet,
    _sweep_variables,
    fiber_monomials,
    minimal_generators,
    toric_ideal_of_matrix,
)
from support import (
    driver_identity_sweep,
    linear_binomial_pair,
    monomial_curves_pair,
    oracle_identity_sweep,
    pair_queue_identity_sweep,
    random_gens,
)

PLANE_CUBIC = SemigroupGens.from_columns(
    [(3, 0), (2, 1), (1, 2), (0, 3)], "x")


def mk(block, plus, minus):
    return Binomial(Monomial(block, plus), Monomial(block, minus))


def test_gens_validation():
    with pytest.raises(ValueError):
        SemigroupGens.from_columns([(1, 0), (0, 0)])
    with pytest.raises(ValueError):
        SemigroupGens.from_columns([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        SemigroupGens.from_columns([(1, -1)])
    with pytest.raises(ValueError):
        SemigroupGens(PLANE_CUBIC.matrix, VariableBlock.prefixed("x", 3))


def test_gens_weights_degrees_scaling():
    assert PLANE_CUBIC.ambient == 2
    assert PLANE_CUBIC.count == 4
    assert PLANE_CUBIC.weights() == (3, 3, 3, 3)
    assert PLANE_CUBIC.adegree((1, 0, 0, 1)) == (3, 3)
    doubled = PLANE_CUBIC.scaled(2)
    assert doubled.matrix.columns()[0] == (6, 0)
    assert doubled.block == PLANE_CUBIC.block


def test_plane_cubic_ideal():
    t = toric_ideal(PLANE_CUBIC)
    assert t.mu == 3
    block = PLANE_CUBIC.block
    want = BinomialIdeal(block, (
        mk(block, (0, 2, 0, 0), (1, 0, 1, 0)),
        mk(block, (0, 0, 2, 0), (0, 1, 0, 1)),
        mk(block, (0, 1, 1, 0), (1, 0, 0, 1)),
    ))
    assert ideal_equal(t.ideal, want)
    for g in t.ideal.generators:
        assert t.adegrees[g] == PLANE_CUBIC.adegree(g.plus.exponents)
        assert t.adegrees[g] == PLANE_CUBIC.adegree(g.minus.exponents)


def test_monomial_curve_ideals_match_known_generators():
    a, b = monomial_curves_pair()
    ta = toric_ideal(a)
    assert ta.mu == 3
    xb = a.block
    want_a = BinomialIdeal(xb, (
        mk(xb, (0, 0, 3, 0), (0, 1, 0, 1)),
        mk(xb, (0, 2, 0, 0), (1, 0, 1, 0)),
        mk(xb, (0, 1, 2, 0), (1, 0, 0, 1)),
    ))
    assert ideal_equal(ta.ideal, want_a)
    tb = toric_ideal(b)
    assert tb.mu == 2
    yb = b.block
    want_b = BinomialIdeal(yb, (
        mk(yb, (0, 1, 2, 0), (0, 0, 0, 1)),
        mk(yb, (0, 5, 0, 0), (3, 0, 2, 0)),
    ))
    assert ideal_equal(tb.ideal, want_b)


def test_free_semigroup_has_zero_ideal():
    free = SemigroupGens.from_columns([(1, 0), (0, 1)])
    t = toric_ideal(free)
    assert t.mu == 0
    assert t.ideal.generators == ()


def test_union_with_shared_column_needs_thirteen_generators():
    a, b = linear_binomial_pair()
    cand = GluingCandidate(a, b)
    t = toric_ideal_of_matrix(cand.c_matrix, cand.c_block)
    assert t.mu == 13
    linear = mk(cand.c_block,
                (0, 0, 0, 0, 1) + (0,) * 5, (0,) * 5 + (0, 0, 0, 0, 1))
    assert t.ideal.contains(linear)
    assert linear in t.ideal.generators or linear.negated() in t.ideal.generators


def test_fiber_monomials_enumerate_exactly():
    m = PLANE_CUBIC.matrix
    fiber = fiber_monomials(m, (3, 3))
    assert set(fiber) == {(1, 0, 0, 1), (0, 1, 1, 0)}
    assert fiber_monomials(m, (1, 0)) == ()
    assert fiber_monomials(m, (-1, 2)) == ()
    assert fiber_monomials(m, (0, 0)) == ((0, 0, 0, 0),)


def test_fiber_work_limit_raises():
    m = PLANE_CUBIC.matrix
    with pytest.raises(BoundTooLarge):
        fiber_monomials(m, (30, 30), work_limit=5)


def test_oracle_agrees_with_the_computed_ideal():
    t = toric_ideal(PLANE_CUBIC)
    found = enumerate_oracle(PLANE_CUBIC, (6, 6))
    assert found
    for f in found:
        assert PLANE_CUBIC.adegree(f.plus.exponents) == \
            PLANE_CUBIC.adegree(f.minus.exponents)
        assert t.ideal.contains(f)
    for g in t.ideal.generators:
        deg = t.adegrees[g]
        assert all(x <= 6 for x in deg)
        assert g in found or g.negated() in found


def test_contains_reads_the_basis_a_toric_ideal_holds(monkeypatch):
    t = toric_ideal(PLANE_CUBIC)
    block = PLANE_CUBIC.block
    runs = []
    real = binomial._buchberger

    def counted(pairs, order):
        runs.append(len(pairs))
        return real(pairs, order)

    monkeypatch.setattr(binomial, "_buchberger", counted)
    found = enumerate_oracle(PLANE_CUBIC, (6, 6))
    stranger = mk(block, (1, 0, 0, 0), (0, 1, 0, 0))
    probes = list(found) + [stranger] * (50 - len(found))
    answers = [t.ideal.contains(f) for f in probes]
    assert answers == [f in found for f in probes]
    assert answers.count(False) == 50 - len(found) > 0
    assert runs == []


def test_contains_agrees_on_fresh_and_toric_ideals():
    # A toric ideal holds its basis under its own weights; a fresh copy
    # of its generators computes one under unit weights.
    rng = random.Random(20261018)
    members = strangers = 0
    for _ in range(30):
        gens = random_gens(rng, rng.randrange(1, 4), rng.randrange(2, 6), 5)
        t = toric_ideal(gens)
        fresh = BinomialIdeal(gens.block, t.ideal.generators)
        bound = tuple(sum(row) for row in gens.matrix.entries)
        try:
            oracle = enumerate_oracle(gens, bound, work_limit=50_000)
        except BoundTooLarge:
            oracle = ()
        probes = list(oracle[:100])
        for _ in range(10):
            u = tuple(rng.randrange(3) for _ in range(gens.count))
            v = tuple(rng.randrange(3) for _ in range(gens.count))
            if u != v:
                probes.append(mk(gens.block, u, v))
        for f in probes:
            want = gens.adegree(f.plus.exponents) == \
                gens.adegree(f.minus.exponents)
            assert t.ideal.contains(f) == fresh.contains(f) == want, f
            members += want
            strangers += not want
    assert members > 100 and strangers > 100


def test_oracle_empty_under_zero_bound():
    assert enumerate_oracle(PLANE_CUBIC, (0, 0)) == ()
    with pytest.raises(BoundTooLarge):
        enumerate_oracle(PLANE_CUBIC, (9, 9), work_limit=10)


def _recursive_walk(matrix, start, work_limit, exact):
    """Reference box and fiber walk: plain recursion, one call per node.

    Returns the exponent vectors it finds and the number of nodes it
    visits; it raises ``BoundTooLarge`` where ``toric._walk`` must.
    """
    cols = matrix.columns()
    p = len(cols)
    out = []
    spent = 0

    def dfs(j, remaining, prefix):
        nonlocal spent
        spent += 1
        if spent > work_limit:
            kind = "fiber" if exact else "box"
            raise BoundTooLarge(f"{kind} enumeration passed {work_limit} steps")
        if j == p:
            if not exact or all(x == 0 for x in remaining):
                out.append(prefix)
            return
        col = cols[j]
        c = 0
        rem = remaining
        while True:
            dfs(j + 1, rem, prefix + (c,))
            nxt = tuple(a - b for a, b in zip(rem, col))
            if any(x < 0 for x in nxt):
                return
            rem, c = nxt, c + 1

    dfs(0, start, ())
    return tuple(out), spent


def _fields(x, width, n):
    """Return the n width-bit fields of x, the least significant first."""
    return tuple(x >> (i * width) & ((1 << width) - 1) for i in range(n))


def _walk_cases(rng, trials):
    """Yield (matrix, start): random shapes, 1 x p and n x 1 matrices.

    Entries go up to 3 or up to 40, so some columns hold an entry wider
    than a field of the start's width; every fifth start is zero.
    """
    for trial in range(trials):
        rows, count = rng.randint(1, 3), rng.randint(1, 5)
        if trial % 3 == 1:
            rows = 1
        elif trial % 3 == 2:
            rows, count = rng.randint(1, 4), 1
        top = rng.choice((3, 40))
        count = min(count, (top + 1) ** rows - 1)
        cols = set()
        while len(cols) < count:
            col = tuple(rng.randint(0, top) for _ in range(rows))
            if any(col):
                cols.add(col)
        cols = list(cols)
        rng.shuffle(cols)
        start = tuple(0 if trial % 5 == 0 else rng.randint(0, 11)
                      for _ in range(rows))
        yield IntegerMatrix.from_columns(cols), start


def _expand_runs(m, start, runs):
    """Return the packed (remainder, m) leaves of the box walk's runs."""
    width = max(start).bit_length() or 1
    unit = 1 << (m.cols - 1) * width
    last = m.columns()[-1]
    leaves = []
    for base, top, x in runs:
        lowest = _fields(base, width, m.rows)
        for c in range(top + 1):
            rem = sum(b + (top - c) * a << i * width
                      for i, (b, a) in enumerate(zip(lowest, last)))
            leaves.append((rem, x + c * unit))
    return leaves


def test_walk_counts_nodes_like_the_recursive_walk():
    # _walk packs each remainder and exponent vector into one int, one
    # field per entry; unpacked, they must be the recursive walk's.  The
    # box walk returns runs of the last column, expanded here; the fiber
    # walk returns the exponent vectors, whose remainders are 0.
    rng = random.Random(20261019)
    wide = 0
    for m, start in _walk_cases(rng, 450):
        width = max(start).bit_length() or 1
        wide += any(x >> width for row in m.entries for x in row)
        for exact in (False, True):
            leaves, nodes = _recursive_walk(m, start, 10 ** 7, exact)
            walked = toric._walk(m, start, nodes, exact)
            if exact:
                walked = [(0, x) for x in walked]
            else:
                walked = _expand_runs(m, start, walked)
            got = tuple(_fields(x, width, m.cols) for _, x in walked)
            assert got == leaves, (m, start, exact)
            for (rem, _), x in zip(walked, got):
                assert _fields(rem, width, m.rows) == \
                    tuple(map(sub, start, m.matvec(x)))
            with pytest.raises(BoundTooLarge) as raised:
                toric._walk(m, start, nodes - 1, exact)
            with pytest.raises(BoundTooLarge) as expected:
                _recursive_walk(m, start, nodes - 1, exact)
            assert str(raised.value) == str(expected.value)
    assert wide > 100


@pytest.mark.optimized
def test_a_huge_box_is_refused_before_the_walk(monkeypatch):
    # Each column fits 10**9 // 2 times under (10**9, 10**9): the simplex
    # under those three intercepts holds more than 10**6 lattice points,
    # so the walk raises before it packs a single column.  In the second
    # box the columns with a 1 over the zero bound are left out, and the
    # one left, (1, 0), fits 10**9 times.
    def unwalkable(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(toric, "_fits_in", unwalkable)
    gens = SemigroupGens.from_columns([(1, 2), (2, 1), (2, 2)], "x")
    with pytest.raises(BoundTooLarge,
                       match="^box enumeration passed 1000000 steps$"):
        enumerate_oracle(gens, (10 ** 9, 10 ** 9))
    with pytest.raises(BoundTooLarge,
                       match="^fiber enumeration passed 1000000 steps$"):
        fiber_monomials(gens.matrix, (10 ** 9, 10 ** 9))
    gens = SemigroupGens.from_columns([(1, 0), (0, 1), (1, 1)], "x")
    with pytest.raises(BoundTooLarge,
                       match="^box enumeration passed 1000000 steps$"):
        enumerate_oracle(gens, (10 ** 9, 0))


def _brute_force_oracle(gens, bound):
    """Pair up the monomials of each degree under the bound, box by box."""
    m = gens.matrix
    key = MonomialOrder.degrevlex(gens.weights()).key_function()
    ranges = [range(min(b // x for b, x in zip(bound, col) if x > 0) + 1)
              for col in m.columns()]
    fibers = {}
    for e in product(*ranges):
        degree = m.matvec(e)
        if all(d <= b for d, b in zip(degree, bound)):
            fibers.setdefault(degree, []).append(e)
    pairs = []
    for ms in fibers.values():
        for i, u in enumerate(ms):
            for v in ms[i + 1:]:
                pairs.append((u, v) if key(u) > key(v) else (v, u))
    pairs.sort(key=lambda uv: (sum(uv[0]), uv[0], sum(uv[1]), uv[1]))
    return pairs


def test_oracle_matches_a_brute_force():
    rng = random.Random(424243)
    nonempty = 0
    for trial in range(200):
        ambient = rng.randint(1, 3)
        count = min(rng.randint(1, 5), 5 ** ambient - 1)
        gens = random_gens(rng, ambient, count, 4)
        bound = tuple(rng.randint(0, 12) for _ in range(ambient))
        found = [g.as_pair() for g in enumerate_oracle(gens, bound)]
        assert found == _brute_force_oracle(gens, bound), (gens, bound)
        nonempty += bool(found)
    assert nonempty >= 50


@pytest.mark.optimized
def test_oracle_buckets_runs_like_the_leaf_reference():
    # enumerate_oracle pairs the fibers of the box walk's runs; the
    # reference buckets every leaf, as the oracle did before.  Same
    # binomials in the same order, and the same limit message.
    seen = oracle_identity_sweep()
    assert seen["single column"] >= 40
    assert seen["zero entry"] >= 100
    assert seen["zero bound"] >= 40
    assert seen["last column fits 0 times"] >= 100
    assert seen["nonempty"] >= 60


def test_contains_matches_the_normal_form_past_the_packing_limit():
    # contains packs f against the held packing while f fits it and
    # widens the packing otherwise; either way it answers as the full
    # normal form does.
    rng = random.Random(20261023)
    members = strangers = widened = 0
    for i in range(32):
        gens = random_gens(rng, 3, 5 + i % 3, 3)
        order = MonomialOrder.degrevlex(gens.weights())
        basis = toric_ideal(gens).ideal.groebner(order)
        ideal = BinomialIdeal.from_basis(gens.block, order,
                                         [g.as_pair() for g in basis])
        held = ideal._bases[order]

        def probe(big):
            e = [rng.randrange(2) for _ in range(gens.count)]
            fiber = fiber_monomials(gens.matrix, gens.adegree(e))
            u = rng.choice(fiber)
            v = rng.choice(fiber) if rng.randrange(3) else \
                tuple(x + rng.randrange(2) for x in e)
            if big:
                # one exponent past the limit, on both sides
                j = rng.randrange(gens.count)
                u, v = ([x + held.packing.limit * (k == j)
                         for k, x in enumerate(w)] for w in (u, v))
            return None if u == v else mk(gens.block, tuple(u), tuple(v))

        for big in [False] * 10 + [True] * 2 + [False] * 4:
            f = None
            while f is None:
                f = probe(big)
            packing = held.packing
            got = ideal.contains(f)
            assert got == (normal_form(f, basis, order) is None), f
            assert got == (gens.adegree(f.plus.exponents)
                           == gens.adegree(f.minus.exponents)), f
            members += got
            strangers += not got
            widened += packing is not None and held.packing is not packing
    assert members + strangers >= 500
    assert members >= 120 and strangers >= 120
    assert widened >= 60


def test_fiber_search_keeps_little_memory():
    # The CLI's fiber search runs under a limit of 10**6 steps; the walk
    # must hold its path and the fiber, not whole levels of the tree.
    m = IntegerMatrix.from_columns([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
    tracemalloc.start()
    try:
        fiber = fiber_monomials(m, (30, 30), work_limit=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fiber) > 1000
    assert peak < 4 * 2 ** 20, peak


@pytest.mark.optimized
def test_fiber_degree_length_is_checked():
    for degree in ((3,), (3, 3, 3)):
        with pytest.raises(ValueError, match=f"the degree needs 2 entries, "
                                             f"got {len(degree)}"):
            fiber_monomials(PLANE_CUBIC.matrix, degree)


def test_enumeration_answers_the_same_under_optimization(tmp_path):
    # The packed walk must not lean on an assert: under -O it gives the
    # same fibers and oracle binomials, in the same order.
    script = tmp_path / "enumerate.py"
    script.write_text(
        "import random\n"
        "from semiglue import BoundTooLarge, SemigroupGens\n"
        "from semiglue.toric import enumerate_oracle, fiber_monomials\n"
        "rng = random.Random(20261020)\n"
        "for _ in range(30):\n"
        "    rows, top = rng.randint(1, 3), rng.choice((3, 40))\n"
        "    count = rng.randint(rows + 1, rows + 3)\n"
        "    cols = set()\n"
        "    while len(cols) < count:\n"
        "        col = tuple(rng.randint(0, top) for _ in range(rows))\n"
        "        if any(col):\n"
        "            cols.add(col)\n"
        "    gens = SemigroupGens.from_columns(sorted(cols))\n"
        "    e = [rng.randint(0, 2) for _ in cols]\n"
        "    bound = gens.adegree(e)\n"
        "    try:\n"
        "        print(fiber_monomials(gens.matrix, bound, 2_000))\n"
        "        print([g.as_pair() for g in\n"
        "               enumerate_oracle(gens, bound, 2_000)])\n"
        "    except BoundTooLarge as exc:\n"
        "        print(exc)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    outs = []
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, str(script)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert sum(line not in ("()", "[]") for line in lines) > 40


def test_random_gens_refuses_a_count_it_cannot_reach():
    rng = random.Random(5)
    assert len(random_gens(rng, 1, 4, 4).matrix.columns()) == 4
    with pytest.raises(ValueError, match="fewer than 5 distinct nonzero"):
        random_gens(rng, 1, 5, 4)
    with pytest.raises(ValueError, match="fewer than 9 distinct nonzero"):
        random_gens(rng, 2, 9, 2)


def test_toric_ideal_cache_is_bounded_above_a_sweep():
    # A long run keeps a bounded number of ideals; the benchmark pools
    # hold at most 400 distinct matrices, so a pass keeps all its hits.
    maxsize = toric_ideal_of_matrix.cache_info().maxsize
    assert maxsize is not None and 400 <= maxsize


def test_toric_ideal_of_matrix_accepts_repeated_columns():
    fat = SemigroupGens.from_columns([(2, 1), (1, 2)], "x")
    cand = GluingCandidate(fat, SemigroupGens.from_columns([(2, 1)], "y"))
    t = toric_ideal_of_matrix(cand.c_matrix, cand.c_block)
    assert t.mu == 1
    linear = mk(cand.c_block, (1, 0, 0), (0, 0, 1))
    assert linear in t.ideal.generators or \
        linear.negated() in t.ideal.generators


def _random_matrix(rng, rows, cols, repeat=False):
    columns = []
    while len(columns) < cols:
        c = tuple(rng.randint(0, 3) for _ in range(rows))
        if any(c):
            columns.append(c)
    if repeat:
        columns.append(rng.choice(columns))
    return IntegerMatrix.from_columns(columns)


def _rerun_minimal(gens, adegrees, order):
    """Keep each generator outside the ideal of those kept before it.

    The ideal of the kept ones gets a fresh Groebner basis every time
    one is kept.
    """
    def scan_key(g):
        u, v = g.plus.exponents, g.minus.exponents
        return (sum(adegrees[g]), adegrees[g], sum(u), u, sum(v), v)

    kept, gb = [], ()
    for g in sorted(gens, key=scan_key):
        if gb and normal_form(g, gb, order) is None:
            continue
        kept.append(g)
        gb = buchberger(kept, order)
    return kept


def test_minimal_generators_match_the_per_generator_rerun():
    rng = random.Random(20260205)
    for trial in range(40):
        rows = 2 + trial % 2
        m = _random_matrix(rng, rows, rng.randint(rows + 1, rows + 3),
                           repeat=trial % 4 == 3)
        block = VariableBlock.prefixed("x", m.cols)
        t = toric_ideal_of_matrix(m, block)
        order = MonomialOrder.degrevlex(t.weights)
        cached = t.ideal.groebner(order)
        full = {g: m.matvec(g.plus.exponents) for g in cached}
        graded = GradedBinomialSet(BinomialIdeal(block, cached), full,
                                   t.weights)
        want = _rerun_minimal(cached, full, order)
        for got in (t, minimal_generators(graded)):
            assert set(got.ideal.generators) == set(want), m
            assert got.adegrees == {g: full[g] for g in want}, m
            assert got.ideal.groebner(order) == buchberger(want, order), m
        kept = t.ideal.generators
        for i, g in enumerate(kept):
            others = kept[:i] + kept[i + 1:]
            if others:
                assert normal_form(g, buchberger(others, order),
                                   order) is not None, (m, g)


def test_toric_ideals_agree_with_sympy_elimination():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for trial in range(20):
        m = _random_matrix(rng, 2, 3 + trial % 2)
        block = VariableBlock.prefixed("x", m.cols)
        t = toric_ideal_of_matrix(m, block)
        ts = sympy.symbols("t1 t2")
        xs = sympy.symbols(" ".join(block.names))
        images = [x - ts[0] ** c[0] * ts[1] ** c[1]
                  for x, c in zip(xs, m.columns())]
        eliminated = sympy.groebner(images, *ts, *xs, order="lex")
        theirs = [f for f in eliminated.exprs if not f.free_symbols & set(ts)]

        def as_expr(g):
            def mono(e):
                return sympy.Mul(*(x ** k for x, k in zip(xs, e)))
            return mono(g.plus.exponents) - mono(g.minus.exponents)

        ours = [as_expr(g) for g in t.ideal.generators]
        if not ours:
            assert not theirs, m
            continue
        ours_gb = sympy.groebner(ours, *xs, order="grevlex")
        theirs_gb = sympy.groebner(theirs, *xs, order="grevlex")
        assert all(theirs_gb.contains(f) for f in ours), m
        assert all(ours_gb.contains(f) for f in theirs), m


@pytest.mark.optimized
def test_toric_ideal_refuses_a_wrong_saturation(monkeypatch):
    # The saturation is replaced by one that returns a single wrong
    # element: x1*x2 - x2*x3 shares x2 between its sides, and x1 - x2 is
    # not homogeneous for the plane cubic.
    for wrong, message in ((((1, 1, 0, 0), (0, 1, 1, 0)),
                            "has overlapping support"),
                           (((1, 0, 0, 0), (0, 1, 0, 0)),
                            "is not homogeneous")):
        monkeypatch.setattr(toric, "_saturate_raw",
                            lambda pairs, weights, variables=None,
                            wrong=wrong: [wrong])
        toric_ideal_of_matrix.cache_clear()
        with pytest.raises(AssertionError, match=re.escape(
                f"toric Groebner element {wrong[0]} - {wrong[1]} {message}")):
            toric.toric_ideal(PLANE_CUBIC)
    toric_ideal_of_matrix.cache_clear()


def _lattice_pairs(m):
    return [(tuple(x if x > 0 else 0 for x in v),
             tuple(-x if x < 0 else 0 for x in v))
            for v in kernel_lattice_basis(m)]


def test_skipped_sweeps_give_the_same_toric_ideal():
    # Reference: saturate the lattice-basis ideal by every variable.
    rng = random.Random(20261018)
    for trial in range(300):
        rows = rng.randint(1, 3)
        cols = rng.randint(3, min(7, 5 ** rows - 1))
        columns = []
        while len(columns) < cols:
            c = tuple(rng.randint(0, 4) for _ in range(rows))
            if any(c) and c not in columns:
                columns.append(c)
        m = IntegerMatrix.from_columns(columns)
        block = VariableBlock.prefixed("x", m.cols)
        basis = kernel_lattice_basis(m)
        sweeps = _sweep_variables(basis, m.cols)
        assert sweeps[-1] == m.cols - 1, m
        skipped = set(range(m.cols)) - set(sweeps)
        assert skipped, m
        for v in basis:
            assert all(v[i] >= 0 for i in skipped) or \
                all(v[i] <= 0 for i in skipped), (m, v, skipped)
        t = toric_ideal_of_matrix(m, block)
        weights = t.weights
        order = MonomialOrder.degrevlex(weights)
        pairs = _lattice_pairs(m)
        full = _interreduce(_saturate_raw(pairs, weights), order) if pairs else []
        gens = tuple(mk(block, u, v) for u, v in full)
        assert t.ideal.groebner(order) == gens, m
        ideal = BinomialIdeal.from_basis(block, order, full)
        want = minimal_generators(GradedBinomialSet(
            ideal, {g: m.matvec(g.plus.exponents) for g in gens}, weights))
        assert t.ideal.generators == want.ideal.generators, m
        assert t.adegrees == want.adegrees, m


def test_skipping_a_conflicting_pair_loses_a_generator():
    m = IntegerMatrix.from_columns([(2, 1), (0, 3), (1, 1), (0, 2)])
    basis = kernel_lattice_basis(m)
    assert basis == ((1, -1, -2, 2), (1, 1, -2, -1))
    # (1, -1, -2, 2) has opposite signs at 0 and 2, so {0, 2} may not
    # be skipped; {0} alone may.
    assert _sweep_variables(basis, 4) == [1, 2, 3]
    weights = tuple(sum(c) for c in m.columns())
    order = MonomialOrder.degrevlex(weights)
    pairs = _lattice_pairs(m)
    full = _interreduce(_saturate_raw(pairs, weights), order)
    assert len(full) == 4
    assert _interreduce(_saturate_raw(pairs, weights, [1, 2, 3]), order) == full
    assert len(_interreduce(_saturate_raw(pairs, weights, [1, 3]),
                            order)) == 3


@pytest.mark.optimized
def test_groebner_driver_matches_the_seed_loop_reference():
    seen = driver_identity_sweep()
    assert seen["buchberger runs"] >= 1000
    assert seen["minimal generator scans"] >= 350
    assert seen["non-homogeneous sets"] == 200


@pytest.mark.optimized
def test_pair_queue_matches_the_min_scan_reference():
    # The sorted pair queue, the keyed pair update, the one-sort finishing
    # pass and the post-basis path that reuses the homogeneity check's
    # degrees give the reference's held bases, generators and degrees.
    seen = pair_queue_identity_sweep()
    assert seen == {"toric ideals": 400, "generators": 1976}


def test_toric_ideal_sweeps_only_the_required_variables(monkeypatch):
    swept = []

    def counting(pairs, weights, variables=None):
        swept.append(list(variables))
        return _saturate_raw(pairs, weights, variables)

    monkeypatch.setattr(toric, "_saturate_raw", counting)
    m = IntegerMatrix.from_columns([(3, 0, 1), (0, 2, 1), (1, 1, 0), (2, 0, 2),
                                    (0, 1, 3), (1, 3, 1), (2, 2, 0)])
    t = toric_ideal_of_matrix.__wrapped__(m, VariableBlock.prefixed("x", 7))
    assert swept == [[0, 2, 4, 5, 6]]
    assert t.ideal.generators == toric_ideal_of_matrix(
        m, VariableBlock.prefixed("x", 7)).ideal.generators


@pytest.mark.optimized
def test_toric_input_checks():
    for cols, size, message in (
            (((1, 2), (0, 0), (2, 1)), 3, "zero columns are not allowed"),
            (((1, 2), (-1, 0), (2, 1)), 3, "must have nonnegative entries"),
            (((1, 2), (2, 1)), 3, "one variable per column, in order")):
        with pytest.raises(ValueError, match=message):
            toric_ideal_of_matrix(IntegerMatrix.from_columns(cols),
                                  VariableBlock.prefixed("x", size))


@pytest.mark.optimized
def test_scalings_and_graded_sets_are_checked():
    with pytest.raises(ValueError, match="the scaling must be positive"):
        PLANE_CUBIC.scaled(0)
    t = toric_ideal(PLANE_CUBIC)
    degrees = dict(t.adegrees)
    degrees.popitem()
    with pytest.raises(ValueError, match="one degree per generator"):
        GradedBinomialSet(t.ideal, degrees, t.weights)
