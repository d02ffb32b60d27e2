"""Toric ideals of semigroup generators, with a brute-force oracle."""

import os
import random
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
from semiglue import toric
from semiglue.binomial import _interreduce, _saturate_raw
from semiglue.exactlin import kernel_lattice_basis
from semiglue.toric import (
    GradedBinomialSet,
    _sweep_variables,
    fiber_monomials,
    minimal_generators,
    toric_ideal_of_matrix,
)
from support import linear_binomial_pair, monomial_curves_pair, random_gens

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
    assert ideal_equal(t.ideal, want, PLANE_CUBIC.weights())
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
    assert ideal_equal(ta.ideal, want_a, a.weights())
    tb = toric_ideal(b)
    assert tb.mu == 2
    yb = b.block
    want_b = BinomialIdeal(yb, (
        mk(yb, (0, 1, 2, 0), (0, 0, 0, 1)),
        mk(yb, (0, 5, 0, 0), (3, 0, 2, 0)),
    ))
    assert ideal_equal(tb.ideal, want_b, b.weights())


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
    weights = tuple(sum(c) for c in cand.c_matrix.columns())
    assert t.ideal.contains(linear, weights)
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
    weights = PLANE_CUBIC.weights()
    found = enumerate_oracle(PLANE_CUBIC, (6, 6))
    assert found
    for f in found:
        assert PLANE_CUBIC.adegree(f.plus.exponents) == \
            PLANE_CUBIC.adegree(f.minus.exponents)
        assert t.ideal.contains(f, weights)
    for g in t.ideal.generators:
        deg = t.adegrees[g]
        assert all(x <= 6 for x in deg)
        assert g in found or g.negated() in found


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


def test_walk_counts_nodes_like_the_recursive_walk():
    rng = random.Random(20261019)
    for trial in range(300):
        rows = rng.randint(1, 3)
        count = min(rng.randint(1, 5), 4 ** rows - 1)
        cols = set()
        while len(cols) < count:
            col = tuple(rng.randint(0, 3) for _ in range(rows))
            if any(col):
                cols.add(col)
        cols = list(cols)
        rng.shuffle(cols)
        m = IntegerMatrix.from_columns(cols)
        start = tuple(rng.randint(0, 11) for _ in range(rows))
        for exact in (False, True):
            leaves, nodes = _recursive_walk(m, start, 10 ** 7, exact)
            walked = toric._walk(m, start, nodes, exact)
            assert tuple(x for _, x in walked) == leaves, (cols, start, exact)
            for rem, x in walked:
                assert rem == tuple(map(sub, start, m.matvec(x)))
            with pytest.raises(BoundTooLarge) as raised:
                toric._walk(m, start, nodes - 1, exact)
            with pytest.raises(BoundTooLarge) as expected:
                _recursive_walk(m, start, nodes - 1, exact)
            assert str(raised.value) == str(expected.value)


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


def test_fiber_degree_length_is_checked_under_optimization(tmp_path):
    m = PLANE_CUBIC.matrix
    with pytest.raises(ValueError, match="the degree needs 2 entries, got 1"):
        fiber_monomials(m, (3,))
    script = tmp_path / "short_degree.py"
    script.write_text(
        "from semiglue import IntegerMatrix\n"
        "from semiglue.toric import fiber_monomials\n"
        "m = IntegerMatrix.from_columns([(1, 2), (2, 1)])\n"
        "for degree in ((3,), (3, 3, 3)):\n"
        "    try:\n"
        "        print('accepted:', fiber_monomials(m, degree))\n"
        "    except ValueError as exc:\n"
        "        print('refused:', exc)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "refused: the degree needs 2 entries, got 1\n"
        "refused: the degree needs 2 entries, got 3\n")


def test_random_gens_refuses_a_count_it_cannot_reach():
    rng = random.Random(5)
    assert len(random_gens(rng, 1, 4, 4).matrix.columns()) == 4
    with pytest.raises(ValueError, match="fewer than 5 distinct nonzero"):
        random_gens(rng, 1, 5, 4)
    with pytest.raises(ValueError, match="fewer than 9 distinct nonzero"):
        random_gens(rng, 2, 9, 2)


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


def test_toric_self_checks_hold_under_optimization(tmp_path):
    # The saturation is replaced by one that returns a single wrong
    # element: x1*x2 - x2*x3 shares x2 between its sides, and x1 - x2 is
    # not homogeneous for the plane cubic.
    script = tmp_path / "wrong_saturation.py"
    script.write_text(
        "from semiglue import SemigroupGens, toric\n"
        "gens = SemigroupGens.from_columns(\n"
        "    [(3, 0), (2, 1), (1, 2), (0, 3)], 'x')\n"
        "for wrong in (((1, 1, 0, 0), (0, 1, 1, 0)),\n"
        "              ((1, 0, 0, 0), (0, 1, 0, 0))):\n"
        "    toric._saturate_raw = lambda pairs, weights, variables=None: [wrong]\n"
        "    try:\n"
        "        toric.toric_ideal(gens)\n"
        "    except AssertionError as exc:\n"
        "        print('refused:', exc)\n"
        "    else:\n"
        "        print('accepted')\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "refused: toric Groebner element (1, 1, 0, 0) - (0, 1, 1, 0) has "
        "overlapping support\n"
        "refused: toric Groebner element (1, 0, 0, 0) - (0, 1, 0, 0) is not "
        "homogeneous\n")


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
        key = order.key_function()
        pairs = _lattice_pairs(m)
        full = _interreduce(_saturate_raw(pairs, weights), key) if pairs else []
        gens = tuple(mk(block, u, v) for u, v in full)
        assert t.ideal.groebner(order) == gens, m
        ideal = BinomialIdeal(block, gens)
        ideal._cache[order] = gens
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
    key = MonomialOrder.degrevlex(weights).key_function()
    pairs = _lattice_pairs(m)
    full = _interreduce(_saturate_raw(pairs, weights), key)
    assert len(full) == 4
    assert _interreduce(_saturate_raw(pairs, weights, [1, 2, 3]), key) == full
    assert len(_interreduce(_saturate_raw(pairs, weights, [1, 3]), key)) == 3


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


def test_toric_input_checks_hold_under_optimization(tmp_path):
    script = tmp_path / "bad_matrices.py"
    script.write_text(
        "from semiglue import IntegerMatrix, VariableBlock\n"
        "from semiglue.toric import toric_ideal_of_matrix\n"
        "for cols, size in ((((1, 2), (0, 0), (2, 1)), 3),\n"
        "                   (((1, 2), (-1, 0), (2, 1)), 3),\n"
        "                   (((1, 2), (2, 1)), 3)):\n"
        "    m = IntegerMatrix.from_columns(cols)\n"
        "    try:\n"
        "        toric_ideal_of_matrix(m, VariableBlock.prefixed('x', size))\n"
        "    except ValueError as exc:\n"
        "        print('refused:', exc)\n"
        "    else:\n"
        "        print('accepted')\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "refused: zero columns are not allowed\n"
        "refused: the matrix must have nonnegative entries\n"
        "refused: one variable per column, in order\n")
