"""Spans at the library's layer boundaries, recorded from outside.

The package binds names with ``from .x import y``, so a function is
wrapped in every module that calls it, not where it is defined.  Each
wrapped call records a span (name, start, end, parent span, op id) in
memory; a few boundaries only bump a counter.  Nothing here edits the
package's source, and an untraced run never imports this module.

A nested call to a span of the same name, such as ``in_cone`` calling
``_cone_solution``, is folded into the outer span, so calls count the
entries into a layer.
"""

from collections import Counter
from time import perf_counter

from semiglue import binomial, cli, constructions, gluing, homology, toric
from semiglue.toric import BoundTooLarge

NAME, START, END, PARENT, OP, RAISED = range(6)


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = None

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span named "op"."""
        self._op = op_id
        return self._wrap("op", fn)(*args)

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self._op,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[RAISED] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count(self, fn, on_result):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer boundary; the process keeps them until it exits."""
        c = self.counts

        def span(modules, attr, name, on_result=None):
            for module in modules:
                setattr(module, attr,
                        self._wrap(name, getattr(module, attr), on_result))

        def count(module, attr, on_result):
            setattr(module, attr, self._count(getattr(module, attr),
                                              on_result))

        def basis(_args, result):
            c["buchberger.basis_size"] += len(result)

        def kept(args, result):
            c["minimal_generators.in"] += len(args[0].ideal.generators)
            c["minimal_generators.out"] += len(result.ideal.generators)

        def monomials(_args, result):
            c["enumeration.monomials"] += len(result)

        def member(_args, result):
            c["is_member.hits"] += result is not None

        def path(_args, report):
            if not report.is_gluing:
                c["verify_gluing.path.refused"] += 1
            elif "coprime" in report.detail:
                c["verify_gluing.path.coprime"] += 1
            else:
                c["verify_gluing.path.mixed"] += 1

        def one(key):
            def bump(_args, _result):
                c[key] += 1
            return bump

        span([toric, gluing], "kernel_lattice_basis",
             "exactlin.kernel_lattice_basis")
        span([gluing, constructions, homology], "rank", "exactlin.rank")
        span([binomial, toric], "_buchberger", "binomial.buchberger", basis)
        span([binomial, toric], "_saturate_raw", "binomial.saturation")
        span([binomial.BinomialIdeal], "contains", "binomial.normal_form")
        span([toric], "minimal_generators", "toric.minimal_generators", kept)
        span([toric, gluing], "toric_ideal_of_matrix", "toric.toric_ideal")
        span([gluing], "fiber_monomials", "toric.enumeration", monomials)
        count(toric, "_monomials_in_box", monomials)
        span([toric, cli], "enumerate_oracle", "toric.enumeration")
        span([gluing, cli], "is_member", "gluing.is_member", member)
        count(gluing, "multiples_in_semigroup",
              one("multiples_in_semigroup.calls"))
        span([gluing, constructions], "in_cone", "gluing.cone")
        span([gluing], "_cone_solution", "gluing.cone")
        count(gluing, "ideal_equal", one("verify_gluing.completion_checks"))
        span([gluing, cli], "verify_gluing", "gluing.verify_gluing", path)
        span([cli], "embed_and_glue", "constructions.embed_and_glue")
        span([cli], "main", "cli.main")


LAYER_SPANS = (
    "exactlin.kernel_lattice_basis", "exactlin.rank", "binomial.buchberger",
    "binomial.saturation", "binomial.normal_form", "toric.toric_ideal",
    "toric.minimal_generators", "toric.enumeration", "gluing.is_member",
    "gluing.cone", "gluing.verify_gluing", "constructions.embed_and_glue",
    "cli.main",
)


INCLUSIVE_SPANS = ("toric.toric_ideal", "binomial.saturation",
                   "toric.minimal_generators")


def summarize(recorder, cache_hits, cache_misses):
    """Return the per-layer metrics of one pass over the pool.

    Self time is a span's duration minus that of its direct children;
    spans of one op never overlap, since the load is single-threaded.
    The op spans' self time is the part no layer span covers.
    """
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    self_s = Counter()
    total_s = Counter()
    calls = Counter()
    sweeps = limit_hits = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        total_s[name] += rec[END] - rec[START]
        self_s[name] += rec[END] - rec[START] - child_time[i]
        calls[name] += 1
        parent = rec[PARENT]
        if (name == "binomial.buchberger" and parent is not None
                and spans[parent][NAME] == "binomial.saturation"):
            sweeps += 1
        if (name == "toric.enumeration"
                and rec[RAISED] == BoundTooLarge.__name__):
            limit_hits += 1
    c = recorder.counts

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.s"] = (self_s[name], "s")
    # Time including children, where the toric pipeline spends it.
    for name in INCLUSIVE_SPANS:
        metrics[f"{name}.total_s"] = (total_s[name], "s")
    counted = {
        "exactlin.kernel_lattice_basis.calls":
            calls["exactlin.kernel_lattice_basis"],
        "exactlin.rank.calls": calls["exactlin.rank"],
        "binomial.buchberger.calls": calls["binomial.buchberger"],
        "binomial.buchberger.basis_size": c["buchberger.basis_size"],
        "binomial.saturation.sweeps": sweeps,
        "binomial.normal_form.calls": calls["binomial.normal_form"],
        "toric.toric_ideal.calls": calls["toric.toric_ideal"],
        "toric.enumeration.monomials": c["enumeration.monomials"],
        "toric.enumeration.limit_hits": limit_hits,
        "gluing.is_member.calls": calls["gluing.is_member"],
        "gluing.multiples_in_semigroup.calls":
            c["multiples_in_semigroup.calls"],
        "gluing.cone.calls": calls["gluing.cone"],
        "gluing.verify_gluing.calls": calls["gluing.verify_gluing"],
        "gluing.verify_gluing.completion_checks":
            c["verify_gluing.completion_checks"],
        "gluing.verify_gluing.path.coprime": c["verify_gluing.path.coprime"],
        "gluing.verify_gluing.path.mixed": c["verify_gluing.path.mixed"],
        "gluing.verify_gluing.path.refused": c["verify_gluing.path.refused"],
        "cli.main.calls": calls["cli.main"],
    }
    for name, value in counted.items():
        metrics[name] = (value, "count")
    metrics["toric.cache.hit_ratio"] = (
        ratio(cache_hits, cache_hits + cache_misses), "ratio")
    metrics["toric.minimal_generators.kept_ratio"] = (
        ratio(c["minimal_generators.out"], c["minimal_generators.in"]),
        "ratio")
    metrics["gluing.is_member.hit_ratio"] = (
        ratio(c["is_member.hits"], calls["gluing.is_member"]), "ratio")
    metrics["trace.unattributed.s"] = (self_s["op"], "s")
    metrics["trace.ops.s"] = (total_s["op"], "s")
    return metrics
