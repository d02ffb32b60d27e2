"""Command line interface.

Input files describe the data in a small text format: ``A:`` and ``B:``
open generator sections with one generator per line (generators are the
columns of the matrix), ``k1: 3`` style lines set scalars, ``v: 2 2 4``
style lines set inline vectors, and ``#`` starts a comment.  A file
whose first nonblank character is ``{`` is read as JSON with the same
field names.  Command line flags beat SEMIGLUE_* environment variables,
which beat values from the file, which beat defaults.

Exit codes: 0 for an affirmative answer, 1 for a definitive negative,
2 for unusable input, 3 for inconclusive within the given bounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import __version__
from .binomial import Binomial
from .constructions import PlaneHomogeneousGens, embed_and_glue
from .exactlin import IntegerMatrix
from .gluing import (
    GluingCandidate,
    RankConditionsFail,
    _meeting_line,
    decide_on_line,
    implication_chain_audit,
    is_member,
    necessary_conditions,
    verify_gluing,
)
from .homology import BettiSequence, glued_betti
from .toric import BoundTooLarge, SemigroupGens, enumerate_oracle, toric_ideal

_SCALARS = ("k1", "k2", "kmax", "index", "work_limit")
_VECTORS = ("v", "betti_a", "betti_b", "degree_bound")


@dataclass(frozen=True)
class InputDocument:
    """Everything an input file can carry; unused fields stay None."""

    a: tuple | None = None
    b: tuple | None = None
    k1: int | None = None
    k2: int | None = None
    kmax: int | None = None
    index: int | None = None
    v: tuple | None = None
    betti_a: tuple | None = None
    betti_b: tuple | None = None
    degree_bound: tuple | None = None
    work_limit: int | None = None

    def canonical(self) -> dict:
        """Return the JSON-ready dict, omitting absent fields."""
        out: dict = {}
        for name in ("a", "b"):
            val = getattr(self, name)
            if val is not None:
                out[name] = [list(col) for col in val]
        for name in _SCALARS:
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        for name in _VECTORS:
            val = getattr(self, name)
            if val is not None:
                out[name] = list(val)
        return out

    def serialize(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True)

    def sha256(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "InputDocument":
        known = {"a", "b", *_SCALARS, *_VECTORS}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown input fields: {sorted(unknown)}")
        fields: dict = {}
        for name in ("a", "b"):
            if name in data:
                if not isinstance(data[name], list):
                    raise ValueError(f"{name} must be a list of generators")
                fields[name] = tuple(_ints(col, f"a generator of {name}")
                                     for col in data[name])
        for name in _SCALARS:
            if name in data:
                fields[name] = _ints([data[name]], name)[0]
        for name in _VECTORS:
            if name in data:
                fields[name] = _ints(data[name], name)
        return cls(**fields)

    @classmethod
    def parse(cls, text: str) -> "InputDocument":
        if text.lstrip().startswith("{"):
            return cls.from_dict(json.loads(text,
                                            object_pairs_hook=_unique_keys))
        return cls.from_dict(_parse_text(text))


def _unique_keys(pairs) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def _ints(value, what: str) -> tuple:
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be integers")
    return tuple(value)


def _vector(text: str) -> list:
    return [int(tok) for tok in text.split()]


def _parse_text(text: str) -> dict:
    data: dict = {}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            head, _, rest = line.partition(":")
            key = head.strip().lower()
            rest = rest.strip()
            if key in ("a", "b"):
                section = key
                data.setdefault(key, [])
                if rest:
                    data[key].append(_vector(rest))
                continue
            section = None
            if key == "i":
                key = "index"
            if key in data:
                raise ValueError(f"repeated key {head.strip()!r}")
            if key in _SCALARS:
                data[key] = int(rest)
            elif key in _VECTORS:
                data[key] = _vector(rest)
            else:
                raise ValueError(f"unknown key {head.strip()!r}")
            continue
        if section is None:
            raise ValueError(f"generator line outside a section: "
                             f"{line!r}")
        data[section].append(_vector(line))
    return data


def _read_document(args) -> InputDocument:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
    return InputDocument.parse(text)


def _truthy(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


def _resolve(flag, env_name: str, file_value, default, cast=int):
    if flag is not None:
        return flag
    env = os.environ.get(env_name)
    if env:
        return cast(env)
    if file_value is not None:
        return file_value
    return default


def _kmax(args, doc: InputDocument) -> int:
    kmax = _resolve(args.kmax, "SEMIGLUE_KMAX", doc.kmax, 50)
    if kmax < 1:
        raise ValueError("kmax must be positive")
    return kmax


def _work_limit(args, doc: InputDocument) -> int:
    work_limit = _resolve(args.work_limit, "SEMIGLUE_WORK_LIMIT",
                          doc.work_limit, 10 ** 6)
    if work_limit < 1:
        raise ValueError("work limit must be positive")
    return work_limit


def _json_wanted(args) -> bool:
    if args.json_out is not None:
        return args.json_out
    env = os.environ.get("SEMIGLUE_JSON")
    return _truthy(env) if env else False


def _gens(doc: InputDocument, which: str, command: str) -> SemigroupGens:
    cols = getattr(doc, which)
    if cols is None:
        raise ValueError(f"{command} needs an {which.upper()}: section")
    return SemigroupGens.from_columns(cols, "x" if which == "a" else "y")


def _bino(b: Binomial | None):
    if b is None:
        return None
    return {"text": str(b), "plus": list(b.plus.exponents),
            "minus": list(b.minus.exponents)}


def _rankdict(rc) -> dict:
    return {"rank_a": rc.rank_a, "rank_b": rc.rank_b,
            "rank_joint": rc.rank_joint, "ambient": rc.ambient,
            "ok": rc.ok}


def _emit(args, command: str, doc: InputDocument, bounds: dict,
          result: dict, lines: list) -> None:
    if _json_wanted(args):
        payload = {"command": command, "version": __version__,
                   "input_sha256": doc.sha256(), "bounds": bounds,
                   "result": result}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for ln in lines:
            print(ln)


def _check_result(report) -> dict:
    return {
        "is_gluing": report.is_gluing,
        "k1": report.candidate.k1,
        "k2": report.candidate.k2,
        "u": None if report.u is None else list(report.u),
        "rho": _bino(report.rho),
        "rho_level": report.rho_level,
        "mu": {"a": report.mu_a, "b": report.mu_b, "c": report.mu_c},
        "shared_columns": [list(pr) for pr in report.shared_columns],
        "rank": _rankdict(report.rank),
        "homology": asdict(report.homology),
        "detail": report.detail,
    }


def _check_lines(report) -> list:
    cand = report.candidate
    lines = [f"candidate: k1={cand.k1} k2={cand.k2} in dimension "
             f"{cand.ambient}",
             f"mu: {report.mu_a} + {report.mu_b} + 1 vs {report.mu_c}"]
    if report.u is not None:
        lines.append(f"lattice point: {report.u}")
    if report.shared_columns:
        lines.append(f"shared columns: {report.shared_columns}")
    if report.is_gluing:
        lines.append(f"gluing: yes, rho = {report.rho}"
                     + (f" (level {report.rho_level})"
                        if report.rho_level is not None else ""))
    else:
        lines.append(f"gluing: no ({report.detail})")
    return lines


def cmd_lattice_point(args) -> int:
    doc = _read_document(args)
    a = _gens(doc, "a", "lattice-point")
    b = _gens(doc, "b", "lattice-point")
    rc, u = _meeting_line(a, b)
    if rc.ok:
        result = {"u": list(u), "rank": _rankdict(rc)}
        _emit(args, "lattice-point", doc, {}, result,
              [f"u = {u}",
               f"ranks: {rc.rank_a} + {rc.rank_b} = {rc.rank_joint} + 1"])
        return 0
    result = {"u": None, "rank": _rankdict(rc),
              "detail": "the column spaces do not meet in a line"}
    _emit(args, "lattice-point", doc, {}, result,
          [f"no lattice point: ranks {rc.rank_a}, {rc.rank_b}, joint "
           f"{rc.rank_joint} in dimension {rc.ambient}"])
    return 1


def cmd_toric(args) -> int:
    doc = _read_document(args)
    gens = _gens(doc, "a", "toric")
    work_limit = _work_limit(args, doc)
    t = toric_ideal(gens)
    result: dict = {"mu": t.mu, "generators": []}
    lines = [f"mu = {t.mu}"]
    for g in t.ideal.generators:
        deg = t.adegrees[g]
        entry = _bino(g)
        entry["degree"] = list(deg)
        result["generators"].append(entry)
        lines.append(f"  {g}   degree {deg}")
    bounds: dict = {"work_limit": work_limit}
    flag_bound = (None if args.degree_bound is None
                  else _vector(args.degree_bound))
    bound = _resolve(flag_bound, "SEMIGLUE_DEGREE_BOUND",
                     doc.degree_bound, None, _vector)
    if bound is not None:
        bound = tuple(bound)
        bounds["degree_bound"] = list(bound)
        oracle = enumerate_oracle(gens, bound, work_limit)
        result["oracle"] = [_bino(g) for g in oracle]
        lines.append(f"binomials with degree within {bound}: {len(oracle)}")
        lines.extend(f"  {g}" for g in oracle)
    _emit(args, "toric", doc, bounds, result, lines)
    return 0


def cmd_membership(args) -> int:
    doc = _read_document(args)
    gens = _gens(doc, "a", "membership")
    if doc.v is None:
        raise ValueError("membership needs a v: vector")
    sol = is_member(doc.v, gens)
    result = {"member": sol is not None,
              "witness": None if sol is None else list(sol)}
    if sol is None:
        _emit(args, "membership", doc, {}, result,
              [f"{doc.v} is not in the semigroup"])
        return 1
    _emit(args, "membership", doc, {}, result,
          [f"{doc.v} = combination with exponents {sol}"])
    return 0


def cmd_check_gluing(args) -> int:
    doc = _read_document(args)
    a = _gens(doc, "a", "check-gluing")
    b = _gens(doc, "b", "check-gluing")
    k1 = args.k1 if args.k1 is not None else doc.k1
    k2 = args.k2 if args.k2 is not None else doc.k2
    k1 = 1 if k1 is None else k1
    k2 = 1 if k2 is None else k2
    if k1 < 1 or k2 < 1:
        raise ValueError("k1 and k2 must be positive")
    work_limit = _work_limit(args, doc)
    report = verify_gluing(GluingCandidate(a, b, k1, k2), work_limit)
    _emit(args, "check-gluing", doc, {"work_limit": work_limit},
          _check_result(report), _check_lines(report))
    return 0 if report.is_gluing else 1


def cmd_find_gluing(args) -> int:
    doc = _read_document(args)
    a = _gens(doc, "a", "find-gluing")
    b = _gens(doc, "b", "find-gluing")
    kmax = _kmax(args, doc)
    work_limit = _work_limit(args, doc)
    bounds = {"kmax": kmax, "work_limit": work_limit}
    nr = necessary_conditions(a, b, kmax)
    u = None if nr.u is None else list(nr.u)
    # A definitive "no" from the necessary conditions needs no cone test.
    decision = (None if nr.definitive and not nr.ok
                else decide_on_line(a, b, nr, kmax))
    if decision is None or decision.gluable is False:
        detail = nr.detail if decision is None else decision.reason
        result = {"found": False, "detail": detail,
                  "rank": _rankdict(nr.rank), "u": u}
        _emit(args, "find-gluing", doc, bounds, result,
              [f"no gluing for any scalings: {detail}"])
        return 1
    if decision.gluable is None:
        result = {"found": None, "detail": nr.detail, "u": u}
        _emit(args, "find-gluing", doc, bounds, result,
              [f"no coprime pair within bound {kmax}: inconclusive"])
        return 3
    k1, k2 = decision.pair
    report = verify_gluing(GluingCandidate(a, b, k1, k2), work_limit)
    assert report.is_gluing
    result = _check_result(report)
    result["found"] = True
    _emit(args, "find-gluing", doc, bounds, result,
          [f"found scalings k1={k1} k2={k2}"]
          + _check_lines(report))
    return 0


def cmd_audit(args) -> int:
    doc = _read_document(args)
    a = _gens(doc, "a", "audit")
    b = _gens(doc, "b", "audit")
    kmax = _kmax(args, doc)
    k1 = args.k1 if args.k1 is not None else doc.k1
    k2 = args.k2 if args.k2 is not None else doc.k2
    if (k1 is not None and k1 < 1) or (k2 is not None and k2 < 1):
        raise ValueError("k1 and k2 must be positive")
    try_pairs = [(k1, k2)] if k1 is not None and k2 is not None else []
    audit = implication_chain_audit(a, b, kmax, try_pairs)
    result = {
        "gluing": audit.gluing,
        "multiples": audit.multiples,
        "cone_meet": audit.cone_meet,
        "semigroup_meet": audit.semigroup_meet,
        "pair": None if audit.pair is None else list(audit.pair),
        "u": None if audit.u is None else list(audit.u),
        "common_element": (None if audit.common_element is None
                           else list(audit.common_element)),
        "rank": _rankdict(audit.rank),
        "violations": list(audit.violations),
    }

    def show(val):
        return "unknown" if val is None else ("yes" if val else "no")

    lines = [f"gluing for some scalings: {show(audit.gluing)}"
             + (f" {audit.pair}" if audit.pair else ""),
             f"multiples in both semigroups: {show(audit.multiples)}",
             f"cones meet: {show(audit.cone_meet)}",
             f"semigroups meet: {show(audit.semigroup_meet)}"]
    for v in audit.violations:
        lines.append(f"VIOLATION: {v}")
    _emit(args, "audit", doc, {"kmax": kmax}, result, lines)
    return 1 if audit.violations else 0


def cmd_embed_glue(args) -> int:
    doc = _read_document(args)
    if doc.a is None or doc.b is None:
        raise ValueError("embed-glue needs A: and B: sections of plane "
                         "generators")
    p = PlaneHomogeneousGens.from_matrix(IntegerMatrix.from_columns(doc.a))
    q = PlaneHomogeneousGens.from_matrix(IntegerMatrix.from_columns(doc.b))
    index = args.i if args.i is not None else doc.index
    if index is None:
        raise ValueError("embed-glue needs a step index (i: in the file "
                         "or --i)")
    eg = embed_and_glue(p, q, index)
    report = verify_gluing(eg.candidate)
    result = {
        "m": eg.m, "r": eg.r, "index": eg.index,
        "k1": eg.k1, "k2": eg.k2,
        "u": list(eg.u),
        "rho": _bino(eg.rho),
        "a_prime": [list(c) for c in eg.a_prime.matrix.columns()],
        "b_prime": [list(c) for c in eg.b_prime.matrix.columns()],
        "verified": report.is_gluing,
        "mu": {"a": report.mu_a, "b": report.mu_b, "c": report.mu_c},
    }
    lines = [f"padding: m = {eg.m}, r = {eg.r}",
             f"scalings: k1 = {eg.k1}, k2 = {eg.k2}",
             f"first block columns: {eg.a_prime.matrix.columns()}",
             f"second block columns: {eg.b_prime.matrix.columns()}",
             f"lattice point: {eg.u}",
             f"rho = {eg.rho}",
             f"verified gluing: {'yes' if report.is_gluing else 'NO'}"]
    _emit(args, "embed-glue", doc, {}, result, lines)
    return 0 if report.is_gluing else 1


def cmd_betti_glue(args) -> int:
    doc = _read_document(args)
    if doc.betti_a is None or doc.betti_b is None:
        raise ValueError("betti-glue needs betti_a: and betti_b: lines")
    ba = BettiSequence(doc.betti_a)
    bb = BettiSequence(doc.betti_b)
    glued = glued_betti(ba, bb)
    result = {"betti": list(glued.values), "pd": glued.pd}
    _emit(args, "betti-glue", doc, {}, result,
          [f"betti numbers of the glued ring: {glued.values}",
           f"projective dimension: {glued.pd}"])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiglue",
        description="decide, certify and construct gluings of affine "
                    "semigroups")
    parser.add_argument("--version", action="version",
                        version=f"semiglue {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="input file, or - for stdin")
    common.add_argument("--json", dest="json_out", action="store_true",
                        default=None, help="machine readable output")
    kmax_flag = argparse.ArgumentParser(add_help=False)
    kmax_flag.add_argument("--kmax", type=int, default=None,
                           help="bound on searched multiples")
    work_flag = argparse.ArgumentParser(add_help=False)
    work_flag.add_argument("--work-limit", type=int, default=None,
                           help="bound on enumeration steps")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lattice-point", parents=[common],
                        help="the primitive point where the spans meet")
    sp.set_defaults(func=cmd_lattice_point)

    sp = sub.add_parser("toric", parents=[common, work_flag],
                        help="minimal generators of the toric ideal of A")
    sp.add_argument("--degree-bound", type=str, default=None,
                    help="also list all ideal binomials within this degree")
    sp.set_defaults(func=cmd_toric)

    sp = sub.add_parser("membership", parents=[common],
                        help="decide whether v lies in the semigroup A")
    sp.set_defaults(func=cmd_membership)

    sp = sub.add_parser("check-gluing", parents=[common, work_flag],
                        help="decide whether k1 A and k2 B glue")
    sp.add_argument("--k1", type=int, default=None)
    sp.add_argument("--k2", type=int, default=None)
    sp.set_defaults(func=cmd_check_gluing)

    sp = sub.add_parser("find-gluing", parents=[common, kmax_flag, work_flag],
                        help="search scalings that make A and B glue")
    sp.set_defaults(func=cmd_find_gluing)

    sp = sub.add_parser("audit", parents=[common, kmax_flag],
                        help="evaluate the implication chain for A and B")
    sp.add_argument("--k1", type=int, default=None)
    sp.add_argument("--k2", type=int, default=None)
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("embed-glue", parents=[common],
                        help="embed two plane semigroups so that they glue")
    sp.add_argument("--i", type=int, default=None,
                    help="1-based step index of A used for the gluing")
    sp.set_defaults(func=cmd_embed_glue)

    sp = sub.add_parser("betti-glue", parents=[common],
                        help="Betti numbers of a glued ring from the pieces")
    sp.set_defaults(func=cmd_betti_glue)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundTooLarge as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except RankConditionsFail as exc:
        print(f"no: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
